/**
 * @file
 * Operation definitions: kernels, cost models, and the registry.
 *
 * An operation here plays the same role as in TensorFlow (paper
 * Sec. V-A): a named primitive with a compute kernel, the smallest
 * schedulable unit, tagged with an OpClass for profiling and with a
 * cost function feeding the device model.
 */
#ifndef FATHOM_GRAPH_OP_REGISTRY_H
#define FATHOM_GRAPH_OP_REGISTRY_H

#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/node.h"
#include "graph/op_class.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace fathom::graph {

/**
 * Persistent named tensors (model parameters and mutable state).
 *
 * Variable nodes read from the store; Assign/Apply* nodes write to it
 * in place. Owned by the Session so state survives across Run() calls.
 */
class VariableStore {
  public:
    /** Creates or replaces variable @p name with @p value. */
    void Set(const std::string& name, Tensor value);

    /** @return the variable; throws std::out_of_range if absent. */
    Tensor& Get(const std::string& name);
    const Tensor& Get(const std::string& name) const;

    bool Contains(const std::string& name) const;

    /** @return all variable names in insertion order. */
    std::vector<std::string> Names() const;

    /** @return total parameter count across float32 variables. */
    std::int64_t TotalParameters() const;

  private:
    std::unordered_map<std::string, Tensor> values_;
    std::vector<std::string> order_;
};

/**
 * Static cost of one op execution, derived from real tensor shapes.
 *
 * The device model converts OpCost into simulated time; parallel_work
 * is the trip count of the kernel's parallelizable loop, which is what
 * determines whether the op scales with threads (paper Fig. 6).
 */
struct OpCost {
    double flops = 0.0;           ///< floating-point operations.
    double bytes = 0.0;           ///< bytes moved (inputs + outputs).
    std::int64_t parallel_work = 1;  ///< parallelizable trip count.
};

/**
 * The input tensors of one op execution, borrowed by pointer: the
 * executor points at its workspace slots instead of copying each
 * tensor (a shape allocation and a refcount round trip per input).
 * Reads like a span of tensors.
 */
class OpInputs {
  public:
    class iterator {
      public:
        explicit iterator(const Tensor* const* at) : at_(at) {}
        const Tensor& operator*() const { return **at_; }
        iterator&
        operator++()
        {
            ++at_;
            return *this;
        }
        bool operator==(const iterator& other) const = default;

      private:
        const Tensor* const* at_;
    };

    OpInputs() = default;
    explicit OpInputs(std::span<const Tensor* const> tensors)
        : tensors_(tensors)
    {
    }

    std::size_t size() const { return tensors_.size(); }
    bool empty() const { return tensors_.empty(); }
    const Tensor& operator[](std::size_t i) const { return *tensors_[i]; }
    iterator begin() const { return iterator(tensors_.data()); }
    iterator end() const { return iterator(tensors_.data() + size()); }

  private:
    std::span<const Tensor* const> tensors_;
};

/** Everything a kernel sees while executing one node. */
class OpContext {
  public:
    /**
     * @param inputs borrowed input tensors, owned by the executor for
     *        the duration of the op (also handed to the cost hook).
     */
    OpContext(const Node& node, OpInputs inputs,
              parallel::ThreadPool& pool, Rng& rng, VariableStore& variables)
        : node_(node), inputs_(inputs), pool_(pool), rng_(rng),
          variables_(variables)
    {
        outputs_.resize(static_cast<std::size_t>(node.num_outputs));
    }

    const Node& node() const { return node_; }

    int num_inputs() const { return static_cast<int>(inputs_.size()); }

    /** @return input tensor @p i; throws if out of range. */
    const Tensor& input(int i) const;

    /** Stores output tensor @p i. */
    void set_output(int i, Tensor value);

    /** @return previously set output @p i (for the executor). */
    std::vector<Tensor>& outputs() { return outputs_; }

    parallel::ThreadPool& pool() { return pool_; }
    Rng& rng() { return rng_; }
    VariableStore& variables() { return variables_; }

    /**
     * Executor grant: input 0's buffer dies at this op, so a kernel
     * whose OpDef sets supports_inplace may write its output there
     * instead of allocating. Purely an optimization hint — kernels must
     * produce identical bits either way.
     */
    bool may_alias_input() const { return may_alias_input_; }
    void set_may_alias_input(bool allow) { may_alias_input_ = allow; }

  private:
    const Node& node_;
    OpInputs inputs_;
    std::vector<Tensor> outputs_;
    parallel::ThreadPool& pool_;
    Rng& rng_;
    VariableStore& variables_;
    bool may_alias_input_ = false;
};

/** Compute kernel: consumes ctx.input(i), produces ctx.set_output(i). */
using KernelFn = std::function<void(OpContext&)>;

/**
 * Cost model hook, evaluated after the kernel with real shapes.
 * Receives the node, its inputs, and its outputs.
 */
using CostFn = std::function<OpCost(const Node&, OpInputs,
                                    const std::vector<Tensor>&)>;

/** Immutable definition of one operation type. */
struct OpDef {
    std::string name;
    OpClass op_class = OpClass::kControl;
    KernelFn kernel;
    CostFn cost;       ///< optional; defaults to a bytes-only estimate.
    bool stateful = false;  ///< mutates variables or draws randomness.

    /**
     * The kernel honors OpContext::may_alias_input(): when granted, it
     * may write its output into input 0's buffer (the rewrite layer
     * marks steps where that input provably dies at this op).
     */
    bool supports_inplace = false;
};

/**
 * The registry of operation types.
 *
 * Registration is explicit (ops::RegisterStandardOps) rather than via
 * static initializers, so the library is safe to link statically.
 */
class OpRegistry {
  public:
    /** @return the process-wide registry. */
    static OpRegistry& Global();

    /** Registers an op; throws std::logic_error on duplicate names. */
    void Register(OpDef def);

    /** @return the op definition; throws std::out_of_range if absent. */
    const OpDef& Lookup(const std::string& name) const;

    bool Contains(const std::string& name) const;

    /** @return all registered op type names, sorted. */
    std::vector<std::string> Names() const;

  private:
    std::map<std::string, OpDef> ops_;
};

}  // namespace fathom::graph

#endif  // FATHOM_GRAPH_OP_REGISTRY_H
