/**
 * @file
 * FrozenPlan: an immutable, reentrant inference executable.
 *
 * The serving layer's answer to the Session split the ROADMAP calls
 * for: Session owns *mutable* training state (variables updated in
 * place, an RNG advanced by sampling ops, a tracer, plan caches), so a
 * Session cannot safely serve concurrent clients. Freeze() extracts
 * the inference-only subgraph reachable from a model's serving
 * fetches into a self-contained plan:
 *
 *  - The subgraph is copied into a private graph (the source session
 *    may keep training, be checkpointed, or be destroyed afterwards).
 *  - Stateful ops (random sampling, variable updates) are rejected:
 *    a frozen plan has no execution barriers, so every op-level
 *    dependency is a real data/control edge and requests run fully
 *    parallel.
 *  - Variable reads are snapshotted: each reachable Variable's tensor
 *    is deep-copied at freeze time and pre-bound into the plan
 *    (in-place optimizer updates on the source session can never leak
 *    into a frozen plan, and the per-step Variable-clone the training
 *    executor pays is not paid per request). Const values are
 *    immutable and shared by reference.
 *
 * The frozen subgraph becomes a runtime::ExecutionPlan run by the same
 * executor as Session (runtime/executor.h); the snapshotted weights and
 * folded constants are the plan's seeded slots. After Freeze(), Run()
 * is const and thread-safe: any number of threads may execute the plan
 * concurrently, each with its own value workspace. Outputs are
 * bit-identical across inter-op widths (pure ops commute), across runs
 * (weights are frozen), and to Session::Run on the same batched feeds.
 */
#ifndef FATHOM_SERVING_FROZEN_PLAN_H
#define FATHOM_SERVING_FROZEN_PLAN_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/op_registry.h"
#include "runtime/executor.h"
#include "runtime/session.h"
#include "tensor/tensor.h"

namespace fathom::serving {

/** Declared layout of one serving input: per-example, no batch dim. */
struct TensorSpec {
    std::string name;  ///< placeholder node name in the source graph.
    DType dtype = DType::kFloat32;
    /** Shape of ONE example; the serving batch dim is prepended. */
    std::vector<std::int64_t> example_dims;
};

/**
 * A model's servable endpoint, declared against its live session. The
 * graph must accept any leading batch dimension: every op computes
 * each batch row independently, so a plan serves any number of rows.
 */
struct InferenceSignature {
    std::vector<TensorSpec> inputs;
    std::vector<graph::Output> fetches;     ///< in the source graph.
    std::vector<std::string> output_names;  ///< parallel to fetches.
};

/** Feeds for one single-example request: name -> [1, ...] tensor. */
using RequestFeeds = std::map<std::string, Tensor>;

class FrozenPlan {
  public:
    /**
     * Freezes the subgraph of @p session producing @p
     * signature.fetches.
     *
     * @p options are fixed at freeze time (the plan stays immutable).
     * With graph_rewrites on, the rewriter treats Variables as
     * constants (weights are snapshotted), so whole weight-only
     * expressions fold at freeze time. With verify on, the plan is
     * statically verified once here, its placeholders seeded from the
     * signature's TensorSpecs at batch 1 under the frozen-mode
     * determinism lint.
     *
     * @throws std::invalid_argument if the subgraph contains a
     *         stateful op (sampling, variable update), if a reachable
     *         placeholder is not declared in the signature, if a
     *         declared input is not a placeholder, or on a
     *         verification finding.
     */
    static std::shared_ptr<const FrozenPlan> Freeze(
        const runtime::Session& session, const InferenceSignature& signature,
        const runtime::ExecutionOptions& options = {});

    FrozenPlan(const FrozenPlan&) = delete;
    FrozenPlan& operator=(const FrozenPlan&) = delete;

    const InferenceSignature& signature() const { return signature_; }
    /** @return the knobs frozen in, thread widths clamped to >= 1. */
    const runtime::ExecutionOptions& options() const
    {
        return resources_.options();
    }

    /** @return executable (kernel) step count, for introspection. */
    std::size_t num_steps() const { return plan_.steps.size(); }

    /**
     * Validates one single-example request (name -> [1, ...] tensor)
     * against the signature.
     *
     * @throws std::invalid_argument naming the first missing, empty,
     *         mistyped or misshapen input.
     */
    void CheckRequest(const RequestFeeds& request) const;

    /**
     * Executes the plan on batched feeds (name -> [B, ...] tensor).
     *
     * Thread-safe and reentrant: concurrent calls share only immutable
     * plan state, the buffer pool, and the (internally synchronized)
     * thread pool. Every input must have the same leading batch.
     *
     * @return the fetched tensors, in signature order.
     */
    std::vector<Tensor> Run(const std::map<std::string, Tensor>& feeds) const;

    /**
     * Serves a coalesced batch of single-example requests: stacks each
     * input along a new leading batch dimension of exactly
     * requests.size() rows, executes once, and slices each output row
     * back to its request.
     *
     * Per-request results are bit-identical to serving the request in
     * any other batch composition — the equivalence battery in
     * tests/test_serving.cc enforces this — because every op in a
     * frozen plan computes each batch row independently.
     *
     * @return per request, the fetched [1, ...] tensors in signature
     *         order.
     */
    std::vector<std::vector<Tensor>> ServeBatch(
        const std::vector<const RequestFeeds*>& requests) const;

    /** ServeBatch for a single request (the batch-size-1 baseline). */
    std::vector<Tensor> ServeOne(const RequestFeeds& request) const;

  private:
    FrozenPlan() = default;

    /** Validates one batched feed tensor against its spec. */
    void CheckFeed(const TensorSpec& spec, const Tensor& value,
                   std::int64_t batch) const;

    InferenceSignature signature_;
    graph::Graph graph_;  ///< private copy of the inference subgraph.
    /** Input name -> frozen placeholder node. */
    std::map<std::string, graph::NodeId> input_nodes_;
    /** The executable, over graph_; the weight snapshot is its seeds. */
    runtime::ExecutionPlan plan_;

    /** The frozen knobs and the thread pools they ask for. */
    runtime::ExecutionResources resources_;
    /** Never drawn from (stateful ops are rejected); OpContext needs one. */
    mutable Rng rng_{0};
    /** Never touched by frozen kernels; OpContext needs one. */
    mutable graph::VariableStore empty_variables_;
};

}  // namespace fathom::serving

#endif  // FATHOM_SERVING_FROZEN_PLAN_H
