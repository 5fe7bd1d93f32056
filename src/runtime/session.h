/**
 * @file
 * The execution engine: owns a graph, its state, and runs steps.
 *
 * Session mirrors TensorFlow's session: callers feed placeholder
 * values, name fetch edges and/or run-only targets, and the shared
 * executor (runtime/executor.h) runs the pruned subgraph in
 * topological order. Session itself keeps only mutable training state:
 * the plan cache, variables, the RNG, the tracer's step boundaries and
 * the `session.*` counters. Operations are the smallest schedulable
 * unit and each execution is timed and costed for the profiling tools.
 */
#ifndef FATHOM_RUNTIME_SESSION_H
#define FATHOM_RUNTIME_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/op_registry.h"
#include "graph/rewrite/rewrite.h"
#include "parallel/thread_pool.h"
#include "runtime/executor.h"
#include "runtime/tracer.h"
#include "tensor/rng.h"

namespace fathom::runtime {

/**
 * Owns one model's graph, variables, RNG, thread pool, and trace.
 */
class Session {
  public:
    /** @param seed seed for all stateful (sampling) ops. */
    explicit Session(std::uint64_t seed = 1);

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    graph::Graph& graph() { return graph_; }
    const graph::Graph& graph() const { return graph_; }
    graph::VariableStore& variables() { return variables_; }
    const graph::VariableStore& variables() const { return variables_; }

    /** @return a builder appending to this session's graph/state. */
    graph::GraphBuilder MakeBuilder()
    {
        return graph::GraphBuilder(&graph_, &variables_);
    }

    /**
     * Reconfigures intra-op parallelism (the paper's Fig. 6 knob).
     * Takes effect on the next Run().
     */
    void SetThreads(int threads);
    int threads() const { return pool_->num_threads(); }

    /**
     * Reconfigures inter-op parallelism: how many independent graph
     * operations may execute concurrently within one step.
     *
     * With 1 (the default) Run() uses the sequential executor and is
     * byte-identical to the historical behavior. With more threads,
     * Run() drains a dependency-counting ready queue across a dedicated
     * pool. Fetched values are bit-identical either way: pure ops
     * commute, and stateful ops (random sampling, variable updates)
     * execute as barriers in plan order, so RNG draws and parameter
     * writes happen exactly as in the sequential executor. Takes effect
     * on the next Run().
     */
    void SetInterOpThreads(int threads);
    int inter_op_threads() const { return inter_op_threads_; }

    Tracer& tracer() { return tracer_; }
    const Tracer& tracer() const { return tracer_; }

    /**
     * Enables the liveness-driven memory planner (on by default).
     *
     * The planner derives, from the execution plan, how many consumer
     * steps read each step's outputs, and drops an intermediate tensor
     * the moment its last consumer (tracked with an atomic refcount, so
     * the inter-op executor composes) has finished — instead of keeping
     * every node's outputs alive until the end of the step. Freed
     * buffers return to the BufferPool for recycling. Fetched outputs,
     * fed placeholders, `Variable`/`Const` reads, and stateful ops are
     * never released early. Values are bit-identical either way: only
     * dead tensors are dropped, and buffer recycling is
     * refcount-driven.
     */
    void SetMemoryPlanning(bool enabled) { memory_planning_ = enabled; }
    bool memory_planning() const { return memory_planning_; }

    /**
     * Enables the graph rewrite framework (constant folding, CSE,
     * transpose folding, elementwise fusion, in-place) for subsequently
     * planned fetch sets. Off by default so profiles reflect the graph
     * as written; see graph/rewrite/rewrite.h. Every rewrite preserves
     * bit-identical fetches, variables, and traces.
     */
    void SetGraphOptimization(bool enabled) { optimize_graphs_ = enabled; }
    bool graph_optimization() const { return optimize_graphs_; }

    /**
     * Per-pattern rewrite knobs (effective only when graph optimization
     * is enabled). Takes effect on subsequently planned fetch sets.
     */
    void SetRewriteOptions(const graph::rewrite::RewriteOptions& options)
    {
        rewrite_options_ = options;
    }
    const graph::rewrite::RewriteOptions& rewrite_options() const
    {
        return rewrite_options_;
    }

    /**
     * Enables the static graph verifier (on by default). When on, every
     * plan build (cache miss) runs structural validation, whole-graph
     * shape/dtype inference seeded from the step's feed tensors, and
     * the aliasing/liveness/determinism lints against the built plan;
     * any finding throws std::invalid_argument with the full report and
     * nothing is cached. Feed types are checked once per plan, at build
     * time. See graph/verify/verifier.h.
     */
    void SetVerification(bool enabled) { verify_graphs_ = enabled; }
    bool verification() const { return verify_graphs_; }

    /**
     * Executes the subgraph producing @p fetches and @p targets.
     *
     * @param feeds   values for placeholder nodes used by the subgraph.
     * @param fetches edges whose tensors are returned, in order.
     * @param targets extra nodes to run without fetching (e.g. the
     *                optimizer update group).
     * @return the fetched tensors.
     * @throws std::invalid_argument on a malformed graph or a missing
     *         feed (before any kernel runs); std::runtime_error naming
     *         the op on a kernel failure.
     */
    std::vector<Tensor> Run(const FeedMap& feeds,
                            const std::vector<graph::Output>& fetches,
                            const std::vector<graph::NodeId>& targets = {});

    /** Run() with feeds keyed by placeholder node name. */
    std::vector<Tensor> RunNamed(
        const std::map<std::string, Tensor>& feeds,
        const std::vector<graph::Output>& fetches,
        const std::vector<graph::NodeId>& targets = {});

  private:
    /** Cached pruned plan for a fetch/target set. On a cache miss the
        plan is statically verified (when enabled) against @p feeds
        before being cached. */
    const ExecutionPlan& GetPlan(const FeedMap& feeds,
                                 const std::vector<graph::Output>& fetches,
                                 const std::vector<graph::NodeId>& targets);

    graph::Graph graph_;
    graph::VariableStore variables_;
    Rng rng_;
    std::unique_ptr<parallel::ThreadPool> pool_;
    int inter_op_threads_ = 1;
    std::unique_ptr<parallel::ThreadPool> inter_op_pool_;
    Tracer tracer_;
    bool memory_planning_ = true;
    bool optimize_graphs_ = false;
    bool verify_graphs_ = true;
    graph::rewrite::RewriteOptions rewrite_options_;
    std::map<std::string, ExecutionPlan> plan_cache_;
};

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_SESSION_H
