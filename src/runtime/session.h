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
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/op_registry.h"
#include "runtime/executor.h"
#include "runtime/tracer.h"
#include "tensor/rng.h"

namespace fathom::runtime {

/**
 * Owns one model's graph, variables, RNG, thread pool, and trace.
 */
class Session {
  public:
    /**
     * @param seed    seed for all stateful (sampling) ops.
     * @param options execution knobs; see set_options().
     */
    explicit Session(std::uint64_t seed = 1,
                     const ExecutionOptions& options = {});

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
     * Replaces every execution knob (see ExecutionOptions). Thread
     * widths and the memory planner take effect on the next Run();
     * rewrite and verification settings on subsequently planned fetch
     * sets.
     */
    void set_options(const ExecutionOptions& options)
    {
        resources_ = ExecutionResources(options);
    }
    /** @return the knobs in effect, thread widths clamped to >= 1. */
    const ExecutionOptions& options() const { return resources_.options(); }

    Tracer& tracer() { return tracer_; }
    const Tracer& tracer() const { return tracer_; }

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
    ExecutionResources resources_;
    Tracer tracer_;
    std::map<std::string, ExecutionPlan> plan_cache_;
};

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_SESSION_H
