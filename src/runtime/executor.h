/**
 * @file
 * The one execution plan and the one executor behind both Session
 * (training and inference steps) and serving::FrozenPlan (requests).
 *
 * BuildPlan() turns a rewritten (or plain topological) node order, the
 * fetches, and the set of already-valued nodes into an ExecutionPlan:
 * kernel steps only, every input pre-resolved to a dense workspace
 * slot, with the inter-op dependency structure and the memory
 * planner's liveness facts. Execute() runs a plan against a per-call
 * workspace, sequentially or by draining a ready queue across an
 * inter-op pool. A plan is immutable once built, so any number of
 * threads may Execute() it concurrently.
 */
#ifndef FATHOM_RUNTIME_EXECUTOR_H
#define FATHOM_RUNTIME_EXECUTOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/op_registry.h"
#include "graph/rewrite/rewrite.h"
#include "graph/verify/verifier.h"
#include "parallel/thread_pool.h"
#include "runtime/tracer.h"
#include "tensor/rng.h"

namespace fathom::runtime {

/** Placeholder feeds for one step, keyed by node id. */
using FeedMap = std::map<graph::NodeId, Tensor>;

/** One kernel step of a plan. */
struct PlanStep {
    const graph::Node* node = nullptr;
    const graph::OpDef* def = nullptr;
    /** Index of this step's first entry in ExecutionPlan::input_slots;
        one entry per data input follows. */
    std::int32_t first_input = 0;
    /** First of the node's num_outputs consecutive output slots. */
    std::int32_t output_slot = 0;
};

/**
 * An immutable execution plan over one graph. All per-step vectors are
 * parallel to `steps` (plan order).
 */
struct ExecutionPlan {
    /** Input slot of an edge that no step, seed or feed produces. */
    static constexpr std::int32_t kNoSlot = -1;

    const graph::Graph* graph = nullptr;
    std::vector<PlanStep> steps;
    /** Per step, its node id (the verifier's plan order). */
    std::vector<graph::NodeId> order;
    /** Per step data input, its workspace slot (kNoSlot: never
        produced); see PlanStep::first_input. */
    std::vector<std::int32_t> input_slots;
    /** Per step, whether the kernel may write into its first input
        (statically proven to die here; the executor still verifies the
        runtime refcount). */
    std::vector<char> inplace;

    // Dependency structure for the inter-op drain. Stateful steps are
    // barriers: they depend on every earlier step and every later step
    // depends on them, which serializes RNG draws and variable writes
    // in plan order (the determinism guarantee).
    /** Per step, the steps unblocked by its completion. */
    std::vector<std::vector<std::int32_t>> dependents;
    /** Per step, how many dependencies must complete first. */
    std::vector<std::int32_t> initial_pending;

    // Liveness structure for the memory planner. A step's outputs die
    // once `consumer_count` consumer steps have finished reading them;
    // `releasable` excludes fetches, Variable/Const reads and stateful
    // steps, whose values live to the end of the run.
    /** Per step, the distinct producer steps of its data inputs. */
    std::vector<std::vector<std::int32_t>> input_producers;
    /** Per step, how many consumer steps read its outputs. */
    std::vector<std::int32_t> consumer_count;
    /** Per step, whether its outputs may be dropped when dead. */
    std::vector<char> releasable;

    /** Workspace size: step outputs first, then seeds and feeds. */
    std::int32_t num_slots = 0;
    /** Already-valued slots, copied into every workspace. */
    std::vector<std::pair<std::int32_t, Tensor>> seeded;
    /** Placeholder node and its slot; each must be fed. */
    std::vector<std::pair<graph::NodeId, std::int32_t>> placeholders;
    /** Per fetch, its node (for diagnostics) and its slot. */
    std::vector<std::pair<graph::NodeId, std::int32_t>> fetches;

    // Provenance kept for the verifier; never read at run time.
    std::unordered_map<graph::NodeId, graph::NodeId> replacements;
    std::unordered_map<graph::NodeId, std::vector<Tensor>> valued;
};

/**
 * Builds the plan for @p graph.
 *
 * @param rewritten the execution order with its edge replacements and
 *        per-order in-place marks (a plain topological order leaves
 *        the rest empty). `folded` holds every already-valued node:
 *        constant-folded outputs plus any values the caller pre-binds.
 *        Valued nodes and Placeholders become workspace seeds; every
 *        other node in the order becomes a kernel step.
 * @param fetches edges whose values Execute() returns, in order.
 */
ExecutionPlan BuildPlan(const graph::Graph& graph,
                        graph::rewrite::RewriteResult rewritten,
                        const std::vector<graph::Output>& fetches);

/** @return the verifier's view of @p plan (borrows from it). */
graph::verify::PlanFacts FactsOf(const ExecutionPlan& plan);

/**
 * Every execution knob, defined once. Session, FrozenPlan::Freeze,
 * WorkloadConfig and the suite harness all take this struct. Fetched
 * values and variables are bit-identical under every setting.
 */
struct ExecutionOptions {
    /** Intra-op pool width handed to kernels (the paper's Fig. 6 knob). */
    int intra_op_threads = 1;

    /**
     * Inter-op width: how many independent graph ops run concurrently
     * within one step. At 1, Execute() runs the sequential loop; above
     * it drains a dependency-counting ready queue. Pure ops commute and
     * stateful ops (sampling, variable updates) are barriers in plan
     * order, so RNG draws and parameter writes happen exactly as in
     * the sequential loop.
     */
    int inter_op_threads = 1;

    /**
     * Liveness-driven memory planner: drop each intermediate at its
     * last consumer (an atomic refcount, so the inter-op drain
     * composes) and recycle its buffer through the BufferPool. Fetches,
     * fed placeholders, Variable/Const reads and stateful ops are never
     * released early.
     */
    bool memory_planner = true;

    /**
     * Graph rewrite framework (constant folding, CSE, transpose
     * folding, elementwise fusion, in-place) at each plan build; see
     * graph/rewrite/rewrite.h.
     */
    bool graph_rewrites = true;

    /** Per-pattern knobs (effective when graph_rewrites is on). */
    graph::rewrite::RewriteOptions rewrites{};

    /**
     * Static verification of every built plan: structure, shape/dtype
     * inference seeded from the feeds, and the aliasing, liveness and
     * determinism lints. A finding throws std::invalid_argument with
     * the full report and nothing is cached. See
     * graph/verify/verifier.h.
     */
    bool verify = true;
};

/** What one Execute() call runs with. Pointers are borrowed. */
struct ExecutorContext {
    parallel::ThreadPool* intra_op_pool = nullptr;  ///< handed to kernels.
    Rng* rng = nullptr;
    graph::VariableStore* variables = nullptr;
    int inter_op_threads = 1;
    /** Lane pool; required when inter_op_threads > 1. */
    parallel::ThreadPool* inter_op_pool = nullptr;
    /** Drop intermediates at their last consumer (the memory planner). */
    bool memory_planning = true;
    /** Per-op records go here when non-null and enabled. */
    Tracer* tracer = nullptr;
};

/**
 * An ExecutionOptions with both thread widths clamped to at least 1
 * (the one place that clamps them), plus the pools those widths ask
 * for: an intra-op pool for kernels and, above width 1, an inter-op
 * lane pool.
 */
class ExecutionResources {
  public:
    explicit ExecutionResources(const ExecutionOptions& options = {});

    const ExecutionOptions& options() const { return options_; }

    /** @return a context on these pools with the options' inter-op
        width and planner; callers add the RNG, variables and tracer. */
    ExecutorContext Context() const;

  private:
    ExecutionOptions options_;
    std::unique_ptr<parallel::ThreadPool> intra_op_pool_;
    std::unique_ptr<parallel::ThreadPool> inter_op_pool_;
};

/**
 * Runs @p plan once: seeds a fresh workspace, checks every placeholder
 * is fed, runs the kernel steps and returns the fetched tensors.
 *
 * With more than one inter-op lane, steps drain a dependency-counting
 * ready queue; fetches are bit-identical to the sequential loop. On a
 * kernel failure in-flight steps finish, nothing new starts, and the
 * failure with the lowest plan sequence is rethrown.
 *
 * @throws std::invalid_argument if a placeholder is not fed (before any
 *         kernel runs); std::runtime_error naming the op on a kernel
 *         failure; std::logic_error if an input or fetch is never
 *         produced.
 */
std::vector<Tensor> Execute(const ExecutionPlan& plan, const FeedMap& feeds,
                            const ExecutorContext& context);

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_EXECUTOR_H
