#include "runtime/executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "telemetry/metrics.h"

namespace fathom::runtime {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t
MicrosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
}

/**
 * Executor metrics, resolved once. The queue/worker signals are
 * genuinely scheduling-dependent and exist to expose it.
 */
struct ExecutorMetrics {
    telemetry::Counter& inplace_applied;
    telemetry::Counter& parallel_steps;
    telemetry::Counter& worker_busy_us;
    telemetry::Counter& worker_idle_us;
    telemetry::Histogram& ready_queue_depth;

    static ExecutorMetrics&
    Get()
    {
        static ExecutorMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new ExecutorMetrics{
                r.GetCounter("rewrite.inplace_applied"),
                r.GetCounter("executor.parallel_steps"),
                r.GetCounter("executor.worker_busy_us"),
                r.GetCounter("executor.worker_idle_us"),
                r.GetHistogram("executor.ready_queue_depth"),
            };
        }();
        return *m;
    }
};

/** One Execute() call's mutable state, shared by its lanes. */
struct Workspace {
    const ExecutionPlan& plan;
    const ExecutorContext& context;
    /** Dense values: each slot written by one step or seed. */
    std::vector<Tensor> slots;
    /** Per step, outstanding consumer counts; null when the planner is
        off for this run. */
    std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
    /** Op record timestamps are offsets from here. */
    Clock::time_point epoch;
};

/** Input pointers a step gathers on the stack; wider steps use a
    vector. */
constexpr std::size_t kInlineInputs = 8;

/**
 * Runs kernel step @p seq: gathers its inputs from their slots, grants
 * in-place execution when the refcount allows, traces it (with the
 * executor lane @p lane) and stores its outputs. Thread-safe across
 * distinct steps.
 */
void
RunStep(Workspace& ws, std::size_t seq, int lane)
{
    const ExecutionPlan& plan = ws.plan;
    const PlanStep& step = plan.steps[seq];
    const graph::Node& node = *step.node;

    const auto first = static_cast<std::size_t>(step.first_input);
    const std::size_t num_inputs = node.inputs.size();
    // The kernel reads its inputs in their slots: a slot is cleared
    // only after every consumer of its value has finished (see
    // ReleaseDead), so no copy or extra reference is needed.
    std::array<const Tensor*, kInlineInputs> inline_inputs;
    std::vector<const Tensor*> wide_inputs(
        num_inputs > kInlineInputs ? num_inputs : 0);
    const std::span<const Tensor*> gathered =
        num_inputs > kInlineInputs
            ? std::span<const Tensor*>(wide_inputs)
            : std::span<const Tensor*>(inline_inputs.data(), num_inputs);
    for (std::size_t k = 0; k < num_inputs; ++k) {
        const std::int32_t slot = plan.input_slots[first + k];
        if (slot == ExecutionPlan::kNoSlot ||
            !ws.slots[static_cast<std::size_t>(slot)].initialized()) {
            throw std::logic_error(
                "runtime::Execute: node '" + node.name + "' input from '" +
                plan.graph->node(node.inputs[k].node).name +
                "' was not produced");
        }
        gathered[k] = &ws.slots[static_cast<std::size_t>(slot)];
    }
    const graph::OpInputs inputs(gathered);

    const ExecutorContext& cx = ws.context;
    graph::OpContext ctx(node, inputs, *cx.intra_op_pool, *cx.rng,
                         *cx.variables);

    // In-place grant: the rewrite proved input 0 statically dies at this
    // step; the refcount check (its workspace slot is the only holder)
    // rejects anything the static proof cannot see — seeded folds and
    // weights, caller feeds, view-shared buffers, planner-off retention.
    if (plan.inplace[seq] && !inputs.empty() && inputs[0].initialized() &&
        inputs[0].buffer_use_count() == 1) {
        ctx.set_may_alias_input(true);
        if (telemetry::MetricsEnabled()) {
            ExecutorMetrics::Get().inplace_applied.Add(1);
        }
    }

    // Timestamps are only taken when tracing: the traced-off hot path
    // must stay inside the bench_telemetry overhead budget.
    OpExecRecord* const record =
        cx.tracer != nullptr ? cx.tracer->SlotFor(seq) : nullptr;
    const auto op_start =
        record != nullptr ? Clock::now() : Clock::time_point{};
    try {
        step.def->kernel(ctx);
    } catch (const std::exception& e) {
        throw std::runtime_error("runtime::Execute: op '" + node.name +
                                 "' (" + node.op_type +
                                 ") failed: " + e.what());
    }

    if (record != nullptr) {
        record->wall_seconds =
            std::chrono::duration<double>(Clock::now() - op_start).count();
        record->start_seconds =
            std::chrono::duration<double>(op_start - ws.epoch).count();
        record->node = node.id;
        record->op_type = node.op_type;
        record->op_class = step.def->op_class;
        record->worker = lane;
        if (step.def->cost) {
            record->cost = step.def->cost(node, inputs, ctx.outputs());
        } else {
            // Default: bytes-only cost from the outputs.
            graph::OpCost cost;
            for (const Tensor& out : ctx.outputs()) {
                if (out.initialized()) {
                    cost.bytes += static_cast<double>(out.byte_size());
                }
            }
            record->cost = cost;
        }
    }

    std::vector<Tensor>& outputs = ctx.outputs();
    const std::size_t count = std::min(
        outputs.size(), static_cast<std::size_t>(node.num_outputs));
    for (std::size_t k = 0; k < count; ++k) {
        ws.slots[static_cast<std::size_t>(step.output_slot) + k] =
            std::move(outputs[k]);
    }
}

/** Drops step @p seq's output slots. */
void
ClearOutputs(Workspace& ws, std::size_t seq)
{
    const PlanStep& step = ws.plan.steps[seq];
    const auto first = static_cast<std::size_t>(step.output_slot);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(step.node->num_outputs); ++k) {
        ws.slots[first + k] = Tensor();
    }
}

/**
 * Memory-planner bookkeeping after step @p seq completed: credits the
 * step's producers and drops any value whose last consumer has now run.
 * Thread-safe: the acq_rel refcount guarantees exactly one thread
 * observes a value die, strictly after every consumer finished reading
 * it.
 */
void
ReleaseDead(Workspace& ws, std::size_t seq)
{
    if (ws.remaining == nullptr) {  // planner disabled for this run.
        return;
    }
    const ExecutionPlan& plan = ws.plan;
    // A step nothing reads (e.g. a run-only target) dies on completion.
    if (plan.releasable[seq] && plan.consumer_count[seq] == 0) {
        ClearOutputs(ws, seq);
    }
    for (std::int32_t p : plan.input_producers[seq]) {
        const auto ps = static_cast<std::size_t>(p);
        // acq_rel: the thread that takes the count to zero observes
        // every other consumer's reads as already done, so the clear
        // below cannot race a concurrent input gather. Buffers shared
        // into still-live tensors (views, Identity outputs) survive the
        // clear via their own shared_ptr refs.
        if (ws.remaining[ps].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            plan.releasable[ps]) {
            ClearOutputs(ws, ps);
        }
    }
}

/** Drains the plan's ready queue across @p width inter-op lanes. */
void
RunParallel(Workspace& ws, std::size_t width)
{
    const ExecutionPlan& plan = ws.plan;
    const std::size_t total = plan.steps.size();

    struct ExecState {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::int32_t> ready;
        std::vector<std::int32_t> pending;
        std::size_t active = 0;     ///< steps currently executing.
        std::size_t completed = 0;  ///< steps finished (ok or not).
        bool stopped = false;       ///< error seen; start nothing new.
        std::size_t error_seq = SIZE_MAX;
        std::exception_ptr error;
    };
    ExecState state;
    state.pending = plan.initial_pending;
    for (std::size_t i = 0; i < total; ++i) {
        if (state.pending[i] == 0) {
            state.ready.push_back(static_cast<std::int32_t>(i));
        }
    }

    // Each drain loop claims ready steps until the run completes or an
    // error stops the schedule; in-flight steps always finish, so the
    // run ends cleanly even on failure. Among concurrently failing
    // steps, the lowest plan sequence wins, keeping the surfaced error
    // deterministic. The loop's lane index becomes the worker id on
    // trace records, and — when metrics are on — the loop accounts its
    // own busy/idle split and samples the ready-queue depth at each
    // claim.
    auto drain = [&ws, &plan, &state, total](int lane) {
        const bool metered = telemetry::MetricsEnabled();
        std::uint64_t busy_us = 0;
        std::uint64_t idle_us = 0;
        for (;;) {
            std::int32_t seq = -1;
            {
                const auto wait_start =
                    metered ? Clock::now() : Clock::time_point{};
                std::unique_lock<std::mutex> lock(state.mu);
                state.cv.wait(lock, [&state, total] {
                    return state.stopped || !state.ready.empty() ||
                           (state.active == 0 && state.completed == total);
                });
                if (metered) {
                    idle_us += MicrosSince(wait_start);
                }
                if (state.stopped || state.ready.empty()) {
                    if (metered) {
                        ExecutorMetrics& em = ExecutorMetrics::Get();
                        em.worker_busy_us.Add(busy_us);
                        em.worker_idle_us.Add(idle_us);
                    }
                    return;
                }
                if (metered) {
                    ExecutorMetrics::Get().ready_queue_depth.Observe(
                        state.ready.size());
                }
                seq = state.ready.front();
                state.ready.pop_front();
                ++state.active;
            }
            const auto run_start =
                metered ? Clock::now() : Clock::time_point{};
            std::exception_ptr err;
            try {
                RunStep(ws, static_cast<std::size_t>(seq), lane);
            } catch (...) {
                err = std::current_exception();
            }
            if (metered) {
                busy_us += MicrosSince(run_start);
            }
            if (!err) {
                ReleaseDead(ws, static_cast<std::size_t>(seq));
            }
            {
                std::lock_guard<std::mutex> lock(state.mu);
                --state.active;
                ++state.completed;
                if (err) {
                    state.stopped = true;
                    if (static_cast<std::size_t>(seq) < state.error_seq) {
                        state.error_seq = static_cast<std::size_t>(seq);
                        state.error = err;
                    }
                } else if (!state.stopped) {
                    for (std::int32_t d :
                         plan.dependents[static_cast<std::size_t>(seq)]) {
                        if (--state.pending[static_cast<std::size_t>(d)] ==
                            0) {
                            state.ready.push_back(d);
                        }
                    }
                }
            }
            state.cv.notify_all();
        }
    };

    std::vector<std::function<void()>> loops;
    loops.reserve(width);
    for (std::size_t lane = 0; lane < width; ++lane) {
        loops.push_back([&drain, lane] { drain(static_cast<int>(lane)); });
    }
    ws.context.inter_op_pool->RunTasks(std::move(loops));

    if (state.error) {
        std::rethrow_exception(state.error);
    }
}

}  // namespace

ExecutionPlan
BuildPlan(const graph::Graph& graph, graph::rewrite::RewriteResult rewritten,
          const std::vector<graph::Output>& fetches)
{
    ExecutionPlan plan;
    plan.graph = &graph;
    plan.replacements = std::move(rewritten.replacements);
    plan.valued = std::move(rewritten.folded);
    auto resolve = [&plan](graph::NodeId id) {
        auto r = plan.replacements.find(id);
        return r == plan.replacements.end() ? id : r->second;
    };
    auto valid = [&graph](graph::NodeId id) {
        return id >= 0 && id < graph.num_nodes();
    };

    // Kernel steps, with their op definitions resolved once (registry
    // lookups are string-keyed). Their outputs take the first slots.
    const graph::OpRegistry& registry = graph::OpRegistry::Global();
    const auto num_nodes = static_cast<std::size_t>(graph.num_nodes());
    std::vector<std::int32_t> slot_of(num_nodes, ExecutionPlan::kNoSlot);
    std::vector<std::int32_t> step_of(num_nodes, -1);
    auto take_slots = [&plan, &slot_of](const graph::Node& node) {
        slot_of[static_cast<std::size_t>(node.id)] = plan.num_slots;
        plan.num_slots += node.num_outputs;
        return slot_of[static_cast<std::size_t>(node.id)];
    };
    for (std::size_t oi = 0; oi < rewritten.order.size(); ++oi) {
        const graph::NodeId id = rewritten.order[oi];
        const graph::Node& node = graph.node(id);
        if (plan.valued.count(id) > 0) {
            continue;
        }
        if (node.op_type == "Placeholder") {
            plan.placeholders.emplace_back(id, ExecutionPlan::kNoSlot);
            continue;
        }
        PlanStep step;
        step.node = &node;
        step.def = &registry.Lookup(node.op_type);
        step.output_slot = take_slots(node);
        step_of[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(plan.steps.size());
        plan.steps.push_back(step);
        plan.order.push_back(id);
        plan.inplace.push_back(
            rewritten.inplace.empty() ? char{0} : rewritten.inplace[oi]);
    }

    // Feeds, then already-valued nodes as their first reader asks for
    // them (a fold that no step or fetch reads never enters the
    // workspace).
    for (auto& [id, slot] : plan.placeholders) {
        slot = take_slots(graph.node(id));
    }
    auto edge_slot = [&](const graph::Output& edge) {
        const graph::NodeId p = resolve(edge.node);
        if (!valid(p)) {
            return ExecutionPlan::kNoSlot;
        }
        const graph::Node& producer = graph.node(p);
        if (slot_of[static_cast<std::size_t>(p)] == ExecutionPlan::kNoSlot) {
            auto v = plan.valued.find(p);
            if (v == plan.valued.end()) {
                return ExecutionPlan::kNoSlot;
            }
            const std::int32_t first = take_slots(producer);
            for (std::size_t k = 0;
                 k < v->second.size() &&
                 k < static_cast<std::size_t>(producer.num_outputs);
                 ++k) {
                plan.seeded.emplace_back(
                    first + static_cast<std::int32_t>(k), v->second[k]);
            }
        }
        if (edge.index < 0 || edge.index >= producer.num_outputs) {
            return ExecutionPlan::kNoSlot;
        }
        return slot_of[static_cast<std::size_t>(p)] + edge.index;
    };
    auto producer_step = [&](graph::NodeId id) {
        const graph::NodeId p = resolve(id);
        return valid(p) ? step_of[static_cast<std::size_t>(p)] : -1;
    };

    std::unordered_set<graph::NodeId> fetched;
    fetched.reserve(fetches.size());
    for (const graph::Output& f : fetches) {
        fetched.insert(resolve(f.node));
        plan.fetches.emplace_back(f.node, edge_slot(f));
    }

    // Dependency structure for the inter-op drain and liveness for the
    // memory planner. Data edges from other steps are both a dependency
    // and a liveness credit; control edges only order execution.
    // Seeded and fed values exist before the run starts, so edges from
    // them impose no ordering and hold no credit. Stateful steps become
    // barriers (they wait for everything earlier and gate everything
    // later), so RNG draws and variable writes keep their sequential
    // order.
    const std::size_t n = plan.steps.size();
    plan.dependents.assign(n, {});
    plan.initial_pending.assign(n, 0);
    plan.input_producers.assign(n, {});
    plan.consumer_count.assign(n, 0);
    plan.releasable.assign(n, 0);
    std::int32_t prev_barrier = -1;
    std::vector<std::int32_t> deps;
    for (std::size_t i = 0; i < n; ++i) {
        PlanStep& step = plan.steps[i];
        const graph::Node& node = *step.node;
        auto& producers = plan.input_producers[i];
        step.first_input = static_cast<std::int32_t>(plan.input_slots.size());
        for (const graph::Output& in : node.inputs) {
            plan.input_slots.push_back(edge_slot(in));
            const std::int32_t p = producer_step(in.node);
            if (p >= 0) {
                producers.push_back(p);
            }
        }
        std::sort(producers.begin(), producers.end());
        producers.erase(std::unique(producers.begin(), producers.end()),
                        producers.end());
        for (std::int32_t p : producers) {
            ++plan.consumer_count[static_cast<std::size_t>(p)];
        }
        plan.releasable[i] = !step.def->stateful &&
                             node.op_type != "Variable" &&
                             node.op_type != "Const" &&
                             fetched.count(node.id) == 0;

        deps = producers;
        for (graph::NodeId c : node.control_inputs) {
            const std::int32_t p = producer_step(c);
            if (p >= 0) {
                deps.push_back(p);
            }
        }
        if (step.def->stateful) {
            // Steps in (prev_barrier, i) already wait on prev_barrier,
            // so edges from that range (plus prev_barrier itself, for
            // back-to-back barriers) order this step after everything.
            for (std::int32_t j = prev_barrier + 1;
                 j < static_cast<std::int32_t>(i); ++j) {
                deps.push_back(j);
            }
            if (prev_barrier >= 0) {
                deps.push_back(prev_barrier);
            }
            prev_barrier = static_cast<std::int32_t>(i);
        } else if (prev_barrier >= 0) {
            deps.push_back(prev_barrier);
        }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        plan.initial_pending[i] = static_cast<std::int32_t>(deps.size());
        for (std::int32_t d : deps) {
            plan.dependents[static_cast<std::size_t>(d)].push_back(
                static_cast<std::int32_t>(i));
        }
    }
    return plan;
}

graph::verify::PlanFacts
FactsOf(const ExecutionPlan& plan)
{
    graph::verify::PlanFacts facts;
    facts.order = &plan.order;
    facts.replacements = &plan.replacements;
    facts.folded = &plan.valued;
    facts.inplace = &plan.inplace;
    facts.consumer_count = &plan.consumer_count;
    facts.input_producers = &plan.input_producers;
    facts.releasable = &plan.releasable;
    return facts;
}

ExecutionResources::ExecutionResources(const ExecutionOptions& options)
    : options_(options)
{
    options_.intra_op_threads = std::max(options_.intra_op_threads, 1);
    options_.inter_op_threads = std::max(options_.inter_op_threads, 1);
    intra_op_pool_ =
        std::make_unique<parallel::ThreadPool>(options_.intra_op_threads);
    if (options_.inter_op_threads > 1) {
        inter_op_pool_ =
            std::make_unique<parallel::ThreadPool>(options_.inter_op_threads);
    }
}

ExecutorContext
ExecutionResources::Context() const
{
    ExecutorContext context;
    context.intra_op_pool = intra_op_pool_.get();
    context.inter_op_threads = options_.inter_op_threads;
    context.inter_op_pool = inter_op_pool_.get();
    context.memory_planning = options_.memory_planner;
    return context;
}

std::vector<Tensor>
Execute(const ExecutionPlan& plan, const FeedMap& feeds,
        const ExecutorContext& context)
{
    Workspace ws{plan, context, {}, nullptr, Clock::now()};
    // Each seeded and fed slot holds its own reference, so the in-place
    // refcount gate sees the plan's or the caller's copy and refuses.
    ws.slots.resize(static_cast<std::size_t>(plan.num_slots));
    for (const auto& [slot, value] : plan.seeded) {
        ws.slots[static_cast<std::size_t>(slot)] = value;
    }
    for (const auto& [id, slot] : plan.placeholders) {
        auto fed = feeds.find(id);
        if (fed == feeds.end()) {
            throw std::invalid_argument("runtime::Execute: placeholder '" +
                                        plan.graph->node(id).name +
                                        "' not fed");
        }
        ws.slots[static_cast<std::size_t>(slot)] = fed->second;
    }

    // Memory planner: per-run outstanding-consumer counts, seeded from
    // the plan's liveness analysis.
    const std::size_t total = plan.steps.size();
    if (context.memory_planning && total > 0) {
        ws.remaining = std::make_unique<std::atomic<std::int32_t>[]>(total);
        for (std::size_t i = 0; i < total; ++i) {
            ws.remaining[i].store(plan.consumer_count[i],
                                  std::memory_order_relaxed);
        }
    }

    const std::size_t lanes =
        static_cast<std::size_t>(std::max(context.inter_op_threads, 1));
    const std::size_t width = std::min(lanes, total);
    if (width > 1) {
        if (telemetry::MetricsEnabled()) {
            ExecutorMetrics::Get().parallel_steps.Add(1);
        }
        RunParallel(ws, width);
    } else {
        for (std::size_t seq = 0; seq < total; ++seq) {
            RunStep(ws, seq, /*lane=*/0);
            ReleaseDead(ws, seq);
        }
    }

    std::vector<Tensor> results;
    results.reserve(plan.fetches.size());
    for (const auto& [id, slot] : plan.fetches) {
        if (slot == ExecutionPlan::kNoSlot ||
            !ws.slots[static_cast<std::size_t>(slot)].initialized()) {
            throw std::logic_error("runtime::Execute: fetch of '" +
                                   plan.graph->node(id).name +
                                   "' produced no value");
        }
        results.push_back(ws.slots[static_cast<std::size_t>(slot)]);
    }
    return results;
}

}  // namespace fathom::runtime
