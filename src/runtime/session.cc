#include "runtime/session.h"

#include <chrono>
#include <sstream>

#include "graph/verify/verifier.h"
#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"

namespace fathom::runtime {

using Clock = std::chrono::steady_clock;

namespace {

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
MicrosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
}

/**
 * Session step metrics, resolved once. Scheduling-invariant: the
 * determinism tests compare them across inter-op widths.
 */
struct SessionMetrics {
    telemetry::Counter& steps;
    telemetry::Counter& ops_executed;
    telemetry::Histogram& step_us;

    static SessionMetrics&
    Get()
    {
        static SessionMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new SessionMetrics{
                r.GetCounter("session.steps"),
                r.GetCounter("session.ops_executed"),
                r.GetHistogram("session.step_us"),
            };
        }();
        return *m;
    }
};

}  // namespace

Session::Session(std::uint64_t seed, const ExecutionOptions& options)
    : rng_(seed), resources_(options)
{
}

const ExecutionPlan&
Session::GetPlan(const FeedMap& feeds, const std::vector<graph::Output>& fetches,
                 const std::vector<graph::NodeId>& targets)
{
    std::ostringstream key;
    for (const auto& f : fetches) {
        key << f.node << ":" << f.index << ",";
    }
    key << "|";
    for (graph::NodeId t : targets) {
        key << t << ",";
    }
    // Include graph size: appending nodes (e.g. building the training
    // graph after an inference run) must invalidate nothing but new
    // fetch sets still plan correctly. The rewrite switch and pattern
    // knobs also change the plan.
    const ExecutionOptions& options = resources_.options();
    key << "|" << graph_.num_nodes() << "|" << options.graph_rewrites;
    if (options.graph_rewrites) {
        key << "|" << options.rewrites.CacheKey();
    }

    auto it = plan_cache_.find(key.str());
    if (it != plan_cache_.end()) {
        return it->second;
    }

    graph::rewrite::RewriteResult rewritten;
    if (options.graph_rewrites) {
        // The rewriter may append content-addressed "__rw/..." nodes to
        // the graph; they are unreachable from user-built roots, so
        // unoptimized plans and re-rewrites are unaffected (replanning
        // converges by reusing them, keyed by name).
        // When session-level verification is on, the stronger
        // feed-seeded, liveness-checking run below subsumes the
        // rewriter's own post-condition; don't verify the plan twice.
        graph::rewrite::RewriteOptions ropts = options.rewrites;
        ropts.verify = ropts.verify && !options.verify;
        rewritten = graph::rewrite::Rewrite(graph_, fetches, targets,
                                            variables_, ropts);
    } else {
        std::vector<graph::NodeId> roots;
        roots.reserve(fetches.size() + targets.size());
        for (const auto& f : fetches) {
            roots.push_back(f.node);
        }
        roots.insert(roots.end(), targets.begin(), targets.end());
        rewritten.order = graph_.TopologicalOrder(roots);
    }
    ExecutionPlan plan = BuildPlan(graph_, std::move(rewritten), fetches);

    // Static verification of the freshly built plan: structure, types
    // (seeded from this step's feed tensors), and the aliasing/
    // liveness/determinism lints. A violation throws and caches
    // nothing, so a corrected graph replans from scratch.
    if (options.verify) {
        graph::verify::VerifyOptions vopts;
        vopts.variables = &variables_;
        for (const auto& [id, value] : feeds) {
            vopts.feed_types[id] =
                graph::verify::TypeInfo::Of(value.dtype(), value.shape());
        }
        const graph::verify::PlanFacts facts = FactsOf(plan);
        graph::verify::VerifyOrThrow(graph_, fetches, targets, vopts,
                                     &facts);
    }

    return plan_cache_.emplace(key.str(), std::move(plan)).first->second;
}

std::vector<Tensor>
Session::Run(const FeedMap& feeds, const std::vector<graph::Output>& fetches,
             const std::vector<graph::NodeId>& targets)
{
    const ExecutionPlan& plan = GetPlan(feeds, fetches, targets);

    // Allocator activity is attributed to the step as counter deltas;
    // the peak is the pool-wide live-byte high-water mark while this
    // step ran (concurrent sessions share the pool, so attribution is
    // per-process, not per-session). Input-pipeline producers allocate
    // inside a BufferPool::BackgroundScope, so batches they make while
    // the step runs are not counted as the step's requests.
    BufferPool& buffer_pool = BufferPool::Global();
    const BufferPool::Stats mem_before = buffer_pool.stats();
    buffer_pool.ResetPeak();
    auto step_memory = [&buffer_pool, &mem_before] {
        const BufferPool::Stats after = buffer_pool.stats();
        StepMemStats m;
        m.peak_bytes = after.peak_bytes;
        m.allocations = after.allocations - mem_before.allocations;
        m.fresh_allocs = after.fresh_allocs - mem_before.fresh_allocs;
        m.pool_hits = after.pool_hits - mem_before.pool_hits;
        return m;
    };

    ExecutorContext context = resources_.Context();
    context.rng = &rng_;
    context.variables = &variables_;
    context.tracer = &tracer_;

    const auto step_start = Clock::now();
    tracer_.BeginStep(plan.steps.size());
    std::vector<Tensor> results;
    try {
        results = Execute(plan, feeds, context);
    } catch (...) {
        tracer_.EndStep(SecondsSince(step_start), step_memory());
        throw;
    }
    tracer_.EndStep(SecondsSince(step_start), step_memory());

    if (telemetry::MetricsEnabled()) {
        SessionMetrics& sm = SessionMetrics::Get();
        sm.steps.Add(1);
        sm.ops_executed.Add(plan.steps.size());
        sm.step_us.Observe(MicrosSince(step_start));
    }
    return results;
}

std::vector<Tensor>
Session::RunNamed(const std::map<std::string, Tensor>& feeds,
                  const std::vector<graph::Output>& fetches,
                  const std::vector<graph::NodeId>& targets)
{
    FeedMap by_id;
    for (const auto& [name, value] : feeds) {
        by_id[graph_.node_by_name(name).id] = value;
    }
    return Run(by_id, fetches, targets);
}

}  // namespace fathom::runtime
