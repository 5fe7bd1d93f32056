/**
 * @file
 * Concurrency and determinism tests for the telemetry subsystem.
 *
 * The metrics registry must take updates from any thread without
 * losing counts (the TSan CI job runs these under `ctest -L
 * concurrency`), the executor must attribute concurrent ops to
 * distinct worker lanes with genuinely overlapping timestamps, and the
 * deterministic observables — canonical trace order and the
 * scheduling-invariant metric subset — must be identical across
 * inter-op widths 1/2/4.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "telemetry/metrics.h"

namespace fathom {
namespace {

using graph::Output;

TEST(TelemetryConcurrentTest, RegistryHammeredFromManyThreadsLosesNothing)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    auto& registry = telemetry::MetricsRegistry::Global();
    telemetry::MetricsRegistry::set_enabled(true);
    telemetry::Counter& shared = registry.GetCounter("test.hammer_shared");
    telemetry::Histogram& hist = registry.GetHistogram("test.hammer_hist");
    shared.Reset();
    hist.Reset();

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &registry, &shared, &hist] {
            // Mix pre-resolved references with registry lookups so the
            // create-or-get path itself races too.
            telemetry::Counter& own = registry.GetCounter(
                "test.hammer_own_" + std::to_string(t));
            own.Reset();
            for (int i = 0; i < kPerThread; ++i) {
                shared.Add(1);
                own.Add(1);
                hist.Observe(static_cast<std::uint64_t>(i % 128));
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    telemetry::MetricsRegistry::set_enabled(false);

    EXPECT_EQ(shared.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    const auto snapshot = registry.Snapshot();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(snapshot.CounterValue("test.hammer_own_" +
                                        std::to_string(t)),
                  static_cast<std::uint64_t>(kPerThread));
    }
    const auto h = snapshot.HistogramValue("test.hammer_hist");
    EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

/**
 * Rendezvous state for the overlap test: each of the two kernels
 * arrives, wakes the other, and only returns once both have arrived —
 * so their traced [start, end) intervals MUST overlap and the inter-op
 * executor MUST have dispatched them on two different lanes (a single
 * lane running one of them could never complete it).
 */
struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;

    void
    ArriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        cv.wait(lock, [this] { return arrived >= 2; });
    }

    static Rendezvous&
    Get()
    {
        static Rendezvous r;
        return r;
    }
};

void
RegisterRendezvousOp()
{
    static std::once_flag once;
    std::call_once(once, [] {
        graph::OpRegistry::Global().Register(graph::OpDef{
            "TestRendezvous", graph::OpClass::kElementwise,
            [](graph::OpContext& ctx) {
                Rendezvous::Get().ArriveAndWait();
                ctx.set_output(0, ctx.input(0));
            },
            nullptr, false});
        // Custom ops need a shape fn or the plan-build verifier flags
        // them; the rendezvous op passes its input through unchanged.
        graph::verify::ShapeFnRegistry::Global().Register(
            "TestRendezvous", [](graph::verify::InferenceContext& ctx) {
                ctx.set_output(0, ctx.input(0));
            });
    });
}

TEST(TelemetryConcurrentTest, ConcurrentOpsOverlapOnDistinctWorkerLanes)
{
    ops::RegisterStandardOps();
    RegisterRendezvousOp();
    Rendezvous::Get().arrived = 0;

    // As written: each rendezvous op must run as its own step.
    runtime::Session session(
        1, {.inter_op_threads = 2, .graph_rewrites = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const graph::NodeId r1 = b.AddNode("r1", "TestRendezvous", {x});
    const graph::NodeId r2 = b.AddNode("r2", "TestRendezvous", {x});
    const Output y = b.Add(Output{r1, 0}, Output{r2, 0});

    Tensor feed(DType::kFloat32, Shape{16});
    feed.Fill(1.0f);
    runtime::FeedMap feeds;
    feeds[x.node] = feed;
    session.Run(feeds, {y});

    const runtime::StepTrace& step = session.tracer().steps().back();
    const runtime::OpExecRecord* rec1 = nullptr;
    const runtime::OpExecRecord* rec2 = nullptr;
    for (const auto& r : step.records) {
        if (r.op_type == "TestRendezvous") {
            (rec1 == nullptr ? rec1 : rec2) = &r;
        }
    }
    ASSERT_NE(rec1, nullptr);
    ASSERT_NE(rec2, nullptr);

    // Dispatched on two different executor lanes...
    EXPECT_NE(rec1->worker, rec2->worker);
    // ...with genuinely overlapping [start, end) intervals.
    const double overlap_start =
        std::max(rec1->start_seconds, rec2->start_seconds);
    const double overlap_end =
        std::min(rec1->start_seconds + rec1->wall_seconds,
                 rec2->start_seconds + rec2->wall_seconds);
    EXPECT_LT(overlap_start, overlap_end)
        << "rendezvous ops did not overlap: [" << rec1->start_seconds
        << ", " << rec1->start_seconds + rec1->wall_seconds << ") vs ["
        << rec2->start_seconds << ", "
        << rec2->start_seconds + rec2->wall_seconds << ")";

    // The union-based accounting stays sane in the presence of
    // overlap: busy <= sum, overhead clamped non-negative.
    EXPECT_LE(step.BusySeconds(), step.OpSeconds() + 1e-12);
    EXPECT_GE(step.OverheadSeconds(), 0.0);

    // Canonical order is preserved even though completion order is
    // scheduling-dependent.
    std::int64_t prev = -1;
    for (const auto& r : step.records) {
        EXPECT_LT(prev, r.seq);
        prev = r.seq;
    }
}

/** (seq, node, op_type) — the scheduling-invariant part of a record. */
using CanonicalRecord = std::tuple<std::int64_t, graph::NodeId, std::string>;

TEST(TelemetryConcurrentTest, DeterministicObservablesMatchAcrossWidths)
{
    ops::RegisterStandardOps();

    // A diamond of matmul branches: enough independent work for the
    // executor to schedule differently at each width.
    auto run_width = [](int width) {
        telemetry::MetricsRegistry::Global().ResetAll();
        telemetry::MetricsRegistry::set_enabled(true);

        runtime::Session session(/*seed=*/7, {.inter_op_threads = width});
        session.tracer().set_enabled(true);
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output m1 = b.MatMul(x, x);
        const Output m2 = b.MatMul(b.Relu(x), x);
        const Output m3 = b.MatMul(x, b.Tanh(x));
        const Output y = b.MatMul(b.Add(b.Add(m1, m2), m3), x);

        Tensor feed(DType::kFloat32, Shape{48, 48});
        feed.Fill(0.01f);
        runtime::FeedMap feeds;
        feeds[x.node] = feed;
        for (int step = 0; step < 3; ++step) {
            session.Run(feeds, {y});
        }

        std::vector<std::vector<CanonicalRecord>> trace;
        for (const auto& step : session.tracer().steps()) {
            std::vector<CanonicalRecord> records;
            for (const auto& r : step.records) {
                records.emplace_back(r.seq, r.node, r.op_type);
            }
            trace.push_back(std::move(records));
        }
        const auto snapshot =
            telemetry::MetricsRegistry::Global().Snapshot();
        telemetry::MetricsRegistry::set_enabled(false);
        return std::make_tuple(
            trace, snapshot.CounterValue("session.steps"),
            snapshot.CounterValue("session.ops_executed"),
            snapshot.CounterValue("gemm.pack_acquires"));
    };

    const auto base = run_width(1);
    EXPECT_EQ(std::get<1>(base), 3u);
    EXPECT_GT(std::get<2>(base), 0u);
    EXPECT_GT(std::get<3>(base), 0u) << "matmuls must hit the GEMM engine";
    for (int width : {2, 4}) {
        const auto got = run_width(width);
        // Canonical trace: same steps, same records, same order.
        EXPECT_EQ(std::get<0>(got), std::get<0>(base))
            << "canonical trace diverged at inter-op width " << width;
        // Scheduling-invariant metric subset. (Busy/idle time, queue
        // depth, and pool hit rates are genuinely width-dependent and
        // intentionally excluded.)
        EXPECT_EQ(std::get<1>(got), std::get<1>(base));
        EXPECT_EQ(std::get<2>(got), std::get<2>(base));
        EXPECT_EQ(std::get<3>(got), std::get<3>(base));
    }
}

}  // namespace
}  // namespace fathom
