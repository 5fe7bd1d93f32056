/**
 * @file
 * Tests for the telemetry subsystem: the metrics registry and its
 * exporters, the tracer's interval-union overhead accounting, the
 * traced-off overhead budget, and the roofline report.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "analysis/roofline.h"
#include "core/suite.h"
#include "runtime/tracer.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace fathom {
namespace {

/** Turns collection on for a scope and restores "off" after. */
class ScopedMetrics {
  public:
    ScopedMetrics() { telemetry::MetricsRegistry::set_enabled(true); }
    ~ScopedMetrics() { telemetry::MetricsRegistry::set_enabled(false); }
};

TEST(TelemetryMetricsTest, CounterAccumulatesOnlyWhileEnabled)
{
    auto& registry = telemetry::MetricsRegistry::Global();
    telemetry::Counter& c = registry.GetCounter("test.counter_gating");
    c.Reset();

    telemetry::MetricsRegistry::set_enabled(false);
    c.Add(5);
    EXPECT_EQ(c.value(), 0u) << "disabled Add must be a no-op";

    {
        ScopedMetrics on;
        c.Add(5);
        c.Add();
        EXPECT_EQ(c.value(), 6u);
    }
    c.Add(100);  // disabled again.
    EXPECT_EQ(c.value(), 6u);

    // Same name returns the same object (cached references stay live).
    EXPECT_EQ(&registry.GetCounter("test.counter_gating"), &c);
}

TEST(TelemetryMetricsTest, GaugeStoresLastValue)
{
    auto& g = telemetry::MetricsRegistry::Global().GetGauge("test.gauge");
    g.Reset();
    ScopedMetrics on;
    g.Set(2.5);
    g.Set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(TelemetryMetricsTest, HistogramBucketsByLog2)
{
    auto& h =
        telemetry::MetricsRegistry::Global().GetHistogram("test.histogram");
    h.Reset();
    ScopedMetrics on;
    // bit_width: 0->bucket 0, 1->1, 2..3->2, 4..7->3, 8..15->4.
    h.Observe(0);
    h.Observe(1);
    h.Observe(2);
    h.Observe(3);
    h.Observe(7);
    h.Observe(8);

    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 6u);
    EXPECT_EQ(s.sum, 21u);
    EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[3], 1u);
    EXPECT_EQ(s.buckets[4], 1u);
    EXPECT_EQ(telemetry::HistogramSnapshot::BucketUpperBound(0), 0u);
    EXPECT_EQ(telemetry::HistogramSnapshot::BucketUpperBound(3), 7u);
    EXPECT_EQ(telemetry::HistogramSnapshot::BucketUpperBound(64),
              ~std::uint64_t{0});
}

TEST(TelemetryMetricsTest, SnapshotIsSortedAndLooksUpByName)
{
    auto& registry = telemetry::MetricsRegistry::Global();
    ScopedMetrics on;
    registry.GetCounter("test.snap_b").Reset();
    registry.GetCounter("test.snap_a").Reset();
    registry.GetCounter("test.snap_a").Add(3);
    registry.GetHistogram("test.snap_h").Reset();
    registry.GetHistogram("test.snap_h").Observe(4);

    const auto snapshot = registry.Snapshot();
    EXPECT_TRUE(std::is_sorted(
        snapshot.counters.begin(), snapshot.counters.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
    EXPECT_EQ(snapshot.CounterValue("test.snap_a"), 3u);
    EXPECT_EQ(snapshot.CounterValue("test.snap_b"), 0u);
    EXPECT_EQ(snapshot.CounterValue("test.absent"), 0u);
    EXPECT_EQ(snapshot.HistogramValue("test.snap_h").count, 1u);
    EXPECT_EQ(snapshot.HistogramValue("test.absent").count, 0u);
}

TEST(TelemetryExporterTest, JsonlEmitsOneObjectPerLine)
{
    telemetry::MetricsSnapshot snapshot;
    snapshot.counters.emplace_back("session.steps", 7);
    snapshot.gauges.emplace_back("test.g", 0.5);
    telemetry::HistogramSnapshot h;
    h.count = 2;
    h.sum = 9;
    h.buckets[1] = 1;  // value 1
    h.buckets[4] = 1;  // value 8
    snapshot.histograms.emplace_back("executor.ready_queue_depth", h);

    const std::string jsonl = telemetry::MetricsToJsonl(snapshot);
    EXPECT_NE(jsonl.find("{\"kind\":\"counter\",\"name\":\"session.steps\","
                         "\"value\":7}"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"kind\":\"gauge\""), std::string::npos);
    // Histogram buckets keyed by inclusive upper bound: 1 and 15.
    EXPECT_NE(jsonl.find("\"buckets\":{\"1\":1,\"15\":1}"),
              std::string::npos);
    // One JSON object per line, each line brace-balanced.
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
}

TEST(TelemetryExporterTest, PrometheusEmitsTypedCumulativeSeries)
{
    telemetry::MetricsSnapshot snapshot;
    snapshot.counters.emplace_back("gemm.pack_acquires", 12);
    telemetry::HistogramSnapshot h;
    h.count = 3;
    h.sum = 10;
    h.buckets[1] = 2;
    h.buckets[3] = 1;
    snapshot.histograms.emplace_back("session.step_us", h);

    const std::string prom = telemetry::MetricsToPrometheus(snapshot);
    EXPECT_NE(prom.find("# TYPE fathom_gemm_pack_acquires counter"),
              std::string::npos);
    EXPECT_NE(prom.find("fathom_gemm_pack_acquires 12"), std::string::npos);
    // Buckets are cumulative and end with +Inf = count.
    EXPECT_NE(prom.find("fathom_session_step_us_bucket{le=\"1\"} 2"),
              std::string::npos);
    EXPECT_NE(prom.find("fathom_session_step_us_bucket{le=\"7\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("fathom_session_step_us_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("fathom_session_step_us_count 3"),
              std::string::npos);
}

TEST(TelemetryTracerTest, OverheadIsStepSpanMinusIntervalUnion)
{
    runtime::StepTrace step;
    step.wall_seconds = 1.0;
    auto add = [&step](double start, double wall) {
        runtime::OpExecRecord r;
        r.start_seconds = start;
        r.wall_seconds = wall;
        step.records.push_back(r);
    };
    // Two overlapping ops [0.1, 0.5) and [0.3, 0.7), one disjoint
    // [0.8, 0.9): union = 0.7, sum = 0.9.
    add(0.1, 0.4);
    add(0.3, 0.4);
    add(0.8, 0.1);
    EXPECT_NEAR(step.OpSeconds(), 0.9, 1e-12);
    EXPECT_NEAR(step.BusySeconds(), 0.7, 1e-12);
    EXPECT_NEAR(step.OverheadSeconds(), 0.3, 1e-12);
}

TEST(TelemetryTracerTest, OverheadClampsAtZero)
{
    // Summed op time exceeding the step span used to drive the
    // historical wall - sum(op) definition negative; the union can
    // also exceed a noisy step measurement by timer granularity.
    runtime::StepTrace step;
    step.wall_seconds = 0.5;
    runtime::OpExecRecord a;
    a.start_seconds = 0.0;
    a.wall_seconds = 0.6;
    runtime::OpExecRecord b = a;  // fully concurrent duplicate.
    step.records.push_back(a);
    step.records.push_back(b);
    EXPECT_NEAR(step.OpSeconds(), 1.2, 1e-12);
    EXPECT_NEAR(step.BusySeconds(), 0.6, 1e-12);
    EXPECT_EQ(step.OverheadSeconds(), 0.0);

    runtime::StepTrace empty;
    empty.wall_seconds = 0.25;
    EXPECT_EQ(empty.BusySeconds(), 0.0);
    EXPECT_NEAR(empty.OverheadSeconds(), 0.25, 1e-12);
}

TEST(TelemetryWorkloadTest, MetricsCaptureExecutorAndAllocatorActivity)
{
    workloads::RegisterAllWorkloads();
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.ResetAll();

    workloads::WorkloadConfig config;
    config.batch_size = 2;
    config.execution.inter_op_threads = 2;
    config.telemetry = true;
    auto workload = workloads::WorkloadRegistry::Global().Create("alexnet");
    workload->Setup(config);
    workload->RunTraining(2);
    telemetry::MetricsRegistry::set_enabled(false);

    const auto snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.CounterValue("session.steps"), 2u);
    EXPECT_GT(snapshot.CounterValue("session.ops_executed"), 0u);
    EXPECT_EQ(snapshot.CounterValue("executor.parallel_steps"), 2u);
    EXPECT_GT(snapshot.CounterValue("allocator.requests"), 0u);
    // Conv layers lower onto the GEMM engine: pack buffers were
    // acquired, and the counters stay paired.
    const std::uint64_t acquires =
        snapshot.CounterValue("gemm.pack_acquires");
    EXPECT_GT(acquires, 0u);
    EXPECT_LE(snapshot.CounterValue("gemm.pack_pool_hits"), acquires);
    EXPECT_EQ(snapshot.HistogramValue("session.step_us").count, 2u);
}

TEST(TelemetryOverheadTest, MetricsOffCostsUnderBudgetVsDark)
{
    // The ISSUE's hot-path contract: with tracing off, enabling the
    // metrics registry may cost at most ~2% step time. Modes are
    // interleaved within each repetition and compared min-to-min so a
    // background hiccup cannot fail the build; a small absolute floor
    // absorbs timer quantization at these small shapes.
    workloads::RegisterAllWorkloads();

    auto make = [](bool telemetry) {
        workloads::WorkloadConfig config;
        config.batch_size = 2;
        config.tracing = false;
        config.telemetry = telemetry;
        auto w = workloads::WorkloadRegistry::Global().Create("alexnet");
        w->Setup(config);
        w->RunTraining(1);  // warm variables and the buffer pool.
        return w;
    };
    auto dark = make(false);
    auto metered = make(true);

    constexpr int kReps = 5;
    constexpr int kSteps = 2;
    double dark_best = 1e300;
    double metered_best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        telemetry::MetricsRegistry::set_enabled(false);
        dark_best =
            std::min(dark_best, dark->RunTraining(kSteps).wall_seconds);
        telemetry::MetricsRegistry::set_enabled(true);
        metered_best = std::min(metered_best,
                                metered->RunTraining(kSteps).wall_seconds);
    }
    telemetry::MetricsRegistry::set_enabled(false);

    EXPECT_LE(metered_best, dark_best * 1.02 + 1e-3)
        << "metrics-on best " << metered_best * 1e3 << " ms vs dark best "
        << dark_best * 1e3 << " ms";
}

class RooflineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RooflineTest, ReportsSaneBoundsForGemmBoundOps)
{
    const std::string name = GetParam();
    core::SuiteRunOptions options;
    options.warmup_steps = 1;
    options.train_steps = 2;
    options.infer_steps = 0;
    options.workload.batch_size = 2;
    const auto traces = core::RunAndTrace(name, options);
    const auto report = analysis::BuildRooflineReport(
        traces.training, traces.warmup_steps, runtime::DeviceSpec::Cpu(1));

    ASSERT_FALSE(report.by_class.empty());
    ASSERT_FALSE(report.by_type.empty());
    EXPECT_GT(report.total_wall_seconds, 0.0);
    EXPECT_GT(report.total_flops, 0.0);

    // Class rows partition the same records as the totals.
    double class_wall = 0.0;
    for (const auto& row : report.by_class) {
        class_wall += row.wall_seconds;
        EXPECT_GT(row.executions, 0);
    }
    EXPECT_NEAR(class_wall, report.total_wall_seconds,
                1e-9 * std::max(1.0, report.total_wall_seconds));

    // The GEMM-bound class (Convolution for the conv nets, MatrixOps
    // for the recurrent ones) must report physically sane numbers:
    // nonzero achieved GFLOP/s below any plausible CPU peak, compute
    // intensity above the elementwise ~0.1 FLOP/B floor, and a
    // model-vs-measured ratio within two orders of magnitude.
    const std::string gemm_class =
        name == "alexnet" ? "Convolution" : "MatrixOps";
    const auto it = std::find_if(
        report.by_class.begin(), report.by_class.end(),
        [&gemm_class](const auto& row) { return row.key == gemm_class; });
    ASSERT_NE(it, report.by_class.end())
        << name << " trace has no " << gemm_class << " ops";
    EXPECT_GT(it->AchievedGflops(), 0.01);
    EXPECT_LT(it->AchievedGflops(), 10000.0);
    EXPECT_GT(it->Intensity(), 0.1);
    EXPECT_GT(it->ModelRatio(), 0.01);
    EXPECT_LT(it->ModelRatio(), 100.0);

    // The renderer prints every headline quantity.
    const std::string text = analysis::RenderRooflineReport(report, 8);
    EXPECT_NE(text.find("GFLOP/s"), std::string::npos);
    EXPECT_NE(text.find("FLOP/B"), std::string::npos);
    EXPECT_NE(text.find(gemm_class), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(GemmBoundModels, RooflineTest,
                         ::testing::Values("alexnet", "seq2seq"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

}  // namespace
}  // namespace fathom
