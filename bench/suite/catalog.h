/**
 * @file
 * What bench_suite measures: its workloads and its metric catalog.
 *
 * BENCHMARK.json at the repository root names the same workloads and
 * metrics; check_smoke.py fails when the two disagree on a name, unit,
 * direction or bound.
 */
#ifndef FATHOM_BENCH_SUITE_CATALOG_H
#define FATHOM_BENCH_SUITE_CATALOG_H

#include <cstdint>
#include <string>

#include "stats.h"

namespace fathom::bench_suite {

/**
 * One workload: a Fathom model run through every phase (training and
 * inference steps on its Session, then open-loop serving of its frozen
 * plan). The three models differ in which layer dominates; see
 * README.md for why each was chosen.
 */
struct WorkloadSpec {
    const char* name;
    /** Minibatch of the training/inference steps and serving batch cap. */
    std::int64_t batch;
    /** Steps per timed window, each window 0.2 to 0.4 s. */
    int train_steps_per_window;
    int infer_steps_per_window;
    /**
     * Offered open-loop load of the latency windows, a fifth to a quarter
     * of closed-loop capacity, so that latency is service time and
     * batching delay and a slow spell of the host does not tip it into
     * queueing. At this load most batches hold one or two rows, which
     * cost nearly as much as eight, so the executor is busier than the
     * share suggests: vgg at 200 req/s (a third) ran 1.5-row batches of
     * 3 ms, busy 40% of the time, and its p90 spread by 33% between runs.
     */
    double nominal_rps;
    /**
     * Length of one latency window, 18 to 120 requests at the nominal
     * rate, and of one closed-loop capacity window, 8 or more full
     * batches. residual, whose batch of 8 takes 40 ms, needs longer ones;
     * longer still (1.2 s and 0.8 s) left it three rounds a run and its
     * step medians 11 to 20% apart between runs.
     */
    double latency_window_s;
    double capacity_window_s;
    /** The max-rate ladder: ladder_lo_rps * 1.05^k up to ladder_hi_rps. */
    double ladder_lo_rps;
    double ladder_hi_rps;
    /** p90 latency limit a ladder rung must meet. */
    double slo_ms;
    /** Training steps in the traced run's anatomy window. */
    int traced_steps;
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"seq2seq", 8, 15, 30, 300.0, 0.4, 0.25, 200.0, 1600.0, 20.0, 40},
    {"residual", 8, 3, 6, 30.0, 0.6, 0.5, 40.0, 320.0, 60.0, 10},
    {"vgg", 8, 8, 12, 100.0, 0.4, 0.25, 100.0, 1000.0, 20.0, 30},
};

inline constexpr double kLadderRatio = 1.05;
inline constexpr double kQueueDelayMs = 2.0;
/** A serve window whose generator ran later than this at p99 is redone. */
inline constexpr double kMaxLateMs = 2.0;

struct MetricSpec {
    const char* name;
    const char* unit;
    Better better;
    /** End-to-end metrics only: the share by which it may worsen. */
    double bound;
};

/**
 * Measured with tracing and telemetry off (--trace 0). A bound must hold
 * the quartile spread of ten runs of the same code. On a shared 4-vCPU
 * host whose speed drifts by 15% over minutes, timing spreads reached
 * 15 to 20%, so every timing bound is 25%; README.md gives the spreads.
 * A run-to-run spread wider than its bound makes --compare say
 * "unresolved".
 */
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", Better::kLower, 0.25},
    {"train_step_ms_p50", "ms", Better::kLower, 0.25},
    {"infer_step_ms_p50", "ms", Better::kLower, 0.25},
    {"latency_ms_p50", "ms", Better::kLower, 0.25},
    {"latency_ms_p90", "ms", Better::kLower, 0.25},
    {"serve_capacity_rps", "1/s", Better::kHigher, 0.25},
    {"peak_rss_mb", "MB", Better::kLower, 0.05},
};

/**
 * Measured in a separate run with tracing and telemetry on (--trace 1).
 * Those in unit "count" repeat exactly from run to run, so --compare
 * reports them as equal or changed instead of judging a spread.
 */
inline constexpr MetricSpec kPerLayer[] = {
    {"runtime.ops_per_step", "count", Better::kLower, 0},
    {"runtime.framework_ms_per_step", "ms", Better::kLower, 0},
    {"runtime.framework_frac", "fraction", Better::kLower, 0},
    {"runtime.first_run_ms", "ms", Better::kLower, 0},
    {"kernels.matrix_ms_per_step", "ms", Better::kLower, 0},
    {"kernels.conv_frac", "fraction", Better::kLower, 0},
    {"kernels.elementwise_ms_per_step", "ms", Better::kLower, 0},
    {"kernels.reduction_ms_per_step", "ms", Better::kLower, 0},
    {"kernels.other_ms_per_step", "ms", Better::kLower, 0},
    {"kernels.matrix_gflops", "GFLOP/s", Better::kHigher, 0},
    {"kernels.conv_gflops", "GFLOP/s", Better::kHigher, 0},
    {"kernels.gemm_pack_hit_frac", "fraction", Better::kHigher, 0},
    {"allocator.requests_per_step", "count", Better::kLower, 0},
    {"allocator.fresh_per_step", "count", Better::kLower, 0},
    {"allocator.peak_mb", "MB", Better::kLower, 0},
    {"pipeline.stall_ms_per_step", "ms", Better::kLower, 0},
    {"pipeline.produce_ms_per_batch", "ms", Better::kLower, 0},
    {"graph.verify_ms", "ms", Better::kLower, 0},
    {"graph.rewrite_fires", "count", Better::kHigher, 0},
    {"serving.freeze_ms", "ms", Better::kLower, 0},
    {"serving.plan_steps", "count", Better::kLower, 0},
    {"serving.serve_batch_ms_b1", "ms", Better::kLower, 0},
    {"serving.serve_batch_ms_b8", "ms", Better::kLower, 0},
    {"serving.queue_ms_p50", "ms", Better::kLower, 0},
    {"serving.exec_ms_p50", "ms", Better::kLower, 0},
    {"serving.batch_size_mean", "rows", Better::kHigher, 0},
    {"serving.padded_rows_frac", "fraction", Better::kLower, 0},
    {"serving.latency_ms_p99", "ms", Better::kLower, 0},
    {"serving.max_rps_at_slo", "1/s", Better::kHigher, 0},
    {"loadgen.late_ms_p99", "ms", Better::kLower, 0},
    {"loadgen.achieved_rps", "1/s", Better::kHigher, 0},
    {"trace.overhead_frac", "fraction", Better::kLower, 0},
};

/** Failures over attempts; judged with an absolute bound of 0. */
inline constexpr const char* kFailedFrac = "failed_frac";

/** @return the workload named @p name, or nullptr. */
inline const WorkloadSpec*
FindWorkload(const std::string& name)
{
    for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_CATALOG_H
