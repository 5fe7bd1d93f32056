/**
 * @file
 * Telemetry overhead sweep and roofline demonstration.
 *
 * Part 1 measures what observability costs: for two workloads (one
 * convolutional, one recurrent) it times training steps in three modes
 * — everything off, metrics only, metrics + tracing — interleaving the
 * modes across repetitions and keeping each mode's best time so OS
 * noise hits all modes equally. The contract under test (also asserted
 * at small shapes by test_telemetry.cc) is that the traced-off hot
 * path stays within ~2% of the fully dark one: with tracing disabled
 * the executor takes no per-op clock readings, and a disabled metric
 * mutation is one relaxed load and branch.
 *
 * Part 2 prints the per-op roofline report (analysis/roofline.h) for
 * the same workloads against the calibrated CPU device model: achieved
 * GFLOP/s, arithmetic intensity, and predicted-vs-measured ratio per
 * op class — the quantitative version of the paper's "which ops are
 * near the roof" discussion.
 */
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/roofline.h"
#include "core/suite.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace {

using namespace fathom;

struct Mode {
    const char* name;
    bool tracing;
    bool telemetry;
};

constexpr Mode kModes[] = {
    {"off", false, false},
    {"metrics", false, true},
    {"metrics+trace", true, true},
};
constexpr int kNumModes = 3;

/** One workload instance per mode, so graph/variable state is warm and
 * identical across timed repetitions. */
struct ModeRun {
    std::unique_ptr<workloads::Workload> workload;
    double best_seconds = 1e300;
};

void
SweepWorkload(const std::string& name, std::int64_t batch, int steps,
              int reps)
{
    workloads::RegisterAllWorkloads();

    ModeRun runs[kNumModes];
    for (int m = 0; m < kNumModes; ++m) {
        workloads::WorkloadConfig config;
        config.batch_size = batch;
        config.tracing = kModes[m].tracing;
        config.telemetry = kModes[m].telemetry;
        runs[m].workload =
            workloads::WorkloadRegistry::Global().Create(name);
        runs[m].workload->Setup(config);
        runs[m].workload->RunTraining(1);  // warm variables + pool.
    }

    // Interleave modes within each repetition: slow drift (thermal,
    // background load) then biases every mode the same way, and
    // min-of-reps discards the noisy repetitions entirely.
    for (int rep = 0; rep < reps; ++rep) {
        for (int m = 0; m < kNumModes; ++m) {
            // The config flags are global (tracer per-session, metrics
            // per-process): re-assert them before timing.
            runs[m].workload->session().tracer().set_enabled(
                kModes[m].tracing);
            runs[m].workload->session().tracer().Clear();
            telemetry::MetricsRegistry::set_enabled(kModes[m].telemetry);
            const auto result = runs[m].workload->RunTraining(steps);
            runs[m].best_seconds =
                std::min(runs[m].best_seconds, result.wall_seconds);
        }
    }
    telemetry::MetricsRegistry::set_enabled(false);

    const double base = runs[0].best_seconds;
    std::cout << name << " (batch " << batch << ", " << steps
              << " steps/rep, best of " << reps << "):\n";
    for (int m = 0; m < kNumModes; ++m) {
        const double overhead_pct =
            base > 0.0 ? (runs[m].best_seconds / base - 1.0) * 100.0 : 0.0;
        std::cout << "  " << std::left << std::setw(14) << kModes[m].name
                  << std::right << std::fixed << std::setprecision(2)
                  << std::setw(10) << runs[m].best_seconds * 1e3 << " ms"
                  << std::showpos << std::setw(8) << overhead_pct << "%"
                  << std::noshowpos << "\n";
    }
    std::cout << "\n";
}

void
RooflineFor(const std::string& name, std::int64_t batch, int steps)
{
    core::SuiteRunOptions options;
    options.warmup_steps = 1;
    options.train_steps = steps;
    options.infer_steps = 0;
    options.workload.batch_size = batch;
    const auto traces = core::RunAndTrace(name, options);
    const auto report = analysis::BuildRooflineReport(
        traces.training, traces.warmup_steps, runtime::DeviceSpec::Cpu(1));
    std::cout << "--- " << name << " ---\n"
              << analysis::RenderRooflineReport(report, /*max_type_rows=*/12)
              << "\n";
}

}  // namespace

int
main()
{
    std::cout << "=== telemetry overhead sweep ===\n"
              << "overhead vs all-off baseline; budget: metrics <= ~2%\n\n";
    SweepWorkload("alexnet", /*batch=*/4, /*steps=*/2, /*reps=*/5);
    SweepWorkload("seq2seq", /*batch=*/8, /*steps=*/2, /*reps=*/5);

    std::cout << "=== per-op roofline (vs modeled 1-thread CPU) ===\n"
              << "model = predicted/measured time: ~1 on model, <1 "
                 "slower than the roofline bound\n\n";
    RooflineFor("alexnet", /*batch=*/4, /*steps=*/2);
    RooflineFor("seq2seq", /*batch=*/8, /*steps=*/2);
    return 0;
}
