/**
 * @file
 * Static-verification overhead sweep.
 *
 * Measures what the plan-build verifier costs where it actually runs:
 * session construction (Setup + the first training step, whose plan
 * cache miss triggers structural validation, whole-graph shape/dtype
 * inference, and the aliasing/liveness/determinism lints). For one
 * convolutional and one recurrent workload it interleaves
 * verification-off and verification-on constructions across
 * repetitions and keeps each mode's best time, so OS noise hits both
 * modes equally. The budget (asserted at small shapes by
 * test_graph_verify.cc's VerifyOverheadTest) is <= ~1% — verification
 * is a one-time per-plan cost, amortized to nothing across steps.
 */
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>

#include "workloads/workload.h"

namespace {

using namespace fathom;

double
ConstructSeconds(const std::string& name, std::int64_t batch, bool verify)
{
    workloads::WorkloadConfig config;
    config.batch_size = batch;
    config.tracing = false;
    config.execution.verify = verify;
    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    const auto start = std::chrono::steady_clock::now();
    workload->Setup(config);
    workload->RunTraining(1);  // first plan build: the verify site.
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

void
SweepWorkload(const std::string& name, std::int64_t batch, int reps)
{
    double off_best = 1e300;
    double on_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        off_best = std::min(off_best,
                            ConstructSeconds(name, batch, /*verify=*/false));
        on_best = std::min(on_best,
                           ConstructSeconds(name, batch, /*verify=*/true));
    }
    const double overhead_pct =
        off_best > 0.0 ? (on_best / off_best - 1.0) * 100.0 : 0.0;
    std::cout << name << " (batch " << batch << ", best of " << reps
              << "):\n"
              << std::fixed << std::setprecision(2) << "  verify off  "
              << std::setw(10) << off_best * 1e3 << " ms\n"
              << "  verify on   " << std::setw(10) << on_best * 1e3
              << " ms" << std::showpos << std::setw(8) << overhead_pct
              << "%" << std::noshowpos << "\n\n";
}

}  // namespace

int
main()
{
    workloads::RegisterAllWorkloads();
    // Warm code paths and the allocator before timing anything.
    ConstructSeconds("alexnet", 2, true);

    std::cout << "=== static-verification overhead sweep ===\n"
              << "session construction (setup + first plan build); "
                 "budget: <= ~1%\n\n";
    SweepWorkload("alexnet", /*batch=*/4, /*reps=*/5);
    SweepWorkload("seq2seq", /*batch=*/8, /*reps=*/5);
    return 0;
}
