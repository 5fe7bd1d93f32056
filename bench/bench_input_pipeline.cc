/**
 * @file
 * Input-pipeline sweep: prefetch depth x producer threads x workload.
 *
 * For each configuration this runs training steps with the workload's
 * input pipeline at the given prefetch depth and producer count and
 * reports, per step: wall time, batch-materialization time
 * (pipeline.produce_us), and consumer stall time (pipeline.stall_us —
 * the time Next() spent waiting for a batch that was not ready). The
 * overlap column is the fraction of materialization work hidden
 * behind step execution: 1 - stall/produce. Depth 0 is the inline
 * baseline (the historical synchronous behavior, overlap 0 by
 * construction); the speedup column compares each configuration's
 * step time against that baseline.
 *
 * The tentpole claim this bench measures: at depth >= 2 the stall
 * column collapses toward zero and the data-heavy workloads (speech,
 * seq2seq, memnet) take a measurable end-to-end step-time win, while
 * fetched values stay bit-identical at every point of the sweep (the
 * pipeline test battery asserts that part).
 *
 *   bench_input_pipeline --workloads speech,seq2seq,memnet,alexnet \
 *       --steps 8 --depths 0,1,2,4 --producers 1,2 --out-dir bench_out
 *
 * --out-dir writes the results table (pipeline_table.txt) and the
 * per-configuration pipeline metrics (metrics.jsonl) as CI artifacts.
 */
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace {

using namespace fathom;

struct Options {
    std::vector<std::string> workloads = {"alexnet", "speech", "seq2seq",
                                          "memnet"};
    std::vector<int> depths = {0, 1, 2, 4};
    std::vector<int> producers = {1, 2};
    int steps = 8;
    int warmup = 2;
    std::string out_dir;
};

Options
ParseArgs(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--workloads") {
            options.workloads = core::SplitCsv(next());
        } else if (arg == "--depths") {
            options.depths.clear();
            for (const auto& v : core::SplitCsv(next())) {
                options.depths.push_back(std::stoi(v));
            }
        } else if (arg == "--producers") {
            options.producers.clear();
            for (const auto& v : core::SplitCsv(next())) {
                options.producers.push_back(std::stoi(v));
            }
        } else if (arg == "--steps") {
            options.steps = std::stoi(next());
        } else if (arg == "--warmup") {
            options.warmup = std::stoi(next());
        } else if (arg == "--out-dir") {
            options.out_dir = next();
        } else {
            throw std::runtime_error("unknown argument: " + arg);
        }
    }
    return options;
}

struct ConfigResult {
    std::string workload;
    int depth = 0;
    int producers = 0;
    double step_ms = 0.0;     ///< mean wall time per training step.
    double produce_ms = 0.0;  ///< batch materialization per step.
    double stall_ms = 0.0;    ///< consumer wait per step.
    double overlap = 0.0;     ///< fraction of produce time hidden.
    double speedup = 0.0;     ///< step time vs the depth-0 baseline.
};

ConfigResult
RunConfig(const std::string& name, int depth, int producers, int steps,
          int warmup, std::ostream* jsonl)
{
    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    workloads::WorkloadConfig config;
    config.seed = 42;
    config.tracing = false;
    config.telemetry = true;
    config.prefetch_depth = depth;
    config.producer_threads = producers;
    workload->Setup(config);

    // Warm variables, buffer pools, and pack caches outside the
    // timed region (also lets deepq seed its replay buffer).
    if (warmup > 0) {
        workload->RunTraining(warmup);
    }

    telemetry::MetricsRegistry::Global().ResetAll();
    const auto result = workload->RunTraining(steps);
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    telemetry::MetricsRegistry::set_enabled(false);

    if (jsonl != nullptr) {
        *jsonl << "{\"kind\":\"config\",\"workload\":\"" << name
               << "\",\"depth\":" << depth
               << ",\"producers\":" << producers << "}\n"
               << telemetry::MetricsToJsonl(snapshot);
    }

    const auto produce = snapshot.HistogramValue("pipeline.produce_us");
    const auto stall = snapshot.HistogramValue("pipeline.stall_us");

    ConfigResult r;
    r.workload = name;
    r.depth = depth;
    r.producers = producers;
    r.step_ms = result.wall_seconds / static_cast<double>(steps) * 1e3;
    r.produce_ms = static_cast<double>(produce.sum) /
                   static_cast<double>(steps) * 1e-3;
    r.stall_ms =
        static_cast<double>(stall.sum) / static_cast<double>(steps) * 1e-3;
    r.overlap = produce.sum > 0
                    ? 1.0 - static_cast<double>(stall.sum) /
                                static_cast<double>(produce.sum)
                    : 0.0;
    r.overlap = std::max(0.0, std::min(1.0, r.overlap));
    return r;
}

void
PrintTable(std::ostream& os, const std::vector<ConfigResult>& results)
{
    os << std::left << std::setw(10) << "workload" << std::right
       << std::setw(7) << "depth" << std::setw(11) << "producers"
       << std::setw(11) << "step_ms" << std::setw(12) << "produce_ms"
       << std::setw(10) << "stall_ms" << std::setw(9) << "overlap"
       << std::setw(9) << "speedup" << "\n";
    os << std::string(79, '-') << "\n";
    for (const auto& r : results) {
        os << std::left << std::setw(10) << r.workload << std::right
           << std::setw(7) << r.depth << std::setw(11) << r.producers
           << std::setw(11) << std::fixed << std::setprecision(2)
           << r.step_ms << std::setw(12) << std::setprecision(3)
           << r.produce_ms << std::setw(10) << r.stall_ms << std::setw(9)
           << std::setprecision(2) << r.overlap << std::setw(8)
           << r.speedup << "x\n";
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    try {
        options = ParseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "bench_input_pipeline: " << e.what() << "\n";
        return 2;
    }

    workloads::RegisterAllWorkloads();

    std::ofstream jsonl_file;
    std::ostream* jsonl = nullptr;
    if (!options.out_dir.empty()) {
        jsonl_file.open(options.out_dir + "/metrics.jsonl");
        if (!jsonl_file) {
            std::cerr << "bench_input_pipeline: cannot write to "
                      << options.out_dir
                      << " (create the directory first)\n";
            return 2;
        }
        jsonl = &jsonl_file;
    }

    std::vector<ConfigResult> results;
    for (const auto& name : options.workloads) {
        double baseline_ms = 0.0;
        for (const int depth : options.depths) {
            for (const int producers : options.producers) {
                // Producer count is meaningless inline; run depth 0
                // once per workload.
                if (depth == 0 && producers != options.producers.front()) {
                    continue;
                }
                auto r = RunConfig(name, depth, depth == 0 ? 0 : producers,
                                   options.steps, options.warmup, jsonl);
                if (depth == 0) {
                    baseline_ms = r.step_ms;
                }
                r.speedup = r.step_ms > 0.0 && baseline_ms > 0.0
                                ? baseline_ms / r.step_ms
                                : 0.0;
                results.push_back(r);
                std::cerr << name << " depth=" << r.depth
                          << " producers=" << r.producers << " step_ms="
                          << std::fixed << std::setprecision(2) << r.step_ms
                          << " stall_ms=" << std::setprecision(3)
                          << r.stall_ms << "\n";
            }
        }
    }

    std::cout << "\n";
    PrintTable(std::cout, results);

    // The tentpole claim, stated by the bench itself: the best
    // prefetch configuration against the inline baseline per workload.
    std::cout << "\nPrefetch vs inline baseline (best configuration):\n";
    for (const auto& base : results) {
        if (base.depth != 0) {
            continue;
        }
        const ConfigResult* best = nullptr;
        for (const auto& r : results) {
            if (r.workload == base.workload && r.depth > 0 &&
                (best == nullptr || r.step_ms < best->step_ms)) {
                best = &r;
            }
        }
        if (best != nullptr) {
            std::cout << "  " << base.workload << ": " << std::fixed
                      << std::setprecision(2) << base.step_ms << " -> "
                      << best->step_ms << " ms/step (" << best->speedup
                      << "x, depth " << best->depth << ", "
                      << best->producers << " producers, stall "
                      << std::setprecision(3) << best->stall_ms
                      << " ms)\n";
        }
    }

    if (!options.out_dir.empty()) {
        std::ofstream table(options.out_dir + "/pipeline_table.txt");
        PrintTable(table, results);
    }
    return 0;
}
