/**
 * @file
 * Reproduces Figure 6: the effect of Amdahl's law at the application
 * level — absolute time per op type as intra-op parallelism grows,
 * for deepq (6a), seq2seq (6b), and memnet (6c).
 *
 * Thread counts are swept through the analytical device model over
 * per-op costs recorded from real executions (the host has one core;
 * see DESIGN.md). The kernels also genuinely run under a configurable
 * thread pool, so the recorded parallel trip counts are the real ones.
 *
 * A second sweep exercises the inter-op executor for real: each
 * workload runs training steps under inter-op x intra-op thread grids
 * and reports measured step-time speedup over the sequential executor.
 * Inter-op scheduling leaves fetched values bit-identical, so the two
 * knobs compose freely; on a multi-core host, workloads with wide
 * independent branches (memnet's attention hops, deepq's dual heads)
 * gain from inter-op threads even where skinny tensors defeat the
 * intra-op pool.
 *
 * Expected shapes from the paper:
 *  - deepq: Conv2D/MatMul shrink with threads; ApplyRMSProp (serial,
 *    data-dependent) stays flat and rises in relative share;
 *  - seq2seq: MatMul/Mul shrink; the small data-movement tail is flat;
 *  - memnet: skinny-tensor ops refuse to parallelize (trip counts
 *    below the grain threshold), so the profile barely compresses.
 */
#include <iostream>
#include <string>
#include <vector>

#include "analysis/scaling.h"
#include "core/suite.h"
#include "core/table.h"

namespace {

/** Measured post-warmup training step time under one thread config. */
double
MeasuredStepSeconds(const std::string& name, int threads,
                    int inter_op_threads)
{
    fathom::core::SuiteRunOptions options;
    options.warmup_steps = 1;
    options.train_steps = 3;
    options.infer_steps = 0;
    options.workload.execution.intra_op_threads = threads;
    options.workload.execution.inter_op_threads = inter_op_threads;
    const auto traces = fathom::core::RunAndTrace(name, options);

    double total = 0.0;
    int counted = 0;
    const auto& steps = traces.training.steps();
    for (std::size_t i = static_cast<std::size_t>(traces.warmup_steps);
         i < steps.size(); ++i) {
        total += steps[i].wall_seconds;
        ++counted;
    }
    return counted > 0 ? total / counted : 0.0;
}

}  // namespace

int
main()
{
    using namespace fathom;
    using core::ConsoleTable;
    using core::FormatDouble;
    using core::FormatPercent;

    std::cout << "=== Figure 6: per-op-type scaling with intra-op threads "
                 "===\n"
              << "clock: simulated device model over recorded op costs; "
                 "training steps\n\n";

    const std::vector<int> threads = {1, 2, 4, 8};

    for (const std::string name : {"deepq", "seq2seq", "memnet"}) {
        core::SuiteRunOptions options;
        options.warmup_steps = 1;
        options.train_steps = 4;
        options.infer_steps = 0;
        const auto traces = core::RunAndTrace(name, options);

        const auto sweep = analysis::SweepThreads(
            traces.training, traces.warmup_steps, threads);
        const auto top = analysis::TopTypes(sweep, 8);

        std::cout << "--- " << name << " ---\n";
        ConsoleTable table;
        {
            std::vector<std::string> header = {"op type"};
            for (int t : threads) {
                header.push_back("T=" + std::to_string(t) + " (ms)");
            }
            header.push_back("speedup T=8");
            table.SetHeader(header);
        }
        for (const auto& type : top) {
            const auto& series = sweep.seconds_by_type.at(type);
            std::vector<std::string> row = {type};
            for (std::size_t i = 0; i < series.size(); ++i) {
                row.push_back(FormatDouble(series[i] * 1e3, 2));
            }
            row.push_back(
                FormatDouble(series[0] / series[series.size() - 1], 2) + "x");
            table.AddRow(row);
        }
        std::cout << table.Render();

        // Amdahl at the application level: total speedup and the
        // optimizer's share at 1 vs 8 threads.
        const double total1 = sweep.TotalAt(0);
        const double total8 = sweep.TotalAt(threads.size() - 1);
        std::cout << "total: " << FormatDouble(total1 * 1e3, 2) << " ms @T=1"
                  << " -> " << FormatDouble(total8 * 1e3, 2)
                  << " ms @T=8 (speedup "
                  << FormatDouble(total1 / total8, 2) << "x)\n";
        auto share_of = [&](const std::string& type, std::size_t i) {
            auto it = sweep.seconds_by_type.find(type);
            if (it == sweep.seconds_by_type.end()) {
                return 0.0;
            }
            return it->second[i] / sweep.TotalAt(i);
        };
        for (const std::string opt :
             {"ApplyRMSProp", "ApplyGradientDescent", "ApplyMomentum",
              "ApplyAdam"}) {
            if (sweep.seconds_by_type.count(opt)) {
                std::cout << opt << " share: " << FormatPercent(share_of(opt, 0))
                          << " @T=1 -> "
                          << FormatPercent(share_of(opt, threads.size() - 1))
                          << " @T=8 (rises as parallel ops shrink)\n";
            }
        }
        std::cout << "\n";
    }

    std::cout << "Expected shape: heavy parallel ops (Conv2D, MatMul) "
                 "shrink with threads; serial,\ndata-dependent ops "
                 "(optimizers, reductions, skinny-tensor ops in memnet) "
                 "stay flat and\ngrow in relative importance — Amdahl's "
                 "law at the application level.\n\n";

    // --- Inter-op x intra-op sweep: measured wall clock -----------------
    std::cout << "=== Inter-op x intra-op executor sweep (measured wall "
                 "clock) ===\nclock: real step time, mean of 3 training "
                 "steps after 1 warmup; speedup vs\nthe sequential "
                 "executor (inter=1, intra=1). Values are bit-identical "
                 "across all\nconfigurations by construction.\n\n";

    const std::vector<int> inter_threads = {1, 2, 4};
    const std::vector<int> intra_threads = {1, 2};

    for (const std::string name : {"memnet", "deepq"}) {
        std::cout << "--- " << name << " ---\n";
        const double base = MeasuredStepSeconds(name, 1, 1);

        ConsoleTable table;
        {
            std::vector<std::string> header = {"intra \\ inter"};
            for (int inter : inter_threads) {
                header.push_back("inter=" + std::to_string(inter));
            }
            table.SetHeader(header);
        }
        double best_speedup = 1.0;
        int best_inter = 1, best_intra = 1;
        for (int intra : intra_threads) {
            std::vector<std::string> row = {"intra=" +
                                            std::to_string(intra)};
            for (int inter : inter_threads) {
                const double secs =
                    (inter == 1 && intra == 1)
                        ? base
                        : MeasuredStepSeconds(name, intra, inter);
                const double speedup = secs > 0.0 ? base / secs : 0.0;
                row.push_back(FormatDouble(secs * 1e3, 2) + " ms (" +
                              FormatDouble(speedup, 2) + "x)");
                if (speedup > best_speedup) {
                    best_speedup = speedup;
                    best_inter = inter;
                    best_intra = intra;
                }
            }
            table.AddRow(row);
        }
        std::cout << table.Render();
        std::cout << "best: " << FormatDouble(best_speedup, 2)
                  << "x at inter=" << best_inter << ", intra=" << best_intra
                  << " (single-core hosts cannot exceed ~1x; on a "
                     "multi-core host expect >= 1.3x\nfor wide-branch "
                     "workloads at inter=4)\n\n";
    }
    return 0;
}
