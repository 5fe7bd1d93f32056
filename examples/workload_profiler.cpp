/**
 * @file
 * Command-line workload profiler — the "standard interface" in action:
 * any of the eight Fathom models can be trained, inferred, and
 * profiled with identical invocations.
 *
 *   $ ./workload_profiler                      # list workloads
 *   $ ./workload_profiler alexnet              # train + profile
 *   $ ./workload_profiler seq2seq --mode infer --steps 8
 *   $ ./workload_profiler memnet --threads 4   # simulated scaling too
 *   $ ./workload_profiler vgg --dot vgg.dot --trace vgg.json
 *     # graph for Graphviz, timeline for chrome://tracing / Perfetto
 */
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/export.h"
#include "analysis/op_profile.h"
#include "analysis/scaling.h"
#include "analysis/stationarity.h"
#include "core/suite.h"
#include "core/table.h"

using namespace fathom;

namespace {

void
Usage()
{
    std::printf("usage: workload_profiler <name> [--mode train|infer] "
                "[--steps N] [--threads T] [--inter-op-threads T]\n\n"
                "workloads:\n");
    for (const auto& name : core::SuiteNames()) {
        auto w = workloads::WorkloadRegistry::Global().Create(name);
        std::printf("  %-9s %s\n", name.c_str(), w->description().c_str());
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    workloads::RegisterAllWorkloads();
    if (argc < 2) {
        Usage();
        return 0;
    }
    const std::string name = argv[1];
    std::string mode = "train";
    std::string dot_path;
    std::string trace_path;
    int steps = 6;
    int threads = 1;
    int inter_op_threads = 1;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--mode") == 0) {
            mode = argv[i + 1];
        } else if (std::strcmp(argv[i], "--steps") == 0) {
            steps = std::atoi(argv[i + 1]);
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            threads = std::atoi(argv[i + 1]);
        } else if (std::strcmp(argv[i], "--inter-op-threads") == 0) {
            inter_op_threads = std::atoi(argv[i + 1]);
        } else if (std::strcmp(argv[i], "--dot") == 0) {
            dot_path = argv[i + 1];
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace_path = argv[i + 1];
        } else {
            std::printf("unknown flag %s\n", argv[i]);
            return 1;
        }
    }

    std::unique_ptr<workloads::Workload> workload;
    try {
        workload = workloads::WorkloadRegistry::Global().Create(name);
    } catch (const std::out_of_range&) {
        std::printf("unknown workload '%s'\n\n", name.c_str());
        Usage();
        return 1;
    }

    workloads::WorkloadConfig config;
    config.seed = 1;
    config.execution.intra_op_threads = threads;
    config.execution.inter_op_threads = inter_op_threads;
    workload->Setup(config);
    std::printf("%s: %s\n", workload->name().c_str(),
                workload->description().c_str());
    std::printf("style=%s layers=%d task=%s dataset=%s parameters=%lld "
                "graph-nodes=%d\n\n",
                workload->neuronal_style().c_str(), workload->num_layers(),
                workload->learning_task().c_str(),
                workload->dataset().c_str(),
                static_cast<long long>(workload->num_parameters()),
                workload->session().graph().num_nodes());

    const auto result = mode == "infer" ? workload->RunInference(steps)
                                        : workload->RunTraining(steps);
    std::printf("%s: %d steps in %.3f s (%.1f ms/step)",
                mode.c_str(), result.steps, result.wall_seconds,
                1e3 * result.wall_seconds / result.steps);
    if (mode == "train") {
        std::printf(", final loss %.4f", result.final_loss);
    }
    std::printf("\n\n");

    const auto profile = analysis::WallProfile(workload->session().tracer(),
                                               /*skip_steps=*/1);
    core::ConsoleTable table;
    table.SetHeader({"op type", "class", "share"});
    int shown = 0;
    for (const auto& [type, fraction] : profile.SortedFractions()) {
        if (fraction < 0.01 || shown++ >= 12) {
            break;
        }
        const auto& classes = profile.type_classes();
        const auto it = classes.find(type);
        const std::string class_name =
            it == classes.end() ? "" : graph::OpClassName(it->second);
        table.AddRow({type, class_name, core::FormatPercent(fraction)});
    }
    std::printf("%s", table.Render().c_str());

    const double overhead = analysis::FrameworkOverheadFraction(
        workload->session().tracer(), 1);
    std::printf("\nframework overhead outside kernels: %s\n",
                core::FormatPercent(overhead, 2).c_str());

    if (!workload->session().tracer().steps().empty()) {
        const auto& mem = workload->session().tracer().steps().back().memory;
        std::printf("memory (last step): peak %.2f MB, %llu allocations "
                    "(%llu fresh, %llu pool hits)\n",
                    static_cast<double>(mem.peak_bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(mem.allocations),
                    static_cast<unsigned long long>(mem.fresh_allocs),
                    static_cast<unsigned long long>(mem.pool_hits));
    }

    // Simulated scaling summary (the Fig. 6 methodology on this trace).
    const auto sweep = analysis::SweepThreads(workload->session().tracer(),
                                              1, {1, 2, 4, 8});
    std::printf("simulated scaling: %.2fx at 8 threads (device model)\n",
                sweep.TotalAt(0) / sweep.TotalAt(3));

    if (!dot_path.empty()) {
        analysis::WriteFile(
            dot_path, analysis::GraphToDot(workload->session().graph()));
        std::printf("wrote dataflow graph to %s (render with `dot -Tsvg`)\n",
                    dot_path.c_str());
    }
    if (!trace_path.empty()) {
        analysis::WriteFile(
            trace_path,
            analysis::TraceToChromeJson(workload->session().tracer()));
        std::printf("wrote execution timeline to %s (open in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    trace_path.c_str());
    }
    return 0;
}
