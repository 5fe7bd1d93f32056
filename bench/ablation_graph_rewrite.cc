/**
 * @file
 * Ablation: the graph rewrite framework (graph/rewrite), the framework
 * trait the paper lists among the convergent design decisions of
 * TF/Theano/Caffe (Sec. III-C).
 *
 * For each workload, sweeps the production patterns cumulatively —
 * as written, +constant folding, +CSE, +transpose folding,
 * +elementwise fusion, and all (adding in-place) — and reports
 * executed ops, wall time, allocator requests, and the live-byte
 * high-water mark per inference step. Results are bit-identical at
 * every point of the sweep (the test battery enforces it); the deltas
 * show where each pattern pays: CSE on seq2seq's re-projected
 * attention, fusion/in-place on the elementwise-heavy tails of every
 * model.
 *
 * Flags:
 *   --workloads=a,b,c  subset to run (default: the whole suite)
 *   --steps=N          measured inference steps per config (default 4)
 */
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/suite.h"
#include "core/table.h"
#include "graph/rewrite/rewrite.h"
#include "workloads/workload.h"

namespace {

struct SweepPoint {
    std::string label;
    bool enabled = true;  ///< graph rewrites on at all.
    fathom::graph::rewrite::RewriteOptions opts;
};

std::vector<SweepPoint>
BuildSweep()
{
    using fathom::graph::rewrite::RewriteOptions;
    RewriteOptions off;
    off.constant_folding = false;
    off.common_subexpression = false;
    off.transpose_folding = false;
    off.elementwise_fusion = false;
    off.inplace = false;

    std::vector<SweepPoint> sweep;
    sweep.push_back({"as written", false, off});
    RewriteOptions cumulative = off;
    cumulative.constant_folding = true;
    sweep.push_back({"+fold", true, cumulative});
    cumulative.common_subexpression = true;
    sweep.push_back({"+cse", true, cumulative});
    cumulative.transpose_folding = true;
    sweep.push_back({"+tfold", true, cumulative});
    cumulative.elementwise_fusion = true;
    sweep.push_back({"+fusion", true, cumulative});
    cumulative.inplace = true;
    sweep.push_back({"all (+inplace)", true, cumulative});
    return sweep;
}

struct Measurement {
    std::size_t ops = 0;
    double ms_per_step = 0.0;
    std::uint64_t allocations = 0;
    std::uint64_t peak_bytes = 0;
};

Measurement
MeasureConfig(const std::string& name, const SweepPoint& point, int steps)
{
    using namespace fathom;
    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    workloads::WorkloadConfig config;
    config.seed = 1;
    config.execution.graph_rewrites = point.enabled;
    config.execution.rewrites = point.opts;
    workload->Setup(config);

    workload->RunInference(2);  // plan + warm the buffer pool.
    const auto result = workload->RunInference(steps);

    Measurement m;
    const auto& step = workload->session().tracer().steps().back();
    m.ops = step.records.size();
    m.ms_per_step = result.wall_seconds / steps * 1e3;
    m.allocations = step.memory.allocations;
    m.peak_bytes = step.memory.peak_bytes;
    return m;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace fathom;
    using core::ConsoleTable;
    using core::FormatDouble;

    int steps = 4;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--steps=", 0) == 0) {
            steps = std::stoi(arg.substr(8));
        } else if (arg.rfind("--workloads=", 0) == 0) {
            names = core::SplitCsv(arg.substr(12));
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 1;
        }
    }
    if (names.empty()) {
        names = core::SuiteNames();
    }

    std::cout << "=== Ablation: graph rewrite framework ===\n"
              << "(cumulative pattern sweep; inference steps; all points "
                 "bit-identical)\n\n";

    workloads::RegisterAllWorkloads();
    const auto sweep = BuildSweep();

    ConsoleTable table;
    table.SetHeader({"workload", "config", "ops/step", "ms/step",
                     "allocs/step", "peak MiB"});
    int fusion_inplace_wins = 0;
    for (const auto& name : names) {
        Measurement baseline;
        Measurement with_tfold;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const Measurement m = MeasureConfig(name, sweep[i], steps);
            if (i == 0) {
                baseline = m;
            }
            if (sweep[i].label == "+tfold") {
                with_tfold = m;
            }
            if (sweep[i].label == "all (+inplace)") {
                // The fusion/in-place payoff is measured against the
                // last pre-fusion point, so folding/CSE wins don't
                // mask it: fewer kernel launches or fewer allocator
                // requests per step.
                if (m.ops < with_tfold.ops ||
                    m.allocations < with_tfold.allocations) {
                    ++fusion_inplace_wins;
                }
            }
            table.AddRow(
                {i == 0 ? name : "", sweep[i].label,
                 std::to_string(m.ops), FormatDouble(m.ms_per_step, 2),
                 std::to_string(m.allocations),
                 FormatDouble(static_cast<double>(m.peak_bytes) /
                                  (1024.0 * 1024.0),
                              1)});
        }
    }
    std::cout << table.Render() << "\n";

    std::cout << "fusion/in-place reduced per-step kernel launches or "
                 "allocator requests on "
              << fusion_inplace_wins << "/" << names.size()
              << " workloads\n\n";
    std::cout << "Profiles in the figure benches are collected with "
                 "rewrites OFF so the op mix\nreflects the model as "
                 "written (matching how the paper instruments TF graphs "
                 "before\nits internal placement/pruning); throughput "
                 "runs default them ON.\n";
    return 0;
}
