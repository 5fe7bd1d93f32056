/**
 * @file
 * Reproduces Figure 3: breakdown of execution time by operation class
 * for each Fathom workload (the heatmap), plus the per-op-type detail
 * behind it.
 *
 * Expected shapes from the paper:
 *  - conv nets (alexnet/vgg/residual/deepq) dominated by Convolution;
 *  - the FC share *shrinks* across alexnet -> vgg -> residual
 *    (the ILSVRC longitudinal comparison of Sec. V-B);
 *  - speech almost entirely MatMul plus the CTC loss;
 *  - seq2seq shows LSTM elementwise arithmetic and attention
 *    data movement;
 *  - autoenc shows a visible RandomSampling component.
 *
 * Telemetry flags (all optional; defaults reproduce the figure only):
 *   --telemetry-dir DIR  also collect metrics and write, per workload,
 *                        DIR/<name>.trace.json (Chrome trace),
 *                        DIR/<name>.metrics.jsonl, and
 *                        DIR/<name>.metrics.prom.
 *   --steps N            traced training steps (default 4).
 *   --workloads a,b,c    subset of suite names (default: all).
 */
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/op_profile.h"
#include "core/suite.h"
#include "core/table.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"

int
main(int argc, char** argv)
{
    using namespace fathom;
    using core::ConsoleTable;
    using core::FormatPercent;
    using graph::AllOpClasses;
    using graph::OpClass;
    using graph::OpClassName;

    std::string telemetry_dir;
    int train_steps = 4;
    std::vector<std::string> names = core::SuiteNames();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--telemetry-dir") {
            telemetry_dir = value();
        } else if (arg == "--steps") {
            train_steps = std::stoi(value());
        } else if (arg == "--workloads") {
            names = core::SplitCsv(value());
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        }
    }

    std::cout << "=== Figure 3: execution-time breakdown by op class ===\n"
              << "clock: wall (single CPU core); training profiles; rows "
                 "sum to ~100% (Control excluded)\n\n";

    core::SuiteRunOptions options;
    options.warmup_steps = 1;
    options.train_steps = train_steps;
    options.infer_steps = 0;
    options.workload.telemetry = !telemetry_dir.empty();
    if (!telemetry_dir.empty()) {
        std::filesystem::create_directories(telemetry_dir);
    }

    ConsoleTable table;
    {
        std::vector<std::string> header = {"workload"};
        for (OpClass c : AllOpClasses()) {
            if (c == OpClass::kControl) {
                continue;
            }
            header.push_back(OpClassName(c));
        }
        table.SetHeader(header);
    }

    std::vector<std::pair<std::string, analysis::OpProfile>> profiles;
    for (const auto& name : names) {
        if (!telemetry_dir.empty()) {
            telemetry::MetricsRegistry::Global().ResetAll();
        }
        const auto traces = core::RunAndTrace(name, options);
        profiles.emplace_back(
            name, analysis::WallProfile(traces.training,
                                        traces.warmup_steps));
        if (!telemetry_dir.empty()) {
            const auto snapshot =
                telemetry::MetricsRegistry::Global().Snapshot();
            const std::string base = telemetry_dir + "/" + name;
            analysis::WriteFile(base + ".trace.json",
                                analysis::TraceToChromeJson(traces.training));
            analysis::WriteFile(base + ".metrics.jsonl",
                                telemetry::MetricsToJsonl(snapshot));
            analysis::WriteFile(base + ".metrics.prom",
                                telemetry::MetricsToPrometheus(snapshot));
            std::cout << "[telemetry] wrote " << base
                      << ".{trace.json,metrics.jsonl,metrics.prom}\n";
        }
    }

    for (const auto& [name, profile] : profiles) {
        std::vector<std::string> row = {name};
        for (OpClass c : AllOpClasses()) {
            if (c == OpClass::kControl) {
                continue;
            }
            const double f = profile.ClassFraction(c);
            row.push_back(f >= 0.005 ? FormatPercent(f) : ".");
        }
        table.AddRow(row);
    }
    std::cout << table.Render() << "\n";

    // Per-op-type detail (>= 1% of time, as the paper's heatmap).
    std::cout << "--- per-op-type detail (>= 1% of workload time) ---\n";
    for (const auto& [name, profile] : profiles) {
        std::cout << name << ": ";
        bool first = true;
        for (const auto& [type, fraction] : profile.SortedFractions()) {
            if (fraction < 0.01) {
                break;
            }
            std::cout << (first ? "" : ", ") << type << " "
                      << FormatPercent(fraction);
            first = false;
        }
        std::cout << "\n";
    }

    // The Sec. V-B longitudinal claim: FC time share falls across the
    // ILSVRC winners alexnet -> vgg -> residual.
    std::cout << "\n--- Sec. V-B longitudinal comparison (ILSVRC winners) "
                 "---\n";
    for (const auto& [name, profile] : profiles) {
        if (name == "alexnet" || name == "vgg" || name == "residual") {
            std::cout << name << ": MatrixOps (FC) share = "
                      << FormatPercent(
                             profile.ClassFraction(OpClass::kMatrixOps))
                      << ", Convolution share = "
                      << FormatPercent(
                             profile.ClassFraction(OpClass::kConvolution))
                      << "\n";
        }
    }
    return 0;
}
