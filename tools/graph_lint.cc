/**
 * @file
 * graph_lint: standalone static diagnostics for workload graphs.
 *
 * For each requested workload this builds the model (no training
 * steps), runs the static verifier over the full training graph in
 * unseeded mode — structural validation, attr schema checks, and
 * shape/dtype inference propagating everything derivable from
 * variables and constants — and then freezes the serving endpoint,
 * which re-verifies in frozen mode with TensorSpec-seeded placeholder
 * types. Every diagnostic is printed with its named node; the exit
 * code is the total violation count clamped to 1, so CI can gate on
 * it and archive the report.
 *
 * Usage: graph_lint [--workloads=a,b,...] [--out=FILE]
 *   --workloads  comma-separated subset (default: all eight models).
 *   --out        write the report to FILE instead of stdout.
 */
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/table.h"
#include "graph/verify/verifier.h"
#include "workloads/workload.h"

namespace {

using namespace fathom;

/** Lints one workload; @return its total violation count. */
int
LintWorkload(const std::string& name, std::ostream& out)
{
    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    workloads::WorkloadConfig config;
    config.batch_size = 2;
    config.tracing = false;
    workload->Setup(config);
    const runtime::Session& session = workload->session();

    out << "workload: " << name << "\n";
    int violations = 0;

    // Training graph, unseeded: placeholder types stay unknown and the
    // shape fns propagate what variables/consts determine. This is the
    // whole graph as written — nothing is pruned by a fetch set.
    graph::verify::VerifyOptions options;
    options.variables = &session.variables();
    const graph::verify::VerifyReport report = graph::verify::Verify(
        session.graph(), {}, session.graph().AllNodes(), options);
    int typed = 0;
    for (const auto& [id, types] : report.types) {
        for (const auto& type : types) {
            typed += type.fully_known() ? 1 : 0;
        }
    }
    out << "  train graph: " << report.nodes_checked << " nodes, " << typed
        << " statically typed outputs, " << report.diagnostics.size()
        << " violation(s)\n";
    for (const auto& diagnostic : report.diagnostics) {
        out << "    " << diagnostic.ToString() << "\n";
    }
    violations += static_cast<int>(report.diagnostics.size());

    // Serving graph: Freeze itself runs the verifier in frozen mode
    // (TensorSpec-seeded types, stateful ops are violations) and
    // throws the full report text on any finding.
    try {
        const auto plan = workload->FreezeServingPlan();
        out << "  serving freeze: OK (frozen-mode verification passed)\n";
        (void)plan;
    } catch (const std::exception& e) {
        out << "  serving freeze: FAILED\n    " << e.what() << "\n";
        ++violations;
    }
    return violations;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> names;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--workloads=", 0) == 0) {
            names = core::SplitCsv(arg.substr(12));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "usage: graph_lint [--workloads=a,b,...] "
                         "[--out=FILE]\n";
            return 2;
        }
    }

    workloads::RegisterAllWorkloads();
    if (names.empty()) {
        names = workloads::WorkloadRegistry::Global().Names();
    }

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file) {
            std::cerr << "graph_lint: cannot open " << out_path << "\n";
            return 2;
        }
    }
    std::ostream& out = out_path.empty() ? std::cout : file;

    out << "=== graph_lint: static verification report ===\n\n";
    int violations = 0;
    for (const auto& name : names) {
        try {
            violations += LintWorkload(name, out);
        } catch (const std::exception& e) {
            out << "workload: " << name << "\n  setup FAILED: " << e.what()
                << "\n";
            ++violations;
        }
        out << "\n";
    }
    out << (violations == 0 ? "all graphs verify clean"
                            : std::to_string(violations) +
                                  " violation(s) across the suite")
        << "\n";
    if (!out_path.empty()) {
        std::cout << "graph_lint: report written to " << out_path << " ("
                  << violations << " violation(s))\n";
    }
    return violations == 0 ? 0 : 1;
}
