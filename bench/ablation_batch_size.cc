/**
 * @file
 * Ablation: how stable are the Fig. 3 operation-class profiles under
 * batch size?
 *
 * The reproduction scales model dimensions and batch sizes down from
 * the originals (DESIGN.md). This bench verifies the profiles used for
 * Figs. 2-4 are not artifacts of the default batch: the dominant op
 * class of each workload must be invariant as the batch sweeps 2x in
 * each direction.
 */
#include <iostream>

#include "analysis/op_profile.h"
#include "core/suite.h"
#include "core/table.h"

int
main()
{
    using namespace fathom;
    using core::ConsoleTable;
    using core::FormatPercent;
    using graph::OpClass;
    using graph::OpClassName;

    std::cout << "=== Ablation: profile stability under batch size ===\n"
              << "clock: wall; dominant op class share per batch size\n\n";

    const struct {
        const char* name;
        std::int64_t batches[3];
    } cases[] = {
        {"alexnet", {2, 4, 8}},
        {"seq2seq", {2, 4, 8}},
        {"memnet", {4, 8, 16}},
        {"autoenc", {8, 16, 32}},
    };

    for (const auto& c : cases) {
        ConsoleTable table;
        table.SetHeader({"batch", "dominant class", "share",
                         "types for 90%"});
        std::string first_class;
        bool stable = true;
        for (const std::int64_t batch : c.batches) {
            core::SuiteRunOptions options;
            options.warmup_steps = 1;
            options.train_steps = 3;
            options.infer_steps = 0;
            options.workload.batch_size = batch;
            const auto traces = core::RunAndTrace(c.name, options);
            const auto profile =
                analysis::WallProfile(traces.training, traces.warmup_steps);

            OpClass dominant = OpClass::kControl;
            double best = 0.0;
            for (OpClass cls : graph::AllOpClasses()) {
                if (profile.ClassFraction(cls) > best) {
                    best = profile.ClassFraction(cls);
                    dominant = cls;
                }
            }
            if (first_class.empty()) {
                first_class = OpClassName(dominant);
            } else if (first_class != OpClassName(dominant)) {
                stable = false;
            }
            table.AddRow({std::to_string(batch), OpClassName(dominant),
                          FormatPercent(best),
                          std::to_string(profile.TypesToCover(0.9))});
        }
        std::cout << "--- " << c.name << " ---\n"
                  << table.Render() << "dominant class stable across "
                  << "batch sizes: " << (stable ? "yes" : "NO") << "\n\n";
    }
    return 0;
}
