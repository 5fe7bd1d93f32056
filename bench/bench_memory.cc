/**
 * @file
 * Memory-planner sweep: peak bytes and allocation counts across all
 * eight workloads, with the liveness-driven planner on vs off.
 *
 * The paper attributes characterization to per-op cost; this bench
 * measures the framework side the TensorFlow system paper treats as
 * first-class — allocator behavior. With the planner off, every
 * node's outputs stay live for the whole step and every tensor pays a
 * fresh allocation; with it on, intermediates die at their last
 * consumer and freed blocks recycle through the size-bucketed buffer
 * pool, so peak bytes track the liveness frontier instead of graph
 * size. Losses are printed for both modes as a determinism check:
 * they must match exactly.
 *
 *   $ ./bench_memory [--steps N] [--memory-planner on|off|both]
 */
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/table.h"
#include "tensor/buffer_pool.h"
#include "workloads/workload.h"

using namespace fathom;

namespace {

struct Measurement {
    std::uint64_t peak_bytes = 0;    ///< max over training steps.
    std::uint64_t allocations = 0;   ///< summed over training steps.
    std::uint64_t fresh_allocs = 0;
    std::uint64_t pool_hits = 0;
    float final_loss = 0.0f;
};

Measurement
Measure(const std::string& name, int steps, bool planner)
{
    // Recycling follows the planner knob so "off" reproduces the
    // pre-planner allocator behavior (malloc per tensor, nothing
    // parked); Trim gives each run a cold pool for comparable counts.
    BufferPool& pool = BufferPool::Global();
    pool.set_recycling(planner);
    pool.Trim();

    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    workloads::WorkloadConfig config;
    config.seed = 5;
    config.execution.memory_planner = planner;
    workload->Setup(config);

    Measurement m;
    m.final_loss = workload->RunTraining(steps).final_loss;
    for (const auto& step : workload->session().tracer().steps()) {
        m.peak_bytes = std::max(m.peak_bytes, step.memory.peak_bytes);
        m.allocations += step.memory.allocations;
        m.fresh_allocs += step.memory.fresh_allocs;
        m.pool_hits += step.memory.pool_hits;
    }
    return m;
}

std::string
Mb(std::uint64_t bytes)
{
    return core::FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0),
                              2);
}

}  // namespace

int
main(int argc, char** argv)
{
    workloads::RegisterAllWorkloads();

    int steps = 3;
    std::string mode = "both";
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--steps") == 0) {
            steps = std::atoi(argv[i + 1]);
        } else if (std::strcmp(argv[i], "--memory-planner") == 0) {
            mode = argv[i + 1];
        } else {
            std::cout << "usage: bench_memory [--steps N] "
                         "[--memory-planner on|off|both]\n";
            return 1;
        }
    }
    if (mode != "on" && mode != "off" && mode != "both") {
        std::cout << "--memory-planner must be on, off, or both\n";
        return 1;
    }

    std::cout << "=== Memory planner sweep: peak bytes / allocations per "
              << steps << " training steps ===\n"
              << "peak = live-byte high-water mark during a step; fresh = "
                 "allocations served by\nmalloc (not the pool). Losses "
                 "must match exactly: the planner only drops dead\n"
                 "tensors and recycling is refcount-driven.\n\n";

    if (mode != "both") {
        const bool planner = mode == "on";
        core::ConsoleTable table;
        table.SetHeader({"workload", "peak (MB)", "allocs", "fresh",
                         "pool hits", "final loss"});
        for (const auto& name :
             workloads::WorkloadRegistry::Global().Names()) {
            const Measurement m = Measure(name, steps, planner);
            table.AddRow({name, Mb(m.peak_bytes),
                          std::to_string(m.allocations),
                          std::to_string(m.fresh_allocs),
                          std::to_string(m.pool_hits),
                          core::FormatDouble(m.final_loss, 4)});
        }
        std::cout << "planner " << mode << ":\n" << table.Render();
        BufferPool::Global().set_recycling(true);
        return 0;
    }

    core::ConsoleTable table;
    table.SetHeader({"workload", "peak off (MB)", "peak on (MB)", "peak Δ",
                     "fresh off", "fresh on", "fresh Δ", "hit rate on",
                     "loss"});
    int improved = 0;
    bool all_identical = true;
    for (const auto& name : workloads::WorkloadRegistry::Global().Names()) {
        const Measurement off = Measure(name, steps, /*planner=*/false);
        const Measurement on = Measure(name, steps, /*planner=*/true);

        const double peak_delta =
            off.peak_bytes > 0
                ? 1.0 - static_cast<double>(on.peak_bytes) /
                            static_cast<double>(off.peak_bytes)
                : 0.0;
        const double fresh_delta =
            off.fresh_allocs > 0
                ? 1.0 - static_cast<double>(on.fresh_allocs) /
                            static_cast<double>(off.fresh_allocs)
                : 0.0;
        const double hit_rate =
            on.allocations > 0 ? static_cast<double>(on.pool_hits) /
                                     static_cast<double>(on.allocations)
                               : 0.0;
        const bool identical = off.final_loss == on.final_loss;
        all_identical = all_identical && identical;
        if (on.peak_bytes < off.peak_bytes &&
            on.fresh_allocs < off.fresh_allocs) {
            ++improved;
        }
        table.AddRow({name, Mb(off.peak_bytes), Mb(on.peak_bytes),
                      "-" + core::FormatPercent(peak_delta),
                      std::to_string(off.fresh_allocs),
                      std::to_string(on.fresh_allocs),
                      "-" + core::FormatPercent(fresh_delta),
                      core::FormatPercent(hit_rate),
                      identical ? "identical" : "DIFFERS"});
    }
    std::cout << table.Render();
    std::cout << "\nplanner reduced both peak bytes and fresh allocations "
                 "on "
              << improved << "/8 workloads; losses "
              << (all_identical ? "bit-identical in every case"
                                : "DIFFER — determinism violation")
              << "\n";

    BufferPool::Global().set_recycling(true);
    return all_identical ? 0 : 1;
}
