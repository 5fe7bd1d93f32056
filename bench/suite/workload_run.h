/**
 * @file
 * One bench_suite run of one workload: either the untraced run that
 * yields the end-to-end metrics, or the traced run that yields the
 * per-layer metrics and the trace artifacts.
 */
#ifndef FATHOM_BENCH_SUITE_WORKLOAD_RUN_H
#define FATHOM_BENCH_SUITE_WORKLOAD_RUN_H

#include <cstdint>
#include <string>
#include <vector>

#include "catalog.h"

namespace fathom::bench_suite {

struct RunOptions {
    std::uint64_t seed = 1;
    /** Measurement time of the untraced run's phases. */
    double seconds = 30.0;
    bool trace = false;
    /** One short window per phase, one set-up, a one-rung ladder. */
    bool smoke = false;
    /** Where the traced run writes its artifacts; empty writes none. */
    std::string out_dir;
};

/** One reported number; n/q1/q3 describe the windows it summarizes. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int n = 1;
    double q1 = 0.0;
    double q3 = 0.0;
};

struct RunResult {
    std::int64_t attempted = 0;
    /** Thrown steps, non-finite losses, refused or wrong responses. */
    std::int64_t failed = 0;
    /** Cleared when a serve window's generator ran late twice. */
    bool valid = true;
    /** First few failure descriptions, for the log. */
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    bool correct() const { return failed == 0; }
};

/** Runs @p spec once as @p options describes. */
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_WORKLOAD_RUN_H
