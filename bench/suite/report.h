/**
 * @file
 * bench_suite's outputs: the one-line JSON result of a run, the JSONL
 * rows a suite run appends to results.jsonl, and --compare over two
 * sets of such files.
 */
#ifndef FATHOM_BENCH_SUITE_REPORT_H
#define FATHOM_BENCH_SUITE_REPORT_H

#include <ostream>
#include <string>

#include "workload_run.h"

namespace fathom::bench_suite {

/** @return @p v in the shortest form that reads back to the same double. */
std::string FormatNumber(double v);

/** @return @p s as a JSON string literal, quotes and backslashes escaped. */
std::string Quote(const std::string& s);

/**
 * @return the workload names and the metric catalog in BENCHMARK.json's
 * shape, for check_smoke.py to hold the two in step.
 */
std::string CatalogJson();

/** Prints each metric as "workload metric = value unit ..." lines. */
void PrintMetrics(std::ostream& os, const std::string& workload,
                  const RunResult& result);

/**
 * @return the result line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}.
 */
std::string ResultJson(const RunResult& result);

/**
 * Appends one row per metric (commit, workload, metric, value, unit, n,
 * q1, q3, valid) to @p os; an untraced run adds its failed_frac row.
 */
void WriteRows(std::ostream& os, const std::string& commit,
               const std::string& workload, bool traced,
               const RunResult& result);

/**
 * Compares two sets of runs and prints, per workload and end-to-end
 * metric, both sides' medians and quartiles and a verdict, then the
 * exact counts. Each set is a directory; every results.jsonl under it,
 * at any depth, is one run (the --out directory of one suite run).
 * Workloads a run marked invalid are left out of that run.
 *
 * @return 0 when nothing is worse, 1 when something is, 2 when the
 *         inputs cannot be compared.
 */
int Compare(const std::string& dir_a, const std::string& dir_b,
            std::ostream& os);

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_REPORT_H
