/**
 * @file
 * Suite-level harness: runs workloads under the tracer and hands the
 * traces to the analysis tools. This is the top of the library — the
 * piece a benchmark binary or downstream user calls to reproduce the
 * paper's figures.
 */
#ifndef FATHOM_CORE_SUITE_H
#define FATHOM_CORE_SUITE_H

#include <string>
#include <vector>

#include "runtime/tracer.h"
#include "workloads/workload.h"

namespace fathom::core {

/** How much work to run per workload when collecting traces. */
struct SuiteRunOptions {
    SuiteRunOptions() { workload.execution.graph_rewrites = false; }

    int warmup_steps = 1;  ///< steps dropped from every trace.
    int train_steps = 4;   ///< traced training steps.
    int infer_steps = 4;   ///< traced inference steps.

    /**
     * Each workload's Setup() config. Graph rewrites are off by
     * default HERE: the figure pipelines profile the graph as written,
     * per the paper, while WorkloadConfig defaults them on for
     * throughput runs. Fetched values are bit-identical either way.
     */
    workloads::WorkloadConfig workload;
};

/** The traces and metadata captured from one workload. */
struct WorkloadTraces {
    std::string name;
    std::string neuronal_style;
    int num_layers = 0;
    std::string learning_task;
    std::string dataset;
    std::string description;
    std::int64_t parameters = 0;
    int warmup_steps = 0;  ///< steps to skip when analysing the traces.

    runtime::Tracer training;   ///< trace of training steps.
    runtime::Tracer inference;  ///< trace of inference steps.
};

/**
 * Runs one workload under the tracer.
 * @throws std::out_of_range for unknown names.
 */
WorkloadTraces RunAndTrace(const std::string& name,
                           const SuiteRunOptions& options);

/** Runs the whole suite in Table II order. */
std::vector<WorkloadTraces> RunSuite(const SuiteRunOptions& options);

/** Canonical suite order (Table II). */
std::vector<std::string> SuiteNames();

}  // namespace fathom::core

#endif  // FATHOM_CORE_SUITE_H
