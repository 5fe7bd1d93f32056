#include "core/suite.h"

namespace fathom::core {

WorkloadTraces
RunAndTrace(const std::string& name, const SuiteRunOptions& options)
{
    workloads::RegisterAllWorkloads();
    auto workload = workloads::WorkloadRegistry::Global().Create(name);

    workload->Setup(options.workload);

    WorkloadTraces traces;
    traces.name = workload->name();
    traces.neuronal_style = workload->neuronal_style();
    traces.num_layers = workload->num_layers();
    traces.learning_task = workload->learning_task();
    traces.dataset = workload->dataset();
    traces.description = workload->description();
    traces.warmup_steps = options.warmup_steps;

    // Training first (it also warms the variables), then inference.
    workload->session().tracer().Clear();
    workload->RunTraining(options.warmup_steps + options.train_steps);
    traces.training = workload->session().tracer();

    workload->session().tracer().Clear();
    workload->RunInference(options.warmup_steps + options.infer_steps);
    traces.inference = workload->session().tracer();

    traces.parameters = workload->num_parameters();
    return traces;
}

std::vector<WorkloadTraces>
RunSuite(const SuiteRunOptions& options)
{
    std::vector<WorkloadTraces> all;
    for (const auto& name : SuiteNames()) {
        all.push_back(RunAndTrace(name, options));
    }
    return all;
}

std::vector<std::string>
SuiteNames()
{
    workloads::RegisterAllWorkloads();
    return workloads::WorkloadRegistry::Global().Names();
}

}  // namespace fathom::core
