#include "workloads/workload.h"

#include <mutex>
#include <stdexcept>

#include "ops/register.h"
#include "telemetry/metrics.h"

namespace fathom::workloads {

std::unique_ptr<runtime::Session>
Workload::MakeSession(const WorkloadConfig& config)
{
    config_ = config;
    auto session =
        std::make_unique<runtime::Session>(config.seed, config.execution);
    session->tracer().set_enabled(config.tracing);
    telemetry::MetricsRegistry::set_enabled(config.telemetry);
    return session;
}

std::unique_ptr<data::InputPipeline>
Workload::MakePipeline(const std::string& stream, std::int64_t start_step,
                       data::BatchFn fn, bool stateful)
{
    data::InputPipelineOptions options;
    options.prefetch_depth = stateful ? 0 : config_.prefetch_depth;
    options.producer_threads = config_.producer_threads;
    options.start_step = start_step;
    if (session_ && session_->tracer().enabled()) {
        options.tracer = &session_->tracer();
    }
    options.name = name() + "/" + stream;
    return std::make_unique<data::InputPipeline>(std::move(fn),
                                                 std::move(options));
}

float
Workload::EvaluateAccuracy(int batches)
{
    (void)batches;
    throw std::logic_error("workload '" + name() +
                           "' has no accuracy metric");
}

serving::InferenceSignature
Workload::ServingSignature() const
{
    throw std::logic_error("workload '" + name() +
                           "' has no serving endpoint");
}

serving::RequestFeeds
Workload::SampleServingRequest()
{
    throw std::logic_error("workload '" + name() +
                           "' has no serving endpoint");
}

std::shared_ptr<const serving::FrozenPlan>
Workload::FreezeServingPlan() const
{
    return serving::FrozenPlan::Freeze(session(), ServingSignature(),
                                       config_.execution);
}

runtime::Session&
Workload::session()
{
    if (!session_) {
        throw std::logic_error("Workload::session: call Setup() first");
    }
    return *session_;
}

const runtime::Session&
Workload::session() const
{
    if (!session_) {
        throw std::logic_error("Workload::session: call Setup() first");
    }
    return *session_;
}

std::int64_t
Workload::num_parameters() const
{
    std::int64_t total = 0;
    for (const auto& name : session().variables().Names()) {
        // Count only model parameters: skip embedded constants and
        // optimizer slots.
        if (name.rfind("__const/", 0) == 0 ||
            name.find("/momentum") != std::string::npos ||
            name.find("/rms") != std::string::npos ||
            name.find("/adam_") != std::string::npos) {
            continue;
        }
        const Tensor& value = session().variables().Get(name);
        if (value.dtype() == DType::kFloat32) {
            total += value.num_elements();
        }
    }
    return total;
}

WorkloadRegistry&
WorkloadRegistry::Global()
{
    static WorkloadRegistry registry;
    return registry;
}

void
WorkloadRegistry::Register(const std::string& name, Factory factory)
{
    if (factories_.count(name)) {
        throw std::logic_error("WorkloadRegistry: duplicate '" + name + "'");
    }
    factories_[name] = std::move(factory);
    order_.push_back(name);
}

std::unique_ptr<Workload>
WorkloadRegistry::Create(const std::string& name) const
{
    auto it = factories_.find(name);
    if (it == factories_.end()) {
        throw std::out_of_range("WorkloadRegistry: unknown workload '" +
                                name + "'");
    }
    return it->second();
}

std::vector<std::string>
WorkloadRegistry::Names() const
{
    return order_;
}

// Implemented by the per-model translation units.
void RegisterSeq2Seq();
void RegisterMemNet();
void RegisterSpeech();
void RegisterAutoenc();
void RegisterResidual();
void RegisterVgg();
void RegisterAlexNet();
void RegisterDeepQ();

void
RegisterAllWorkloads()
{
    static std::once_flag once;
    std::call_once(once, [] {
        ops::RegisterStandardOps();
        // Table II order.
        RegisterSeq2Seq();
        RegisterMemNet();
        RegisterSpeech();
        RegisterAutoenc();
        RegisterResidual();
        RegisterVgg();
        RegisterAlexNet();
        RegisterDeepQ();
    });
}

}  // namespace fathom::workloads
