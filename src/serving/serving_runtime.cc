#include "serving/serving_runtime.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/metrics.h"

namespace fathom::serving {

namespace {

/** The serving metric family, resolved once (registry refs are stable). */
struct ServingMetrics {
    telemetry::Counter& requests;
    telemetry::Counter& responses;
    telemetry::Counter& rejected;
    telemetry::Counter& failed;
    telemetry::Counter& batches;
    telemetry::Histogram& batch_size;
    telemetry::Histogram& queue_depth;
    telemetry::Histogram& queue_us;
    telemetry::Histogram& latency_us;

    static ServingMetrics& Get()
    {
        auto& reg = telemetry::MetricsRegistry::Global();
        static ServingMetrics m{
            reg.GetCounter("serving.requests"),
            reg.GetCounter("serving.responses"),
            reg.GetCounter("serving.rejected"),
            reg.GetCounter("serving.failed"),
            reg.GetCounter("serving.batches"),
            reg.GetHistogram("serving.batch_size"),
            reg.GetHistogram("serving.queue_depth"),
            reg.GetHistogram("serving.queue_us"),
            reg.GetHistogram("serving.request_latency_us"),
        };
        return m;
    }
};

std::uint64_t
ElapsedMicros(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(to - from)
                  .count();
    return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

}  // namespace

ServingOptions
ServingRuntime::Normalize(ServingOptions options)
{
    options.max_batch = std::max<std::int64_t>(options.max_batch, 1);
    options.max_queue_depth = std::max<std::size_t>(
        options.max_queue_depth, static_cast<std::size_t>(1));
    options.executors = std::max(options.executors, 1);
    return options;
}

ServingRuntime::ServingRuntime(std::shared_ptr<const FrozenPlan> plan,
                               ServingOptions options)
    : plan_(std::move(plan)),
      options_(Normalize(options)),
      queue_(options_.max_queue_depth)
{
    if (!plan_) {
        throw std::invalid_argument("ServingRuntime: null plan");
    }
    if (options_.tracer != nullptr) {
        lanes_.reserve(static_cast<std::size_t>(options_.executors));
        for (int i = 0; i < options_.executors; ++i) {
            lanes_.push_back(options_.tracer->RegisterAuxLane(
                "batcher-" + std::to_string(i)));
        }
    }
    executors_.reserve(static_cast<std::size_t>(options_.executors));
    for (int i = 0; i < options_.executors; ++i) {
        executors_.emplace_back([this, i] { ExecutorLoop(i); });
    }
}

ServingRuntime::~ServingRuntime() { Stop(); }

std::future<InferenceResponse>
ServingRuntime::Submit(RequestFeeds feeds)
{
    auto& metrics = ServingMetrics::Get();

    // Validate against the signature before touching the queue:
    // malformed requests fail fast at the submitter and a formed batch
    // can only fail on execution errors, not on feed-shape errors
    // introduced by a co-batched stranger.
    try {
        plan_->CheckRequest(feeds);
    } catch (const std::invalid_argument&) {
        metrics.rejected.Add();
        throw;
    }

    Pending request;
    request.feeds = std::move(feeds);
    request.enqueued = std::chrono::steady_clock::now();
    std::future<InferenceResponse> future = request.promise.get_future();

    switch (queue_.TryPush(std::move(request))) {
        case data::QueuePushResult::kOk:
            break;
        case data::QueuePushResult::kStopped:
            metrics.rejected.Add();
            throw std::runtime_error(
                "ServingRuntime::Submit: runtime is stopped");
        case data::QueuePushResult::kFull:
            metrics.rejected.Add();
            throw std::runtime_error(
                "ServingRuntime::Submit: queue full (depth " +
                std::to_string(queue_.size()) + ")");
    }
    metrics.requests.Add();
    metrics.queue_depth.Observe(queue_.size());
    return future;
}

void
ServingRuntime::ExecutorLoop(int worker)
{
    const auto batch_target = static_cast<std::size_t>(options_.max_batch);
    const bool traced = options_.tracer != nullptr &&
                        static_cast<std::size_t>(worker) < lanes_.size();
    std::vector<Pending> batch;
    // PopBatch is the dynamic-batching policy: it returns a formed
    // batch as soon as batch_target requests are waiting, or when the
    // oldest has exhausted its latency budget; after Stop() it drains
    // batch by batch and finally reports false.
    while (queue_.PopBatch(batch_target, options_.max_queue_delay, &batch)) {
        const double start = traced ? options_.tracer->NowSeconds() : 0.0;
        const auto n = batch.size();
        RunBatch(std::move(batch));
        if (traced) {
            options_.tracer->RecordAux(
                lanes_[static_cast<std::size_t>(worker)],
                "batch x" + std::to_string(n), start,
                options_.tracer->NowSeconds() - start);
        }
    }
}

void
ServingRuntime::RunBatch(std::vector<Pending> batch)
{
    auto& metrics = ServingMetrics::Get();
    const auto formed = std::chrono::steady_clock::now();
    const auto n = static_cast<std::int64_t>(batch.size());

    metrics.batches.Add();
    metrics.batch_size.Observe(static_cast<std::uint64_t>(n));
    for (const Pending& p : batch) {
        metrics.queue_us.Observe(ElapsedMicros(p.enqueued, formed));
    }

    std::vector<const RequestFeeds*> requests;
    requests.reserve(batch.size());
    for (const Pending& p : batch) {
        requests.push_back(&p.feeds);
    }

    try {
        std::vector<std::vector<Tensor>> outputs = plan_->ServeBatch(requests);
        const auto done = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            InferenceResponse response;
            response.outputs = std::move(outputs[i]);
            response.batch_size = n;
            response.queue_seconds =
                static_cast<double>(ElapsedMicros(batch[i].enqueued, formed)) *
                1e-6;
            response.latency_seconds =
                static_cast<double>(ElapsedMicros(batch[i].enqueued, done)) *
                1e-6;
            metrics.latency_us.Observe(
                ElapsedMicros(batch[i].enqueued, done));
            metrics.responses.Add();
            batch[i].promise.set_value(std::move(response));
        }
    } catch (...) {
        // Never strand a caller: a failed batch fails every request in
        // it (the exception surfaces through each future's get()).
        metrics.failed.Add(static_cast<std::uint64_t>(batch.size()));
        for (Pending& p : batch) {
            p.promise.set_exception(std::current_exception());
        }
    }
}

void
ServingRuntime::Stop()
{
    queue_.Stop();
    // Joining is serialized so concurrent Stop()/destructor races are
    // safe; executors exit only once the queue is fully drained.
    std::lock_guard<std::mutex> join_lock(join_mu_);
    for (std::thread& t : executors_) {
        if (t.joinable()) {
            t.join();
        }
    }
}

}  // namespace fathom::serving
