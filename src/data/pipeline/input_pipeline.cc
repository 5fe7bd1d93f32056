#include "data/pipeline/input_pipeline.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"

namespace fathom::data {

namespace {

/** Cached references to the pipeline.* instruments. */
struct PipelineMetrics {
    telemetry::Counter& batches_produced;
    telemetry::Histogram& produce_us;
    telemetry::Histogram& stall_us;
    telemetry::Histogram& queue_depth;

    static PipelineMetrics& Get()
    {
        auto& registry = telemetry::MetricsRegistry::Global();
        static PipelineMetrics m{
            registry.GetCounter("pipeline.batches_produced"),
            registry.GetHistogram("pipeline.produce_us"),
            registry.GetHistogram("pipeline.stall_us"),
            registry.GetHistogram("pipeline.queue_depth"),
        };
        return m;
    }
};

using Clock = std::chrono::steady_clock;

std::uint64_t
MicrosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - start)
            .count());
}

}  // namespace

InputPipeline::InputPipeline(BatchFn fn, InputPipelineOptions options)
    : fn_(std::move(fn)), options_(std::move(options)),
      next_step_(options_.start_step), ticket_(options_.start_step)
{
    if (!fn_) {
        throw std::invalid_argument("InputPipeline: null batch function");
    }
    inline_mode_ =
        options_.prefetch_depth <= 0 || options_.producer_threads <= 0;
    if (inline_mode_) {
        return;
    }
    queue_ = std::make_unique<BoundedQueue<Produced>>(
        static_cast<std::size_t>(options_.prefetch_depth));
    const std::size_t producers =
        static_cast<std::size_t>(options_.producer_threads);
    if (options_.tracer) {
        lanes_.reserve(producers);
        for (std::size_t i = 0; i < producers; ++i) {
            lanes_.push_back(options_.tracer->RegisterAuxLane(
                options_.name + "-producer-" + std::to_string(i)));
        }
    }
    producers_.reserve(producers);
    for (std::size_t i = 0; i < producers; ++i) {
        producers_.emplace_back([this, i] { ProducerLoop(i); });
    }
}

InputPipeline::~InputPipeline()
{
    Stop();
}

void
InputPipeline::Stop()
{
    if (queue_) {
        queue_->Stop();
    }
    for (auto& t : producers_) {
        if (t.joinable()) {
            t.join();
        }
    }
    producers_.clear();
}

void
InputPipeline::ProducerLoop(std::size_t producer_index)
{
    // Batches made here overlap the consumer's steps; keep their
    // buffer requests out of those steps' allocator counts.
    const BufferPool::BackgroundScope background;
    runtime::Tracer* tracer = options_.tracer;
    const int lane =
        producer_index < lanes_.size()
            ? lanes_[producer_index]
            : -1;
    for (;;) {
        if (queue_->stopped()) {
            return;
        }
        const std::int64_t step =
            ticket_.fetch_add(1, std::memory_order_relaxed);
        const double trace_start =
            tracer ? tracer->NowSeconds() : 0.0;
        const auto start = Clock::now();
        FeedBatch batch = fn_(step);
        const std::uint64_t elapsed_us = MicrosSince(start);
        if (telemetry::MetricsEnabled()) {
            auto& m = PipelineMetrics::Get();
            m.produce_us.Observe(elapsed_us);
            m.batches_produced.Add(1);
        }
        if (tracer) {
            tracer->RecordAux(lane, "batch " + std::to_string(step),
                              trace_start,
                              static_cast<double>(elapsed_us) * 1e-6);
        }
        // Blocks while the queue is full: backpressure bounds how far
        // producers run ahead of the consumer.
        if (!queue_->Push(Produced{step, std::move(batch)})) {
            return;  // stopped while waiting for room.
        }
    }
}

FeedBatch
InputPipeline::Next()
{
    if (inline_mode_) {
        // The inline fallback still reports its generation time as
        // stall: with no overlap, every microsecond of materialization
        // delays the step — which is exactly what the pipelined mode
        // drives toward zero.
        const auto start = Clock::now();
        FeedBatch batch = fn_(next_step_);
        const std::uint64_t elapsed_us = MicrosSince(start);
        if (telemetry::MetricsEnabled()) {
            auto& m = PipelineMetrics::Get();
            m.produce_us.Observe(elapsed_us);
            m.stall_us.Observe(elapsed_us);
            m.batches_produced.Add(1);
            m.queue_depth.Observe(0);
        }
        ++next_step_;
        return batch;
    }

    const auto wait_start = Clock::now();
    FeedBatch batch;
    for (;;) {
        auto it = reordered_.find(next_step_);
        if (it != reordered_.end()) {
            batch = std::move(it->second);
            reordered_.erase(it);
            break;
        }
        auto popped = queue_->Pop();
        if (!popped) {
            throw std::logic_error(
                "InputPipeline::Next: pipeline stopped");
        }
        // Producers complete out of order; stash anything that is not
        // the next step. The stash is bounded: producers hold at most
        // depth + producer_threads outstanding tickets.
        reordered_.emplace(popped->step, std::move(popped->batch));
    }
    if (telemetry::MetricsEnabled()) {
        auto& m = PipelineMetrics::Get();
        m.stall_us.Observe(MicrosSince(wait_start));
        m.queue_depth.Observe(queue_->size());
    }
    ++next_step_;
    return batch;
}

}  // namespace fathom::data
