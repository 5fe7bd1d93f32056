/**
 * @file
 * The input-pipeline battery: BoundedQueue contract tests, the
 * concurrent producer/consumer hammers the TSan CI job targets, the
 * InputPipeline ordering/determinism tests, and the headline
 * guarantee — for every paper workload, training under any (prefetch
 * depth, producer count) configuration leaves losses and every
 * variable bit-identical to the inline depth-0 baseline.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/pipeline/bounded_queue.h"
#include "data/pipeline/input_pipeline.h"
#include "ops/register.h"
#include "runtime/tracer.h"
#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "workloads/workload.h"

namespace fathom::data {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue contract.
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, ZeroCapacityThrows)
{
    EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueueTest, PopReturnsItemsInFifoOrder)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(queue.Push(i));
    }
    EXPECT_EQ(queue.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        auto item = queue.Pop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(*item, i);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, TryPushReportsFullAndStoppedDistinctly)
{
    BoundedQueue<int> queue(2);
    EXPECT_EQ(queue.TryPush(1), QueuePushResult::kOk);
    EXPECT_EQ(queue.TryPush(2), QueuePushResult::kOk);
    EXPECT_EQ(queue.TryPush(3), QueuePushResult::kFull);
    queue.Stop();
    EXPECT_EQ(queue.TryPush(4), QueuePushResult::kStopped);
    // Accepted items survive the stop (drain semantics).
    EXPECT_EQ(*queue.Pop(), 1);
    EXPECT_EQ(*queue.Pop(), 2);
    EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilAPopMakesRoom)
{
    BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.Push(1));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(queue.Push(2));  // blocks until the pop below.
        second_pushed = true;
    });
    // The producer must be parked on the full queue, not completed.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(second_pushed.load());
    EXPECT_EQ(*queue.Pop(), 1);
    producer.join();
    EXPECT_TRUE(second_pushed.load());
    EXPECT_EQ(*queue.Pop(), 2);
}

TEST(BoundedQueueTest, StopWakesABlockedPushWithoutEnqueueing)
{
    BoundedQueue<int> queue(1);
    EXPECT_TRUE(queue.Push(1));
    std::atomic<bool> push_result{true};
    std::thread producer([&] { push_result = queue.Push(2); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Stop();
    producer.join();
    EXPECT_FALSE(push_result.load());
    EXPECT_EQ(*queue.Pop(), 1);  // only the accepted item remains.
    EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, StopWakesABlockedPop)
{
    BoundedQueue<int> queue(4);
    std::thread consumer([&] { EXPECT_FALSE(queue.Pop().has_value()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Stop();
    consumer.join();
}

TEST(BoundedQueueTest, PopBatchReturnsImmediatelyAtMaxItems)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(queue.Push(i));
    }
    std::vector<int> batch;
    // A generous delay that must NOT be waited out: the batch is full.
    EXPECT_TRUE(queue.PopBatch(4, std::chrono::microseconds(10'000'000),
                               &batch));
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedQueueTest, PopBatchLaunchesAPartialBatchOnDeadline)
{
    BoundedQueue<int> queue(8);
    EXPECT_TRUE(queue.Push(7));
    std::vector<int> batch;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(queue.PopBatch(4, std::chrono::microseconds(2000), &batch));
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(batch, std::vector<int>{7});
    // The deadline must actually be honored (oldest item waited it out).
    EXPECT_GE(waited, std::chrono::microseconds(1500));
}

TEST(BoundedQueueTest, PopBatchDrainsBatchByBatchAfterStop)
{
    BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(queue.Push(i));
    }
    queue.Stop();
    std::vector<int> batch;
    std::vector<int> drained;
    // Post-stop, batches form immediately (no deadline waits) until
    // the queue reports stopped-and-empty.
    while (queue.PopBatch(2, std::chrono::microseconds(10'000'000),
                          &batch)) {
        EXPECT_LE(batch.size(), 2u);
        drained.insert(drained.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Concurrent hammers (the `pipeline` + `concurrency` TSan targets).
// ---------------------------------------------------------------------------

/**
 * Four producers race Push against three consumers racing Pop through
 * a deliberately tiny queue (maximum backpressure), then Stop drains.
 * Every accepted item must be consumed exactly once.
 */
TEST(BoundedQueueConcurrentTest, MultiProducerMultiConsumerHammerBattery)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 500;
    BoundedQueue<int> queue(2);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(queue.Push(p * kPerProducer + i));
            }
        });
    }

    std::mutex seen_mu;
    std::multiset<int> seen;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            std::multiset<int> local;
            while (auto item = queue.Pop()) {
                local.insert(*item);
            }
            std::lock_guard<std::mutex> lock(seen_mu);
            seen.insert(local.begin(), local.end());
        });
    }

    for (auto& t : producers) {
        t.join();
    }
    queue.Stop();  // consumers drain the tail, then exit.
    for (auto& t : consumers) {
        t.join();
    }

    ASSERT_EQ(seen.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    for (int v = 0; v < kProducers * kPerProducer; ++v) {
        EXPECT_EQ(seen.count(v), 1u) << "item " << v;
    }
}

/**
 * Stop() fired mid-flight while producers are pushing and batch
 * consumers are popping: every item a Push accepted must still come
 * out exactly once, and nothing can deadlock.
 */
TEST(BoundedQueueConcurrentTest, StopMidFlightDrainHammerBattery)
{
    constexpr int kProducers = 3;
    constexpr int kConsumers = 2;
    BoundedQueue<int> queue(4);

    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < 10000; ++i) {
                if (!queue.Push(p * 10000 + i)) {
                    return;  // stopped.
                }
                accepted.fetch_add(1);
            }
        });
    }

    std::atomic<int> consumed{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            std::vector<int> batch;
            while (queue.PopBatch(3, std::chrono::microseconds(100),
                                  &batch)) {
                consumed.fetch_add(static_cast<int>(batch.size()));
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Stop();
    for (auto& t : producers) {
        t.join();
    }
    for (auto& t : consumers) {
        t.join();
    }
    EXPECT_EQ(consumed.load(), accepted.load());
    EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// InputPipeline: ordering, determinism, lifecycle, telemetry.
// ---------------------------------------------------------------------------

/** A pure batch function: one tensor whose bytes derive from t. */
FeedBatch
PureBatch(std::int64_t step)
{
    Rng rng(MixSeed(/*seed=*/99, static_cast<std::uint64_t>(step)));
    Tensor t(DType::kFloat32, Shape{16});
    rng.FillNormal(&t, 0.0f, 1.0f);
    Tensor tag(DType::kFloat32, Shape{1});
    tag.data<float>()[0] = static_cast<float>(step);
    return {{graph::NodeId{0}, t}, {graph::NodeId{1}, tag}};
}

TEST(InputPipelineTest, InlineModeCallsTheFunctionInOrder)
{
    std::vector<std::int64_t> calls;
    InputPipelineOptions options;
    options.prefetch_depth = 0;
    InputPipeline pipeline(
        [&](std::int64_t t) {
            calls.push_back(t);  // stateful: legal only inline.
            return PureBatch(t);
        },
        options);
    ASSERT_TRUE(pipeline.inline_mode());
    for (int i = 0; i < 4; ++i) {
        pipeline.Next();
    }
    EXPECT_EQ(calls, (std::vector<std::int64_t>{0, 1, 2, 3}));
    EXPECT_EQ(pipeline.next_step(), 4);
}

TEST(InputPipelineTest, DeliversStepsInOrderAcrossProducerCounts)
{
    for (const int depth : {1, 4}) {
        for (const int producers : {1, 2, 4}) {
            SCOPED_TRACE("depth=" + std::to_string(depth) +
                         " producers=" + std::to_string(producers));
            InputPipelineOptions options;
            options.prefetch_depth = depth;
            options.producer_threads = producers;
            InputPipeline pipeline(PureBatch, options);
            ASSERT_FALSE(pipeline.inline_mode());
            for (std::int64_t t = 0; t < 24; ++t) {
                const FeedBatch batch = pipeline.Next();
                ASSERT_EQ(batch.count(graph::NodeId{1}), 1u);
                EXPECT_EQ(batch.at(graph::NodeId{1}).data<float>()[0],
                          static_cast<float>(t));
            }
        }
    }
}

TEST(InputPipelineTest, StartStepOffsetsTheStream)
{
    InputPipelineOptions options;
    options.prefetch_depth = 2;
    options.start_step = 100;
    InputPipeline pipeline(PureBatch, options);
    EXPECT_EQ(pipeline.next_step(), 100);
    const FeedBatch batch = pipeline.Next();
    EXPECT_EQ(batch.at(graph::NodeId{1}).data<float>()[0], 100.0f);
    EXPECT_EQ(pipeline.next_step(), 101);
}

TEST(InputPipelineTest, EveryConfigurationIsBitIdenticalToInline)
{
    constexpr int kSteps = 12;
    // Inline reference stream.
    std::vector<FeedBatch> reference;
    {
        InputPipelineOptions options;
        options.prefetch_depth = 0;
        InputPipeline pipeline(PureBatch, options);
        for (int t = 0; t < kSteps; ++t) {
            reference.push_back(pipeline.Next());
        }
    }
    for (const int depth : {1, 4}) {
        for (const int producers : {1, 2, 4}) {
            SCOPED_TRACE("depth=" + std::to_string(depth) +
                         " producers=" + std::to_string(producers));
            InputPipelineOptions options;
            options.prefetch_depth = depth;
            options.producer_threads = producers;
            InputPipeline pipeline(PureBatch, options);
            for (int t = 0; t < kSteps; ++t) {
                const FeedBatch batch = pipeline.Next();
                ASSERT_EQ(batch.size(), reference[t].size());
                for (const auto& [node, expected] : reference[t]) {
                    const auto it = batch.find(node);
                    ASSERT_NE(it, batch.end());
                    ASSERT_EQ(it->second.byte_size(),
                              expected.byte_size());
                    EXPECT_EQ(0, std::memcmp(it->second.data<float>(),
                                             expected.data<float>(),
                                             expected.byte_size()))
                        << "step " << t << " node " << node;
                }
            }
        }
    }
}

TEST(InputPipelineTest, NextThrowsAfterStopOnceDrained)
{
    InputPipelineOptions options;
    options.prefetch_depth = 2;
    options.producer_threads = 2;
    InputPipeline pipeline(PureBatch, options);
    pipeline.Next();
    pipeline.Stop();
    // A few already-materialized batches may drain first; the stash is
    // bounded by depth + producers, so the throw must come quickly.
    bool threw = false;
    for (int i = 0; i < 10 && !threw; ++i) {
        try {
            pipeline.Next();
        } catch (const std::logic_error&) {
            threw = true;
        }
    }
    EXPECT_TRUE(threw);
}

TEST(InputPipelineTest, RecordsPipelineMetrics)
{
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::MetricsRegistry::set_enabled(true);
    {
        InputPipelineOptions options;
        options.prefetch_depth = 2;
        InputPipeline pipeline(PureBatch, options);
        for (int t = 0; t < 6; ++t) {
            pipeline.Next();
        }
    }
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    telemetry::MetricsRegistry::set_enabled(false);
    EXPECT_GE(snapshot.CounterValue("pipeline.batches_produced"), 6u);
    EXPECT_EQ(snapshot.HistogramValue("pipeline.stall_us").count, 6u);
    EXPECT_GE(snapshot.HistogramValue("pipeline.produce_us").count, 6u);
    EXPECT_EQ(snapshot.HistogramValue("pipeline.queue_depth").count, 6u);
}

TEST(InputPipelineTest, InlineModeReportsProduceTimeAsStall)
{
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::MetricsRegistry::set_enabled(true);
    {
        InputPipelineOptions options;
        options.prefetch_depth = 0;
        InputPipeline pipeline(PureBatch, options);
        for (int t = 0; t < 4; ++t) {
            pipeline.Next();
        }
    }
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    telemetry::MetricsRegistry::set_enabled(false);
    const auto produce = snapshot.HistogramValue("pipeline.produce_us");
    const auto stall = snapshot.HistogramValue("pipeline.stall_us");
    EXPECT_EQ(produce.count, 4u);
    EXPECT_EQ(stall.count, 4u);
    // No overlap inline: every produced microsecond is a stalled one.
    EXPECT_EQ(produce.sum, stall.sum);
}

TEST(InputPipelineTest, RegistersNamedProducerLanesOnTheTracer)
{
    runtime::Tracer tracer;
    InputPipelineOptions options;
    options.prefetch_depth = 2;
    options.producer_threads = 2;
    options.tracer = &tracer;
    options.name = "unit/train";
    InputPipeline pipeline(PureBatch, options);
    for (int t = 0; t < 4; ++t) {
        pipeline.Next();
    }
    pipeline.Stop();
    const auto& lanes = tracer.aux_lanes();
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0], "unit/train-producer-0");
    EXPECT_EQ(lanes[1], "unit/train-producer-1");
    // Producers recorded one span per materialized batch.
    EXPECT_GE(tracer.aux_spans().size(), 4u);
    for (const auto& span : tracer.aux_spans()) {
        EXPECT_GE(span.lane, 0);
        EXPECT_LT(span.lane, 2);
        EXPECT_GE(span.dur_seconds, 0.0);
    }
}

// ---------------------------------------------------------------------------
// The headline guarantee across the paper suite.
// ---------------------------------------------------------------------------

const void*
RawData(const Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? static_cast<const void*>(t.data<float>())
               : static_cast<const void*>(t.data<std::int32_t>());
}

void
ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                   const std::string& what)
{
    ASSERT_EQ(expected.dtype(), actual.dtype()) << what;
    ASSERT_TRUE(expected.shape() == actual.shape()) << what;
    EXPECT_EQ(0, std::memcmp(RawData(expected), RawData(actual),
                             expected.byte_size()))
        << what << ": bytes differ from the inline baseline";
}

/**
 * For every paper workload, two training steps and one inference step
 * under prefetch depth {1, 4} x producer threads {1, 2, 4} leave the
 * losses and every variable bit-identical to the inline depth-0
 * baseline with the same seed — the pipeline's determinism contract,
 * stated end to end.
 */
TEST(InputPipelineWorkloadTest, AllWorkloadsBitIdenticalBattery)
{
    ops::RegisterStandardOps();
    workloads::RegisterAllWorkloads();
    const auto names = workloads::WorkloadRegistry::Global().Names();
    ASSERT_EQ(names.size(), 8u);

    for (const auto& name : names) {
        SCOPED_TRACE(name);

        auto run_once = [&](int depth, int producers) {
            auto workload =
                workloads::WorkloadRegistry::Global().Create(name);
            workloads::WorkloadConfig config;
            config.seed = 11;
            config.tracing = false;
            config.prefetch_depth = depth;
            config.producer_threads = producers;
            workload->Setup(config);
            const auto train = workload->RunTraining(2);
            workload->RunInference(1);
            const float accuracy = workload->has_accuracy_metric()
                                       ? workload->EvaluateAccuracy(1)
                                       : 0.0f;
            std::map<std::string, Tensor> variables;
            for (const auto& var :
                 workload->session().variables().Names()) {
                variables[var] =
                    workload->session().variables().Get(var).Clone();
            }
            return std::make_tuple(train.final_loss, train.mean_loss,
                                   accuracy, std::move(variables));
        };

        const auto [base_final, base_mean, base_acc, base_vars] =
            run_once(0, 1);
        for (const int depth : {1, 4}) {
            for (const int producers : {1, 2, 4}) {
                SCOPED_TRACE("depth=" + std::to_string(depth) +
                             " producers=" + std::to_string(producers));
                const auto [final_loss, mean_loss, accuracy, vars] =
                    run_once(depth, producers);
                // Exact equality: same bytes in, same arithmetic out.
                EXPECT_EQ(base_final, final_loss);
                EXPECT_EQ(base_mean, mean_loss);
                EXPECT_EQ(base_acc, accuracy);
                ASSERT_EQ(base_vars.size(), vars.size());
                for (const auto& [var_name, expected] : base_vars) {
                    const auto it = vars.find(var_name);
                    ASSERT_NE(it, vars.end()) << var_name;
                    ExpectBitIdentical(expected, it->second, var_name);
                }
            }
        }
    }
}

/**
 * A step's allocator counts cover the step's own buffer requests only.
 * With prefetch on, the producer thread materializes later batches
 * while a step runs; its requests must not land in that step's counts
 * (they did, and moved residual's count by up to 4 between steps).
 * So residual's per-step request count is the same on every training
 * step after the first, and the same at prefetch depth 0 (batches made
 * inline, between steps) and depth 2.
 */
TEST(InputPipelineWorkloadTest, StepAllocatorCountsExcludeProducerRequests)
{
    ops::RegisterStandardOps();
    workloads::RegisterAllWorkloads();
    constexpr int kSteps = 6;
    auto requests_per_step = [](int depth) {
        auto workload =
            workloads::WorkloadRegistry::Global().Create("residual");
        workloads::WorkloadConfig config;
        config.seed = 5;
        config.tracing = true;
        config.prefetch_depth = depth;
        workload->Setup(config);
        workload->session().tracer().Clear();
        // One step per call, as bench_suite's traced window runs them:
        // each call starts a fresh pipeline whose producer runs ahead
        // into the step.
        for (int i = 0; i < kSteps; ++i) {
            workload->RunTraining(1);
        }
        const auto& steps = workload->session().tracer().steps();
        EXPECT_EQ(steps.size(), static_cast<std::size_t>(kSteps));
        // The first step plans; the rest are steady.
        std::vector<std::uint64_t> requests;
        for (std::size_t i = 1; i < steps.size(); ++i) {
            requests.push_back(steps[i].memory.allocations);
        }
        return requests;
    };
    const std::vector<std::uint64_t> inline_requests = requests_per_step(0);
    ASSERT_FALSE(inline_requests.empty());
    EXPECT_EQ(inline_requests,
              std::vector<std::uint64_t>(inline_requests.size(),
                                         inline_requests[0]));
    const std::uint64_t background_before =
        BufferPool::Global().stats().background_allocations;
    EXPECT_EQ(requests_per_step(2), inline_requests);
    // The producers did allocate; their requests were counted apart.
    EXPECT_GT(BufferPool::Global().stats().background_allocations,
              background_before);
}

}  // namespace
}  // namespace fathom::data
