/**
 * @file
 * The serving battery: FrozenPlan contract tests, the
 * batching-equivalence battery (a request served inside a coalesced
 * batch is bit-identical to the same request served alone, for all
 * eight workloads), the Session-vs-FrozenPlan battery (the same
 * batched feeds give the same bytes through the live session and the
 * frozen plan), the checkpoint->freeze round trip, the
 * ServingRuntime shutdown contract, and the concurrent serving
 * battery (N client threads on one shared plan; runs under TSan via
 * the `serving` ctest label).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "runtime/checkpoint.h"
#include "serving/frozen_plan.h"
#include "serving/serving_runtime.h"
#include "tensor/buffer_pool.h"
#include "workloads/workload.h"

namespace fathom::serving {
namespace {

using workloads::RegisterAllWorkloads;
using workloads::Workload;
using workloads::WorkloadConfig;
using workloads::WorkloadRegistry;

/** Every future in the shutdown tests gets this long, then the test
 * fails instead of hanging the suite. */
constexpr auto kFutureTimeout = std::chrono::seconds(60);

const char*
RawBytes(const Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? reinterpret_cast<const char*>(t.data<float>())
               : reinterpret_cast<const char*>(t.data<std::int32_t>());
}

/** The battery's core assertion: same dtype, same shape, same bytes. */
void
ExpectBitIdentical(const Tensor& a, const Tensor& b, const std::string& what)
{
    ASSERT_TRUE(a.dtype() == b.dtype()) << what;
    ASSERT_EQ(a.shape().dims(), b.shape().dims()) << what;
    const std::size_t bytes =
        static_cast<std::size_t>(a.num_elements()) * DTypeSize(a.dtype());
    EXPECT_EQ(std::memcmp(RawBytes(a), RawBytes(b), bytes), 0) << what;
}

std::unique_ptr<Workload>
MakeServableWorkload(const std::string& name, std::uint64_t seed = 7,
                     const runtime::ExecutionOptions& execution = {})
{
    RegisterAllWorkloads();
    auto workload = WorkloadRegistry::Global().Create(name);
    WorkloadConfig config;
    config.seed = seed;
    config.tracing = false;
    config.execution = execution;
    workload->Setup(config);
    return workload;
}

// ---- FrozenPlan contract ------------------------------------------------

TEST(FrozenPlanTest, RejectsStatefulOps)
{
    RegisterAllWorkloads();  // registers the standard ops.
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const auto noise = b.RandomNormal({2, 2}, 0.0f, 1.0f);
    const auto out = b.Relu(noise);

    InferenceSignature sig;
    sig.fetches = {out};
    sig.output_names = {"out"};
    EXPECT_THROW(FrozenPlan::Freeze(session, sig), std::invalid_argument);
}

TEST(FrozenPlanTest, RejectsUndeclaredPlaceholder)
{
    RegisterAllWorkloads();
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const auto x = b.Placeholder("x");
    const auto out = b.Relu(x);

    InferenceSignature sig;  // x deliberately not declared.
    sig.fetches = {out};
    sig.output_names = {"out"};
    EXPECT_THROW(FrozenPlan::Freeze(session, sig), std::invalid_argument);
}

TEST(FrozenPlanTest, ThreadWidthsClampToOneInSessionAndFreeze)
{
    RegisterAllWorkloads();
    for (int width : {0, -3}) {
        SCOPED_TRACE("width " + std::to_string(width));
        const runtime::ExecutionOptions options = {
            .intra_op_threads = width, .inter_op_threads = width};
        runtime::Session session(1, options);
        EXPECT_EQ(session.options().intra_op_threads, 1);
        EXPECT_EQ(session.options().inter_op_threads, 1);
        session.set_options(options);
        EXPECT_EQ(session.options().intra_op_threads, 1);
        EXPECT_EQ(session.options().inter_op_threads, 1);

        auto b = session.MakeBuilder();
        const auto x = b.Placeholder("x");
        InferenceSignature sig;
        sig.inputs = {{"x", DType::kFloat32, {3}}};
        sig.fetches = {b.Relu(x)};
        sig.output_names = {"y"};
        const auto plan = FrozenPlan::Freeze(session, sig, options);
        EXPECT_EQ(plan->options().intra_op_threads, 1);
        EXPECT_EQ(plan->options().inter_op_threads, 1);

        // Both still run on their clamped pools.
        RequestFeeds request;
        request["x"] = Tensor(DType::kFloat32, Shape{1, 3});
        request["x"].Fill(-1.0f);
        ExpectBitIdentical(session.RunNamed(request, sig.fetches)[0],
                           plan->ServeOne(request)[0], "clamped run");
    }
}

TEST(FrozenPlanTest, FreezeServingPlanUsesTheWorkloadExecutionOptions)
{
    auto as_written = MakeServableWorkload(
        "autoenc", /*seed=*/7,
        {.inter_op_threads = 2, .graph_rewrites = false});
    const auto plan = as_written->FreezeServingPlan();
    EXPECT_EQ(plan->options().inter_op_threads, 2);
    EXPECT_FALSE(plan->options().graph_rewrites);

    auto rewritten = MakeServableWorkload("autoenc", /*seed=*/7);
    const auto default_plan = rewritten->FreezeServingPlan();
    EXPECT_EQ(default_plan->options().inter_op_threads, 1);
    EXPECT_TRUE(default_plan->options().graph_rewrites);

    // The graph as written runs more steps and serves the same bytes.
    EXPECT_GT(plan->num_steps(), default_plan->num_steps());
    const RequestFeeds request = as_written->SampleServingRequest();
    const auto served = plan->ServeOne(request);
    const auto expected = default_plan->ServeOne(request);
    ASSERT_EQ(served.size(), expected.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
        ExpectBitIdentical(expected[i], served[i],
                           "served output " + std::to_string(i));
    }
}

TEST(FrozenPlanTest, FrozenWeightsAreImmuneToLiveTraining)
{
    auto workload = MakeServableWorkload("autoenc");
    const auto plan = workload->FreezeServingPlan();
    const RequestFeeds request = workload->SampleServingRequest();

    const auto before = plan->ServeOne(request);
    workload->RunTraining(3);
    const auto after = plan->ServeOne(request);
    for (std::size_t i = 0; i < before.size(); ++i) {
        ExpectBitIdentical(before[i], after[i], "frozen output " +
                                                    std::to_string(i));
    }

    // Sanity: the live session really did move — a fresh freeze
    // produces a different embedding, so the immunity above is not
    // vacuous.
    const auto retrained = workload->FreezeServingPlan()->ServeOne(request);
    const std::size_t bytes =
        static_cast<std::size_t>(before[0].num_elements()) *
        DTypeSize(before[0].dtype());
    EXPECT_NE(
        std::memcmp(RawBytes(before[0]), RawBytes(retrained[0]), bytes), 0);
}

TEST(FrozenPlanTest, KernelFailurePropagatesAndPlanStaysUsable)
{
    RegisterAllWorkloads();
    runtime::Session session(1);
    auto b = session.MakeBuilder();
    const auto x = b.Placeholder("x");
    const auto y = b.Placeholder("y");
    // Healthy branches race the MatMul, which fails unless the batch
    // equals y's example width (5).
    const auto good = b.AddN({b.Relu(x), b.Tanh(x), b.Sigmoid(x)});
    const auto bad = b.MatMul(y, x);

    InferenceSignature sig;
    sig.inputs = {{"x", DType::kFloat32, {4}}, {"y", DType::kFloat32, {5}}};
    sig.fetches = {good, bad};
    sig.output_names = {"good", "bad"};
    auto feeds_of = [](std::int64_t batch) {
        std::map<std::string, Tensor> feeds;
        feeds["x"] = Tensor(DType::kFloat32, Shape{batch, 4});
        feeds["y"] = Tensor(DType::kFloat32, Shape{batch, 5});
        feeds["x"].Fill(0.5f);
        feeds["y"].Fill(0.25f);
        return feeds;
    };

    for (int width : {1, 2, 4}) {
        SCOPED_TRACE("inter-op width " + std::to_string(width));
        // Pin the mid-run failure path: the static verifier would reject
        // the mismatched MatMul at freeze time.
        const auto plan = FrozenPlan::Freeze(
            session, sig, {.inter_op_threads = width, .verify = false});

        const auto failing = feeds_of(4);  // [4,5] x [4,4]: mismatch.
        const auto live_before = BufferPool::Global().stats().live_bytes;
        try {
            plan->Run(failing);
            ADD_FAILURE() << "mismatched MatMul did not throw";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(session.graph()
                                                     .node(bad.node)
                                                     .name),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(BufferPool::Global().stats().live_bytes, live_before);

        // The plan still serves a valid request: [5,5] x [5,4].
        const auto out = plan->Run(feeds_of(5));
        ASSERT_EQ(out.size(), 2u);
        ASSERT_EQ(out[1].shape().dims(),
                  (std::vector<std::int64_t>{5, 4}));
        for (std::int64_t i = 0; i < out[1].num_elements(); ++i) {
            EXPECT_EQ(out[1].data<float>()[i], 0.625f);
        }
    }
}

// ---- batching-equivalence battery ---------------------------------------

class ServingEquivalenceBattery
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingEquivalenceBattery, BatchedRowsBitIdenticalToSolo)
{
    auto workload = MakeServableWorkload(GetParam());
    ASSERT_TRUE(workload->has_serving_endpoint());
    const auto plan = workload->FreezeServingPlan();

    // 17 rows exceed every model's default training batch (autoenc's
    // 16 is the largest), so the last group is larger than any batch
    // the model trains at.
    constexpr std::size_t kRequests = 17;
    std::vector<RequestFeeds> requests;
    requests.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        requests.push_back(workload->SampleServingRequest());
    }

    // The solo reference: each request served entirely alone.
    std::vector<std::vector<Tensor>> solo;
    solo.reserve(kRequests);
    for (const auto& request : requests) {
        solo.push_back(plan->ServeOne(request));
    }

    for (const std::size_t size :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{8}, kRequests}) {
        for (std::size_t start = 0; start + size <= kRequests;
             start += size) {
            std::vector<const RequestFeeds*> group;
            for (std::size_t i = start; i < start + size; ++i) {
                group.push_back(&requests[i]);
            }
            const auto batched = plan->ServeBatch(group);
            ASSERT_EQ(batched.size(), size);
            for (std::size_t i = 0; i < size; ++i) {
                ASSERT_EQ(batched[i].size(), solo[start + i].size());
                for (std::size_t o = 0; o < batched[i].size(); ++o) {
                    ExpectBitIdentical(
                        batched[i][o], solo[start + i][o],
                        GetParam() + " request " +
                            std::to_string(start + i) + " output " +
                            std::to_string(o) + " at batch size " +
                            std::to_string(size));
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ServingEquivalenceBattery,
                         ::testing::Values("seq2seq", "memnet", "speech",
                                           "autoenc", "residual", "vgg",
                                           "alexnet", "deepq"),
                         [](const auto& info) { return info.param; });

// ---- Session-vs-FrozenPlan battery --------------------------------------

struct IdentityCase {
    const char* workload;
    int inter_op_threads;
};

class SessionVsFrozenBattery
    : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(SessionVsFrozenBattery, SameBytesFromSessionAndFrozenPlan)
{
    const auto& param = GetParam();
    auto workload = MakeServableWorkload(
        param.workload, /*seed=*/7,
        {.inter_op_threads = param.inter_op_threads});
    ASSERT_TRUE(workload->has_serving_endpoint());
    const auto plan = workload->FreezeServingPlan();
    const InferenceSignature& sig = plan->signature();

    // Stack a full batch of sampled requests into batched feeds.
    const std::int64_t batch = 8;
    std::vector<RequestFeeds> requests;
    for (std::int64_t i = 0; i < batch; ++i) {
        requests.push_back(workload->SampleServingRequest());
    }
    std::map<std::string, Tensor> feeds;
    for (const TensorSpec& spec : sig.inputs) {
        std::vector<std::int64_t> dims = {batch};
        dims.insert(dims.end(), spec.example_dims.begin(),
                    spec.example_dims.end());
        Tensor batched(spec.dtype, Shape(dims));
        const std::size_t row_bytes =
            batched.byte_size() / static_cast<std::size_t>(batch);
        char* dst = batched.dtype() == DType::kFloat32
                        ? reinterpret_cast<char*>(batched.data<float>())
                        : reinterpret_cast<char*>(
                              batched.data<std::int32_t>());
        for (std::int64_t i = 0; i < batch; ++i) {
            std::memcpy(dst + static_cast<std::size_t>(i) * row_bytes,
                        RawBytes(requests[static_cast<std::size_t>(i)].at(
                            spec.name)),
                        row_bytes);
        }
        feeds.emplace(spec.name, std::move(batched));
    }

    const auto from_session =
        workload->session().RunNamed(feeds, sig.fetches);
    const auto from_plan = plan->Run(feeds);
    ASSERT_EQ(from_session.size(), from_plan.size());
    for (std::size_t o = 0; o < from_plan.size(); ++o) {
        ExpectBitIdentical(from_session[o], from_plan[o],
                           std::string(param.workload) + " output " +
                               sig.output_names[o]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SessionVsFrozenBattery,
    ::testing::ValuesIn([] {
        std::vector<IdentityCase> cases;
        for (const char* name : {"seq2seq", "memnet", "speech", "autoenc",
                                 "residual", "vgg", "alexnet", "deepq"}) {
            for (int width : {1, 2, 4}) {
                cases.push_back({name, width});
            }
        }
        return cases;
    }()),
    [](const auto& info) {
        return std::string(info.param.workload) + "_width" +
               std::to_string(info.param.inter_op_threads);
    });

// ---- checkpoint -> freeze round trip ------------------------------------

class ServingCheckpointTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ServingCheckpointTest, FreezeFromRestoredCheckpointMatchesLive)
{
    auto live = MakeServableWorkload(GetParam(), /*seed=*/11);
    live->RunTraining(3);
    const std::string path = ::testing::TempDir() + "serving_roundtrip_" +
                             GetParam() + ".ckpt";
    runtime::SaveCheckpoint(live->session().variables(), path);

    // Inference on the live training session at this step, via its
    // frozen snapshot (freezing copies, it does not perturb).
    const auto live_plan = live->FreezeServingPlan();

    // A cold process restoring the checkpoint: same architecture,
    // different seed so every initial weight differs until restore.
    auto restored = MakeServableWorkload(GetParam(), /*seed=*/23);
    runtime::RestoreCheckpoint(&restored->session().variables(), path);
    const auto restored_plan = restored->FreezeServingPlan();

    for (int i = 0; i < 4; ++i) {
        const RequestFeeds request = live->SampleServingRequest();
        const auto expected = live_plan->ServeOne(request);
        const auto actual = restored_plan->ServeOne(request);
        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t o = 0; o < expected.size(); ++o) {
            ExpectBitIdentical(expected[o], actual[o],
                               GetParam() + " output " + std::to_string(o));
        }
    }
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, ServingCheckpointTest,
                         ::testing::Values("autoenc", "memnet"),
                         [](const auto& info) { return info.param; });

// ---- ServingRuntime shutdown contract -----------------------------------

TEST(ServingRuntimeTest, SubmitAfterStopThrows)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingRuntime runtime(workload->FreezeServingPlan());
    runtime.Stop();
    EXPECT_TRUE(runtime.stopped());
    EXPECT_THROW(runtime.Submit(workload->SampleServingRequest()),
                 std::runtime_error);
}

TEST(ServingRuntimeTest, MalformedRequestRejectedUpFront)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingRuntime runtime(workload->FreezeServingPlan());
    EXPECT_THROW(runtime.Submit({}), std::invalid_argument);

    auto request = workload->SampleServingRequest();
    request.begin()->second = Tensor::Zeros(Shape{1, 3});  // wrong shape.
    EXPECT_THROW(runtime.Submit(std::move(request)), std::invalid_argument);

    auto mistyped = workload->SampleServingRequest();
    mistyped.begin()->second =
        Tensor(DType::kInt32, mistyped.begin()->second.shape());
    EXPECT_THROW(runtime.Submit(std::move(mistyped)), std::invalid_argument);
}

TEST(ServingRuntimeTest, StopDrainsEveryAcceptedRequest)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingOptions options;
    options.max_batch = 4;
    // A long budget so requests are still queued when Stop() lands —
    // the drain, not the batcher deadline, must flush them.
    options.max_queue_delay = std::chrono::microseconds(500000);
    ServingRuntime runtime(workload->FreezeServingPlan(), options);

    std::vector<std::future<InferenceResponse>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(runtime.Submit(workload->SampleServingRequest()));
    }
    runtime.Stop();
    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(kFutureTimeout),
                  std::future_status::ready)
            << "a caller was left blocked across Stop()";
        const auto response = future.get();
        EXPECT_EQ(response.outputs.size(), 2u);
    }
}

TEST(ServingRuntimeTest, DestructorDrainsInFlightRequests)
{
    auto workload = MakeServableWorkload("autoenc");
    std::vector<std::future<InferenceResponse>> futures;
    {
        ServingOptions options;
        options.max_batch = 2;
        options.max_queue_delay = std::chrono::microseconds(200000);
        ServingRuntime runtime(workload->FreezeServingPlan(), options);
        for (int i = 0; i < 5; ++i) {
            futures.push_back(
                runtime.Submit(workload->SampleServingRequest()));
        }
    }  // destructor must complete-or-fail everything.
    for (auto& future : futures) {
        ASSERT_EQ(future.wait_for(kFutureTimeout),
                  std::future_status::ready);
        EXPECT_NO_THROW(future.get());
    }
}

TEST(ServingRuntimeTest, BoundedQueueRejectsWhenFull)
{
    auto workload = MakeServableWorkload("autoenc");
    ServingOptions options;
    options.max_batch = 8;
    // Nothing launches before the deadline, so the queue genuinely
    // fills: submit 3 into depth 2 and the third must bounce.
    options.max_queue_delay = std::chrono::microseconds(300000);
    options.max_queue_depth = 2;
    ServingRuntime runtime(workload->FreezeServingPlan(), options);

    auto f0 = runtime.Submit(workload->SampleServingRequest());
    auto f1 = runtime.Submit(workload->SampleServingRequest());
    EXPECT_THROW(runtime.Submit(workload->SampleServingRequest()),
                 std::runtime_error);
    ASSERT_EQ(f0.wait_for(kFutureTimeout), std::future_status::ready);
    ASSERT_EQ(f1.wait_for(kFutureTimeout), std::future_status::ready);
    EXPECT_NO_THROW(f0.get());
    EXPECT_NO_THROW(f1.get());
}

// ---- concurrent serving battery -----------------------------------------

struct ConcurrentCase {
    const char* workload;
    int inter_op_threads;
};

class ServingConcurrentBattery
    : public ::testing::TestWithParam<ConcurrentCase> {};

TEST_P(ServingConcurrentBattery, ClientsShareOnePlanWithoutLossOrCorruption)
{
    const auto& param = GetParam();
    auto workload = MakeServableWorkload(
        param.workload, /*seed=*/7,
        {.inter_op_threads = param.inter_op_threads});
    const auto plan = workload->FreezeServingPlan();

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 6;

    // Requests and their solo references are prepared up front: the
    // dataset generators are not thread-safe, and the reference gives
    // per-request correctness (which also rules out cross-request
    // response swaps — every request's payload is distinct).
    std::vector<std::vector<RequestFeeds>> requests(kClients);
    std::vector<std::vector<std::vector<Tensor>>> expected(kClients);
    for (int c = 0; c < kClients; ++c) {
        for (int r = 0; r < kRequestsPerClient; ++r) {
            requests[static_cast<std::size_t>(c)].push_back(
                workload->SampleServingRequest());
            expected[static_cast<std::size_t>(c)].push_back(plan->ServeOne(
                requests[static_cast<std::size_t>(c)].back()));
        }
    }

    ServingOptions options;
    options.max_batch = 4;
    options.max_queue_delay = std::chrono::microseconds(1000);
    options.executors = 2;
    ServingRuntime runtime(plan, options);

    std::atomic<int> responses{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937 arrival(static_cast<unsigned>(1234 + c));
            std::uniform_int_distribution<int> jitter_us(0, 1500);
            for (int r = 0; r < kRequestsPerClient; ++r) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(jitter_us(arrival)));
                auto future = runtime.Submit(
                    requests[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(r)]);
                const auto response = future.get();
                ++responses;
                const auto& want =
                    expected[static_cast<std::size_t>(c)]
                            [static_cast<std::size_t>(r)];
                if (response.outputs.size() != want.size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t o = 0; o < want.size(); ++o) {
                    const Tensor& got = response.outputs[o];
                    const std::size_t bytes =
                        static_cast<std::size_t>(want[o].num_elements()) *
                        DTypeSize(want[o].dtype());
                    if (got.shape().dims() != want[o].shape().dims() ||
                        std::memcmp(RawBytes(got), RawBytes(want[o]),
                                    bytes) != 0) {
                        ++mismatches;
                    }
                }
            }
        });
    }
    for (auto& client : clients) {
        client.join();
    }
    runtime.Stop();

    // Exactly one response per submission, every one bit-identical to
    // its solo reference.
    EXPECT_EQ(responses.load(), kClients * kRequestsPerClient);
    EXPECT_EQ(mismatches.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ServingConcurrentBattery,
    ::testing::Values(ConcurrentCase{"autoenc", 1},
                      ConcurrentCase{"autoenc", 2},
                      ConcurrentCase{"autoenc", 4},
                      // A graph whose Tile/Reshape batch comes from the
                      // feed, under contention.
                      ConcurrentCase{"memnet", 2}),
    [](const auto& info) {
        return std::string(info.param.workload) + "_width" +
               std::to_string(info.param.inter_op_threads);
    });

}  // namespace
}  // namespace fathom::serving
