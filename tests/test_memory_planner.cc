/**
 * @file
 * Tests for the liveness-driven memory planner and the buffer pool.
 *
 * The planner's contract (runtime::ExecutionOptions::memory_planner)
 * is that it only changes *when* dead intermediates are dropped and
 * *where* buffers come from — never a computed value. These tests pin that down: the
 * pool recycles freed blocks, the planner shrinks a deep chain's peak
 * footprint, exempt values (fetches, variables) survive to the end of
 * the step, and — the headline battery — every paper workload's loss
 * and variables are byte-identical with the planner on vs off under
 * inter-op thread counts 1, 2, and 4.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ops/register.h"
#include "runtime/session.h"
#include "tensor/buffer_pool.h"
#include "workloads/workload.h"

namespace fathom::runtime {
namespace {

using graph::Output;

void
ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                   const std::string& what)
{
    ASSERT_EQ(expected.dtype(), actual.dtype()) << what;
    ASSERT_TRUE(expected.shape() == actual.shape()) << what;
    const void* e = expected.dtype() == DType::kFloat32
                        ? static_cast<const void*>(expected.data<float>())
                        : static_cast<const void*>(
                              expected.data<std::int32_t>());
    const void* a = actual.dtype() == DType::kFloat32
                        ? static_cast<const void*>(actual.data<float>())
                        : static_cast<const void*>(
                              actual.data<std::int32_t>());
    EXPECT_EQ(0, std::memcmp(e, a, expected.byte_size()))
        << what << ": bytes differ with the memory planner toggled";
}

class MemoryPlannerTest : public ::testing::Test {
  protected:
    static void
    SetUpTestSuite()
    {
        ops::RegisterStandardOps();
    }

    void
    SetUp() override
    {
        BufferPool::Global().set_recycling(true);
    }
};

TEST_F(MemoryPlannerTest, BufferPoolRecyclesFreedBlocks)
{
    BufferPool& pool = BufferPool::Global();
    const auto before = pool.stats();
    {
        Tensor t(DType::kFloat32, Shape{1024});
        t.Fill(1.0f);
    }  // freed -> parked in the 4 KiB bucket.
    Tensor reused(DType::kFloat32, Shape{1024});
    reused.Fill(2.0f);
    const auto after = pool.stats();
    EXPECT_GE(after.pool_hits, before.pool_hits + 1);
    EXPECT_EQ(after.allocations, before.allocations + 2);
}

TEST_F(MemoryPlannerTest, BufferPoolRecyclingOffGoesToSystemAllocator)
{
    BufferPool& pool = BufferPool::Global();
    pool.set_recycling(false);
    const auto before = pool.stats();
    {
        Tensor t(DType::kFloat32, Shape{2048});
        t.Fill(1.0f);
    }
    Tensor fresh(DType::kFloat32, Shape{2048});
    fresh.Fill(2.0f);
    const auto after = pool.stats();
    EXPECT_EQ(after.pool_hits, before.pool_hits);
    EXPECT_EQ(after.fresh_allocs, before.fresh_allocs + 2);
    pool.set_recycling(true);
}

TEST_F(MemoryPlannerTest, BufferPoolTracksLiveAndPeakBytes)
{
    BufferPool& pool = BufferPool::Global();
    pool.ResetPeak();
    const auto before = pool.stats();
    {
        Tensor a(DType::kFloat32, Shape{1 << 16});  // 256 KiB bucket.
        a.Fill(0.0f);
        const auto during = pool.stats();
        EXPECT_GE(during.live_bytes, before.live_bytes + (1u << 18));
        EXPECT_GE(during.peak_bytes, before.live_bytes + (1u << 18));
    }
    const auto after = pool.stats();
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    // The high-water mark survives the free.
    EXPECT_GE(after.peak_bytes, before.live_bytes + (1u << 18));
}

/** A long elementwise chain where only the head and tail must live. */
Output
BuildChain(graph::GraphBuilder& b, Output x, int depth)
{
    for (int i = 0; i < depth; ++i) {
        x = b.Relu(b.Add(x, x));
    }
    return x;
}

TEST_F(MemoryPlannerTest, PlannerShrinksChainPeakFootprint)
{
    // 24 chained ops over a 256 KiB tensor: without the planner every
    // link stays live to the end of the step (~12 MiB); with it the
    // frontier is a couple of links.
    auto measure = [](bool planner) {
        Session session(1, {.memory_planner = planner});
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output y = BuildChain(b, x, 24);
        FeedMap feeds;
        feeds[x.node] = Tensor::Full(Shape{1 << 16}, 0.5f);
        const auto out = session.Run(feeds, {y});
        return std::make_pair(
            out[0].Clone(),
            session.tracer().steps().back().memory.peak_bytes);
    };

    const auto [off_value, off_peak] = measure(false);
    const auto [on_value, on_peak] = measure(true);
    ExpectBitIdentical(off_value, on_value, "chain fetch");
    // The planner must reclaim at least half the chain's footprint
    // (conservative: exact numbers depend on resident pool baseline).
    EXPECT_LT(on_peak + 6 * (1u << 18), off_peak);
}

TEST_F(MemoryPlannerTest, FetchedIntermediatesAreExemptFromRelease)
{
    Session planned;
    Session baseline(1, {.memory_planner = false});

    auto build = [](Session& s, std::vector<Output>* fetches) {
        auto b = s.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output mid = b.Tanh(b.Add(x, x));  // consumed AND fetched.
        const Output tail = BuildChain(b, mid, 6);
        *fetches = {x, mid, tail};
    };
    std::vector<Output> fp, fb;
    build(planned, &fp);
    build(baseline, &fb);

    Tensor feed = Tensor::Full(Shape{4096}, 0.25f);
    FeedMap feeds_p, feeds_b;
    feeds_p[fp[0].node] = feed;
    feeds_b[fb[0].node] = feed;
    const auto out_p = planned.Run(feeds_p, {fp[1], fp[2]});
    const auto out_b = baseline.Run(feeds_b, {fb[1], fb[2]});
    ASSERT_EQ(out_p.size(), out_b.size());
    for (std::size_t i = 0; i < out_p.size(); ++i) {
        ExpectBitIdentical(out_b[i], out_p[i],
                           "fetch " + std::to_string(i));
    }
}

TEST_F(MemoryPlannerTest, RunOnlyTargetsAndVariablesSurvivePlanning)
{
    // Variable updates through run-only targets: the planner must not
    // disturb stateful barrier semantics, and fetching a variable read
    // after the step still sees the pre-update clone.
    auto run = [](bool planner) {
        Session session(/*seed=*/3, {.memory_planner = planner});
        auto b = session.MakeBuilder();
        std::string w_name;
        const Output w = b.Variable("w", Tensor::Full(Shape{64}, 0.5f),
                                    &w_name);
        const Output x = b.Placeholder("x");
        const Output grad = b.Mul(b.Tanh(w), x);
        const Output loss = b.ReduceSum(grad, {0}, false);
        const auto target = b.ApplyGradientDescent(w_name, grad, 0.1f);
        FeedMap feeds;
        feeds[x.node] = Tensor::Full(Shape{64}, 0.125f);
        std::vector<Tensor> fetched;
        for (int step = 0; step < 3; ++step) {
            const auto out = session.Run(feeds, {loss, w}, {target});
            fetched.push_back(out[0].Clone());
            fetched.push_back(out[1].Clone());
        }
        fetched.push_back(session.variables().Get("w").Clone());
        return fetched;
    };

    const auto off = run(false);
    const auto on = run(true);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        ExpectBitIdentical(off[i], on[i], "value " + std::to_string(i));
    }
}

TEST_F(MemoryPlannerTest, PlannerComposesWithGraphOptimizer)
{
    // CSE + folding rewrite the plan; liveness must follow the
    // replacements, not the original edges.
    auto run = [](bool planner) {
        Session session(1, {.memory_planner = planner});
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output t1 = b.Tanh(x);
        const Output t2 = b.Tanh(x);  // CSE-merged with t1.
        const Output c = b.Mul(b.ScalarConst(2.0f), b.ScalarConst(3.0f));
        const Output y = b.Add(b.Mul(t1, c), t2);
        FeedMap feeds;
        feeds[x.node] = Tensor::Full(Shape{512}, 0.3f);
        return session.Run(feeds, {y})[0].Clone();
    };
    ExpectBitIdentical(run(false), run(true), "optimized graph fetch");
}

/**
 * The headline guarantee: for every paper workload, one training and
 * one inference step with the memory planner on are byte-identical —
 * loss and every variable — to the planner-off baseline, under
 * inter-op thread counts 1, 2, and 4.
 */
TEST_F(MemoryPlannerTest, AllWorkloadsPlannerOnOffBitIdenticalBattery)
{
    workloads::RegisterAllWorkloads();
    const auto names = workloads::WorkloadRegistry::Global().Names();
    ASSERT_EQ(names.size(), 8u);

    for (const auto& name : names) {
        SCOPED_TRACE(name);

        auto run_once = [&](bool planner, int inter) {
            auto workload =
                workloads::WorkloadRegistry::Global().Create(name);
            workloads::WorkloadConfig config;
            config.seed = 17;
            config.execution.memory_planner = planner;
            config.execution.inter_op_threads = inter;
            workload->Setup(config);
            const float train_loss = workload->RunTraining(1).final_loss;
            workload->RunInference(1);
            std::map<std::string, Tensor> variables;
            for (const auto& var :
                 workload->session().variables().Names()) {
                variables[var] =
                    workload->session().variables().Get(var).Clone();
            }
            return std::make_pair(train_loss, std::move(variables));
        };

        const auto [base_loss, base_vars] = run_once(false, 1);
        for (int inter : {1, 2, 4}) {
            SCOPED_TRACE("planner on, inter=" + std::to_string(inter));
            const auto [loss, vars] = run_once(true, inter);
            EXPECT_EQ(base_loss, loss);
            ASSERT_EQ(base_vars.size(), vars.size());
            for (const auto& [var_name, expected] : base_vars) {
                const auto it = vars.find(var_name);
                ASSERT_NE(it, vars.end()) << var_name;
                ExpectBitIdentical(expected, it->second, var_name);
            }
        }
    }
}

}  // namespace
}  // namespace fathom::runtime
