/**
 * @file
 * Tests for the session executor, variables, optimizer state, the
 * tracer, and the analytical device model.
 */
#include <gtest/gtest.h>

#include "kernels/gemm.h"
#include "ops/register.h"
#include "runtime/device_model.h"
#include "runtime/session.h"
#include "test_util.h"

namespace fathom::runtime {
namespace {

using graph::Output;
using test::ExpectTensorNear;

class RuntimeTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

TEST_F(RuntimeTest, FeedAndFetch)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Add(x, b.ScalarConst(1.0f));

    FeedMap feeds;
    feeds[x.node] = Tensor::FromVector({1, 2, 3});
    const auto out = session.Run(feeds, {y});
    ExpectTensorNear(Tensor::FromVector({2, 3, 4}), out[0]);
}

TEST_F(RuntimeTest, MissingFeedThrows)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Identity(x);
    EXPECT_THROW(session.Run({}, {y}), std::invalid_argument);
}

TEST_F(RuntimeTest, UnusedPlaceholderNeedsNoFeed)
{
    Session session;
    auto b = session.MakeBuilder();
    b.Placeholder("unused");
    const Output c = b.ScalarConst(5.0f);
    const auto out = session.Run({}, {c});
    EXPECT_FLOAT_EQ(out[0].scalar_value(), 5.0f);
}

TEST_F(RuntimeTest, RunNamedResolvesPlaceholders)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("input");
    const Output y = b.Mul(x, x);
    const auto out = session.RunNamed(
        {{"input", Tensor::FromVector({3})}}, {y});
    EXPECT_FLOAT_EQ(out[0].data<float>()[0], 9.0f);
}

TEST_F(RuntimeTest, VariableReadAndAssign)
{
    Session session;
    auto b = session.MakeBuilder();
    std::string var_name;
    const Output v = b.Variable("counter", Tensor::Scalar(10.0f), &var_name);
    const Output next = b.Add(v, b.ScalarConst(1.0f));
    const auto assign = b.Assign(var_name, next);

    for (int i = 0; i < 3; ++i) {
        session.Run({}, {}, {assign});
    }
    const auto out = session.Run({}, {v});
    EXPECT_FLOAT_EQ(out[0].scalar_value(), 13.0f);
}

TEST_F(RuntimeTest, GradientDescentConvergesOnQuadratic)
{
    // minimize (w - 3)^2 by SGD; w -> 3.
    Session session;
    auto b = session.MakeBuilder();
    std::string var_name;
    const Output w = b.Variable("w", Tensor::Scalar(0.0f), &var_name);
    const Output diff = b.Sub(w, b.ScalarConst(3.0f));
    const Output loss = b.Square(diff);
    const auto grads = autodiff::BuildGradients(b, loss, {w});
    const auto update = b.ApplyGradientDescent(var_name, grads[0], 0.1f);

    for (int i = 0; i < 100; ++i) {
        session.Run({}, {}, {update});
    }
    EXPECT_NEAR(session.variables().Get("w").scalar_value(), 3.0f, 1e-3f);
}

TEST_F(RuntimeTest, MomentumCreatesSlot)
{
    Session session;
    auto b = session.MakeBuilder();
    std::string var_name;
    const Output w = b.Variable("w", Tensor::Scalar(0.0f), &var_name);
    const Output loss = b.Square(w);
    const auto grads = autodiff::BuildGradients(b, loss, {w});
    const auto update = b.ApplyMomentum(var_name, grads[0], 0.05f, 0.9f);
    session.Run({}, {}, {update});
    EXPECT_TRUE(session.variables().Contains("w/momentum"));
}

TEST_F(RuntimeTest, RmsPropAndAdamConverge)
{
    for (const std::string kind : {"rmsprop", "adam"}) {
        Session session;
        auto b = session.MakeBuilder();
        std::string var_name;
        const Output w =
            b.Variable("w", Tensor::FromVector({0.0f, 5.0f}), &var_name);
        const Output target = b.Const(Tensor::FromVector({2.0f, -1.0f}));
        const Output loss =
            b.ReduceSum(b.Square(b.Sub(w, target)), {}, false);
        const auto grads = autodiff::BuildGradients(b, loss, {w});
        const auto update =
            kind == "rmsprop"
                ? b.ApplyRmsProp(var_name, grads[0], 0.05f, 0.9f, 1e-6f)
                : b.ApplyAdam(var_name, grads[0], 0.1f);
        for (int i = 0; i < 300; ++i) {
            session.Run({}, {}, {update});
        }
        const Tensor& w_final = session.variables().Get("w");
        EXPECT_NEAR(w_final.data<float>()[0], 2.0f, 0.05f) << kind;
        EXPECT_NEAR(w_final.data<float>()[1], -1.0f, 0.05f) << kind;
    }
}

TEST_F(RuntimeTest, TracerRecordsPerOpTimings)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.MatMul(x, x);

    FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{16, 16});
    session.Run(feeds, {y});

    ASSERT_EQ(session.tracer().steps().size(), 1u);
    const auto& step = session.tracer().steps()[0];
    bool found_matmul = false;
    for (const auto& r : step.records) {
        if (r.op_type == "MatMul") {
            found_matmul = true;
            EXPECT_EQ(r.op_class, graph::OpClass::kMatrixOps);
            EXPECT_GT(r.cost.flops, 0.0);
            // One 2-D tile: a 16x16 product fits inside a single
            // kGemmMc x kGemmNc block of the GEMM engine.
            EXPECT_EQ(r.cost.parallel_work,
                      kernels::GemmTileCount(16, 16));
            EXPECT_GE(r.wall_seconds, 0.0);
        }
    }
    EXPECT_TRUE(found_matmul);
    EXPECT_GE(step.wall_seconds, step.OpSeconds());
}

TEST_F(RuntimeTest, TracerCanBeDisabled)
{
    Session session;
    session.tracer().set_enabled(false);
    auto b = session.MakeBuilder();
    const Output c = b.ScalarConst(1.0f);
    session.Run({}, {c});
    EXPECT_TRUE(session.tracer().steps().empty());
}

TEST_F(RuntimeTest, MultiOutputFetch)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output labels = b.Placeholder("labels");
    const auto xent = b.SoftmaxCrossEntropy(x, labels);

    FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{4, 3});
    feeds[labels.node] = Tensor::FromVectorInt(Shape{4}, {0, 1, 2, 0});
    const auto out = session.Run(feeds, {xent[0], xent[1]});
    EXPECT_EQ(out[0].num_elements(), 1);
    EXPECT_EQ(out[1].shape(), Shape({4, 3}));
    EXPECT_GT(out[0].scalar_value(), 0.0f);
}

TEST_F(RuntimeTest, PlanCacheSurvivesGraphGrowth)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Add(x, x);
    FeedMap feeds;
    feeds[x.node] = Tensor::FromVector({1});
    session.Run(feeds, {y});
    // Extend the graph and run a new fetch through the same session.
    const Output z = b.Mul(y, y);
    const auto out = session.Run(feeds, {z});
    EXPECT_FLOAT_EQ(out[0].data<float>()[0], 4.0f);
}

TEST_F(RuntimeTest, FailingOpReportsNodeName)
{
    Session session;
    // Pin the kernel-time error path (the static verifier would reject
    // this plan before the kernel ever ran).
    session.set_options({.verify = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.MatMul(x, x);
    FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{2, 3});  // 2x3 * 2x3 invalid.
    try {
        session.Run(feeds, {y});
        FAIL() << "expected failure";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("matmul"), std::string::npos);
    }
}

TEST_F(RuntimeTest, RandomOpsDifferAcrossStepsButSeedIsStable)
{
    Session s1(/*seed=*/99);
    auto b1 = s1.MakeBuilder();
    const Output r1 = b1.RandomNormal({4}, 0.0f, 1.0f);
    const Tensor a = s1.Run({}, {r1})[0];
    const Tensor b = s1.Run({}, {r1})[0];
    // Stateful: consecutive runs differ.
    bool all_same = true;
    for (int i = 0; i < 4; ++i) {
        all_same &= (a.data<float>()[i] == b.data<float>()[i]);
    }
    EXPECT_FALSE(all_same);

    // Same seed reproduces the stream.
    Session s2(/*seed=*/99);
    auto b2 = s2.MakeBuilder();
    const Output r2 = b2.RandomNormal({4}, 0.0f, 1.0f);
    const Tensor a2 = s2.Run({}, {r2})[0];
    ExpectTensorNear(a, a2);
}

// ---- device model ---------------------------------------------------------

TEST(DeviceModelTest, MoreThreadsNeverSlower)
{
    graph::OpCost cost;
    cost.flops = 1e9;
    cost.bytes = 1e6;
    cost.parallel_work = 1 << 20;
    double prev = 1e30;
    for (int t : {1, 2, 4, 8}) {
        const double s = EstimateSeconds(cost, DeviceSpec::Cpu(t));
        EXPECT_LE(s, prev);
        prev = s;
    }
}

TEST(DeviceModelTest, AmdahlSpeedupBounds)
{
    graph::OpCost cost;
    cost.flops = 1e9;
    cost.bytes = 0;
    cost.parallel_work = 1 << 20;
    const double t1 = EstimateSeconds(cost, DeviceSpec::Cpu(1));
    const double t8 = EstimateSeconds(cost, DeviceSpec::Cpu(8));
    const double speedup = t1 / t8;
    EXPECT_GT(speedup, 4.0);  // large parallel op scales well...
    EXPECT_LE(speedup, 8.01);  // ...but never superlinearly.
}

TEST(DeviceModelTest, SkinnyOpsDoNotScale)
{
    // The memnet effect: an op too small to amortize thread
    // coordination stays serial regardless of the pool width.
    graph::OpCost cost;
    cost.flops = 5000;  // below min_work_per_thread * 2.
    cost.bytes = 0;
    cost.parallel_work = 5000;
    EXPECT_EQ(EffectiveThreads(cost, DeviceSpec::Cpu(8)), 1);
    const double t1 = EstimateSeconds(cost, DeviceSpec::Cpu(1));
    const double t8 = EstimateSeconds(cost, DeviceSpec::Cpu(8));
    EXPECT_DOUBLE_EQ(t1, t8);
}

TEST(DeviceModelTest, FewParallelUnitsCapThreads)
{
    // A 4-row matmul cannot use more than 4 threads however large it is.
    graph::OpCost cost;
    cost.flops = 1e8;
    cost.bytes = 0;
    cost.parallel_work = 4;
    EXPECT_EQ(EffectiveThreads(cost, DeviceSpec::Cpu(8)), 4);
}

TEST(DeviceModelTest, GpuWinsBigOpsLosesSmallOps)
{
    graph::OpCost big;
    big.flops = 1e10;
    big.bytes = 1e7;
    big.parallel_work = 1 << 22;
    EXPECT_LT(EstimateSeconds(big, DeviceSpec::Gpu()),
              EstimateSeconds(big, DeviceSpec::Cpu(1)));

    graph::OpCost tiny;
    tiny.flops = 1e3;
    tiny.bytes = 1e3;
    tiny.parallel_work = 8;
    // Launch overhead dominates: the GPU is slower on tiny ops.
    EXPECT_GT(EstimateSeconds(tiny, DeviceSpec::Gpu()),
              EstimateSeconds(tiny, DeviceSpec::Cpu(1)));
}

TEST(DeviceModelTest, MemoryBoundOpsHitBandwidthRoofline)
{
    graph::OpCost cost;
    cost.flops = 1.0;   // negligible compute.
    cost.bytes = 2e9;   // 2 GB moved.
    cost.parallel_work = 1 << 22;
    const DeviceSpec cpu8 = DeviceSpec::Cpu(8);
    const double t = EstimateSeconds(cost, cpu8);
    EXPECT_NEAR(t, cost.bytes / cpu8.bytes_per_sec, 1e-3);
}

}  // namespace
}  // namespace fathom::runtime
