/**
 * @file
 * Determinism battery for the inter-op parallel executor.
 *
 * The executor's contract (ExecutionOptions::inter_op_threads) is that
 * only scheduling changes with the thread count — every fetched tensor
 * and every variable is bit-identical to the sequential executor, because
 * stateful ops (RNG draws, parameter updates) act as plan-order
 * barriers. These tests pin that contract down to the byte, on small
 * synthetic graphs and on all eight paper workloads.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ops/register.h"
#include "runtime/session.h"
#include "tensor/buffer_pool.h"
#include "workloads/workload.h"

namespace fathom::runtime {
namespace {

using graph::Output;

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
        << what << ": bytes differ from the sequential executor";
}

class InterOpExecutorTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

/** A diamond: one source fanning out to parallel branches and back. */
Output
BuildDiamond(graph::GraphBuilder& b, Output x)
{
    const Output a = b.Relu(x);
    const Output c = b.Tanh(x);
    const Output d = b.Sigmoid(x);
    const Output e = b.Mul(a, c);
    return b.AddN({a, c, d, e});
}

Tensor
Ramp(std::int64_t n, float scale)
{
    Tensor t(DType::kFloat32, Shape{n});
    for (std::int64_t i = 0; i < n; ++i) {
        t.data<float>()[i] = scale * static_cast<float>(i - n / 2);
    }
    return t;
}

TEST_F(InterOpExecutorTest, DiamondMatchesSequentialBitwise)
{
    for (int inter : {2, 4}) {
        Session sequential;
        Session parallel(1, {.inter_op_threads = inter});

        auto bs = sequential.MakeBuilder();
        auto bp = parallel.MakeBuilder();
        const Output xs = bs.Placeholder("x");
        const Output xp = bp.Placeholder("x");
        const Output ys = BuildDiamond(bs, xs);
        const Output yp = BuildDiamond(bp, xp);

        for (int step = 0; step < 3; ++step) {
            const Tensor feed = Ramp(64, 0.1f * static_cast<float>(step + 1));
            FeedMap fs, fp;
            fs[xs.node] = feed;
            fp[xp.node] = feed;
            const auto out_s = sequential.Run(fs, {ys});
            const auto out_p = parallel.Run(fp, {yp});
            ExpectBitIdentical(out_s[0], out_p[0],
                               "diamond inter=" + std::to_string(inter) +
                                   " step=" + std::to_string(step));
        }
    }
}

TEST_F(InterOpExecutorTest, ToggleThreadCountOnOneSession)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = BuildDiamond(b, x);

    FeedMap feeds;
    feeds[x.node] = Ramp(32, 0.25f);
    const auto baseline = session.Run(feeds, {y});
    for (int inter : {2, 4, 1}) {
        session.set_options({.inter_op_threads = inter});
        const auto out = session.Run(feeds, {y});
        ExpectBitIdentical(baseline[0], out[0],
                           "toggle inter=" + std::to_string(inter));
    }
}

TEST_F(InterOpExecutorTest, WideFanoutMatchesSequentialBitwise)
{
    // 32 independent branches keep the ready queue genuinely wide.
    Session sequential;
    Session parallel(1, {.inter_op_threads = 4});

    auto build = [](graph::GraphBuilder& b, Output x) {
        std::vector<Output> fetches;
        for (int i = 0; i < 32; ++i) {
            const Output s = b.ScalarConst(0.125f * static_cast<float>(i + 1));
            fetches.push_back(b.Tanh(b.Mul(x, s)));
        }
        return fetches;
    };

    auto bs = sequential.MakeBuilder();
    auto bp = parallel.MakeBuilder();
    const Output xs = bs.Placeholder("x");
    const Output xp = bp.Placeholder("x");
    const auto fetch_s = build(bs, xs);
    const auto fetch_p = build(bp, xp);

    const Tensor feed = Ramp(48, 0.05f);
    FeedMap fs, fp;
    fs[xs.node] = feed;
    fp[xp.node] = feed;
    const auto out_s = sequential.Run(fs, fetch_s);
    const auto out_p = parallel.Run(fp, fetch_p);
    ASSERT_EQ(out_s.size(), out_p.size());
    for (std::size_t i = 0; i < out_s.size(); ++i) {
        ExpectBitIdentical(out_s[i], out_p[i],
                           "fanout branch " + std::to_string(i));
    }
}

TEST_F(InterOpExecutorTest, RandomOpsDrawInPlanOrder)
{
    // Two RNG ops between pure branches: the barriers must serialize
    // the draws so both sessions consume the seed stream identically.
    auto build = [](Session& session, std::vector<Output>* fetches) {
        auto b = session.MakeBuilder();
        const Output r1 = b.RandomNormal({16, 16}, 0.0f, 1.0f);
        const Output a = b.Relu(r1);
        const Output c = b.Tanh(r1);
        const Output r2 = b.RandomUniform({16, 16}, -1.0f, 1.0f);
        const Output mix = b.Mul(b.Add(a, c), r2);
        *fetches = {r1, r2, mix};
    };

    Session sequential(/*seed=*/7);
    Session parallel(/*seed=*/7, {.inter_op_threads = 4});
    std::vector<Output> fetch_s, fetch_p;
    build(sequential, &fetch_s);
    build(parallel, &fetch_p);

    for (int step = 0; step < 2; ++step) {
        const auto out_s = sequential.Run({}, fetch_s);
        const auto out_p = parallel.Run({}, fetch_p);
        for (std::size_t i = 0; i < out_s.size(); ++i) {
            ExpectBitIdentical(out_s[i], out_p[i],
                               "rng fetch " + std::to_string(i) + " step " +
                                   std::to_string(step));
        }
    }
}

TEST_F(InterOpExecutorTest, OptimizerBarrierKeepsVariablesIdentical)
{
    auto build = [](Session& session, Output* x_out, Output* loss,
                    std::vector<graph::NodeId>* targets) {
        auto b = session.MakeBuilder();
        std::string w_name, v_name;
        const Output w =
            b.Variable("w", Ramp(32, 0.02f), &w_name);
        const Output v =
            b.Variable("v", Ramp(32, -0.03f), &v_name);
        const Output x = b.Placeholder("x");
        *x_out = x;
        // Independent gradient branches feeding two updates.
        const Output gw = b.Mul(b.Tanh(w), x);
        const Output gv = b.Mul(b.Sigmoid(v), x);
        *loss = b.ReduceSum(b.Add(gw, gv), {0}, false);
        targets->push_back(b.ApplyGradientDescent(w_name, gw, 0.05f));
        targets->push_back(b.ApplyGradientDescent(v_name, gv, 0.05f));
    };

    Session sequential;
    Session parallel(1, {.inter_op_threads = 4});
    Output x_s, x_p, loss_s, loss_p;
    std::vector<graph::NodeId> targets_s, targets_p;
    build(sequential, &x_s, &loss_s, &targets_s);
    build(parallel, &x_p, &loss_p, &targets_p);

    for (int step = 0; step < 3; ++step) {
        const Tensor feed = Ramp(32, 0.01f * static_cast<float>(step + 1));
        FeedMap fs, fp;
        fs[x_s.node] = feed;
        fp[x_p.node] = feed;
        const auto out_s = sequential.Run(fs, {loss_s}, targets_s);
        const auto out_p = parallel.Run(fp, {loss_p}, targets_p);
        ExpectBitIdentical(out_s[0], out_p[0],
                           "loss step " + std::to_string(step));
        for (const std::string name : {"w", "v"}) {
            ExpectBitIdentical(sequential.variables().Get(name),
                               parallel.variables().Get(name),
                               "variable " + name + " step " +
                                   std::to_string(step));
        }
    }
}

TEST_F(InterOpExecutorTest, MissingFeedThrowsAndSessionStaysUsable)
{
    Session session(1, {.inter_op_threads = 4});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = BuildDiamond(b, x);

    EXPECT_THROW(session.Run({}, {y}), std::invalid_argument);

    FeedMap feeds;
    feeds[x.node] = Ramp(16, 0.5f);
    const auto out = session.Run(feeds, {y});
    EXPECT_EQ(out[0].num_elements(), 16);
}

TEST_F(InterOpExecutorTest, KernelFailurePropagatesAndEndsStepCleanly)
{
    Session session;
    // Pin the mid-step failure path: the static verifier would reject
    // the mismatched MatMul at plan build, before any step ran.
    session.set_options({.inter_op_threads = 4, .verify = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Placeholder("y");
    // Healthy branches race the failing MatMul.
    const Output good = b.AddN({b.Relu(x), b.Tanh(x), b.Sigmoid(x)});
    const Output bad = b.MatMul(x, y);

    FeedMap feeds;
    feeds[x.node] = Tensor(DType::kFloat32, Shape{4, 4});
    feeds[y.node] = Tensor(DType::kFloat32, Shape{5, 5});
    feeds[x.node].Fill(0.5f);
    feeds[y.node].Fill(0.25f);
    const std::size_t steps_before = session.tracer().steps().size();
    const auto live_before = BufferPool::Global().stats().live_bytes;
    EXPECT_THROW(session.Run(feeds, {good, bad}), std::runtime_error);
    // The failed step still closed its trace and returned every buffer.
    EXPECT_EQ(session.tracer().steps().size(), steps_before + 1);
    EXPECT_EQ(BufferPool::Global().stats().live_bytes, live_before);

    // And the session still executes the healthy subgraph.
    const auto out = session.Run(feeds, {good});
    EXPECT_EQ(out[0].num_elements(), 16);
}

TEST_F(InterOpExecutorTest, TraceIsCanonicalUnderParallelExecution)
{
    Session sequential;
    Session parallel(1, {.inter_op_threads = 4});

    auto bs = sequential.MakeBuilder();
    auto bp = parallel.MakeBuilder();
    const Output xs = bs.Placeholder("x");
    const Output xp = bp.Placeholder("x");
    const Output ys = BuildDiamond(bs, xs);
    const Output yp = BuildDiamond(bp, xp);

    const Tensor feed = Ramp(32, 0.1f);
    FeedMap fs, fp;
    fs[xs.node] = feed;
    fp[xp.node] = feed;
    sequential.Run(fs, {ys});
    parallel.Run(fp, {yp});

    const auto& rec_s = sequential.tracer().steps().back().records;
    const auto& rec_p = parallel.tracer().steps().back().records;
    ASSERT_EQ(rec_s.size(), rec_p.size());
    for (std::size_t i = 0; i < rec_s.size(); ++i) {
        // Same plan, same canonical order: node ids and seq line up.
        EXPECT_EQ(rec_s[i].node, rec_p[i].node) << "record " << i;
        EXPECT_EQ(rec_s[i].seq, rec_p[i].seq) << "record " << i;
        EXPECT_EQ(rec_s[i].op_type, rec_p[i].op_type) << "record " << i;
        if (i > 0) {
            EXPECT_LT(rec_p[i - 1].seq, rec_p[i].seq) << "record " << i;
        }
    }
}

/**
 * The headline guarantee across the whole suite: for every paper
 * workload, one training step and one inference step under inter-op
 * thread counts {2, 4} leave the training loss and every variable
 * bit-identical to the sequential executor with the same seed.
 */
TEST_F(InterOpExecutorTest, AllWorkloadsBitIdenticalBattery)
{
    workloads::RegisterAllWorkloads();
    const auto names = workloads::WorkloadRegistry::Global().Names();
    ASSERT_EQ(names.size(), 8u);

    for (const auto& name : names) {
        SCOPED_TRACE(name);

        auto run_once = [&](int inter) {
            auto workload =
                workloads::WorkloadRegistry::Global().Create(name);
            workloads::WorkloadConfig config;
            config.seed = 11;
            config.execution.inter_op_threads = inter;
            workload->Setup(config);
            const float train_loss =
                workload->RunTraining(1).final_loss;
            workload->RunInference(1);
            std::map<std::string, Tensor> variables;
            for (const auto& var :
                 workload->session().variables().Names()) {
                variables[var] =
                    workload->session().variables().Get(var).Clone();
            }
            const std::size_t traced_ops =
                workload->session().tracer().steps().empty()
                    ? 0
                    : workload->session()
                          .tracer()
                          .steps()
                          .back()
                          .records.size();
            return std::make_tuple(train_loss, std::move(variables),
                                   traced_ops);
        };

        const auto [base_loss, base_vars, base_traced] = run_once(1);
        for (int inter : {2, 4}) {
            SCOPED_TRACE("inter=" + std::to_string(inter));
            const auto [loss, vars, traced] = run_once(inter);
            // Exact equality: same arithmetic in the same order.
            EXPECT_EQ(base_loss, loss);
            EXPECT_EQ(base_traced, traced);
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
