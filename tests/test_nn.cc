/**
 * @file
 * Tests for the layer library: initializers, dense/conv layers,
 * dropout, embeddings, LSTM cells, attention, and optimizers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "autodiff/gradients.h"
#include "nn/attention.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "test_util.h"

namespace fathom::nn {
namespace {

using graph::Output;

class NnTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

/** Row @p row of float tensor @p t, as a [1, ...] tensor. */
Tensor
Row(const Tensor& t, std::int64_t row)
{
    std::vector<std::int64_t> dims = t.shape().dims();
    dims[0] = 1;
    Tensor out(DType::kFloat32, Shape(dims));
    const std::int64_t n = out.num_elements();
    std::copy_n(t.data<float>() + row * n, n, out.data<float>());
    return out;
}

/**
 * Runs @p fetches on @p feeds (each [batch, ...]) and then on every
 * row alone: each batched row must equal its solo run bit for bit, so
 * the graph takes its batch from the feed and mixes no rows.
 */
void
ExpectRowsMatchSolo(runtime::Session& session, const runtime::FeedMap& feeds,
                    const std::vector<Output>& fetches)
{
    const auto batched = session.Run(feeds, fetches);
    const std::int64_t rows = feeds.begin()->second.shape().dims()[0];
    for (const Tensor& out : batched) {
        ASSERT_EQ(out.shape().dims()[0], rows);
    }
    for (std::int64_t i = 0; i < rows; ++i) {
        runtime::FeedMap solo;
        for (const auto& [node, value] : feeds) {
            solo[node] = Row(value, i);
        }
        const auto alone = session.Run(solo, fetches);
        for (std::size_t f = 0; f < fetches.size(); ++f) {
            const Tensor expected = Row(batched[f], i);
            ASSERT_EQ(alone[f].shape(), expected.shape());
            EXPECT_EQ(std::memcmp(alone[f].data<float>(),
                                  expected.data<float>(),
                                  static_cast<std::size_t>(
                                      expected.num_elements()) *
                                      sizeof(float)),
                      0)
                << "batch " << rows << " row " << i << " fetch " << f;
        }
    }
}

TEST(InitTest, GlorotUniformBounds)
{
    Rng rng(1);
    const Tensor w = GlorotUniform(rng, Shape{100, 50}, 100, 50);
    const float bound = std::sqrt(6.0f / 150.0f);
    for (std::int64_t i = 0; i < w.num_elements(); ++i) {
        EXPECT_LE(std::fabs(w.data<float>()[i]), bound);
    }
}

TEST(InitTest, HeNormalVariance)
{
    Rng rng(2);
    const Tensor w = HeNormal(rng, Shape{200, 100}, 200);
    double sq = 0.0;
    for (std::int64_t i = 0; i < w.num_elements(); ++i) {
        sq += w.data<float>()[i] * w.data<float>()[i];
    }
    const double var = sq / static_cast<double>(w.num_elements());
    EXPECT_NEAR(var, 2.0 / 200.0, 2.0 / 200.0 * 0.15);
}

TEST(InitTest, TruncatedNormalClipsAtTwoSigma)
{
    Rng rng(3);
    const Tensor w = TruncatedNormal(rng, Shape{5000}, 0.5f);
    for (std::int64_t i = 0; i < w.num_elements(); ++i) {
        EXPECT_LE(std::fabs(w.data<float>()[i]), 1.0f + 1e-5f);
    }
}

TEST(InitTest, Fans)
{
    EXPECT_EQ(DenseFans(Shape{10, 20}), (std::pair<std::int64_t,
                                                   std::int64_t>{10, 20}));
    EXPECT_EQ(ConvFans(Shape{3, 3, 4, 8}),
              (std::pair<std::int64_t, std::int64_t>{36, 72}));
    EXPECT_THROW(DenseFans(Shape{10}), std::invalid_argument);
    EXPECT_THROW(ConvFans(Shape{3, 3, 4}), std::invalid_argument);
}

TEST_F(NnTest, DenseLayerShapesAndParams)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(4);
    const Output x = b.Placeholder("x");
    const Output y = Dense(b, &params, rng, "fc", x, 3, 5,
                           Activation::kRelu);
    EXPECT_EQ(params.params().size(), 2u);  // weights + bias.

    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{7, 3});
    const auto out = session.Run(feeds, {y});
    EXPECT_EQ(out[0].shape(), Shape({7, 5}));
    for (std::int64_t i = 0; i < out[0].num_elements(); ++i) {
        EXPECT_GE(out[0].data<float>()[i], 0.0f);  // relu applied.
    }
}

TEST_F(NnTest, SharedDenseAppliesSameWeightsTwice)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(5);
    const auto dense = MakeDense(b, &params, rng, "shared", 4, 4);
    const Output x = b.Placeholder("x");
    const Output y1 = ApplyDense(b, dense, x);
    const Output y2 = ApplyDense(b, dense, x);
    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{2, 4});
    const auto out = session.Run(feeds, {y1, y2});
    test::ExpectTensorNear(out[0], out[1]);
    EXPECT_EQ(params.params().size(), 2u);  // one weight set only.
}

TEST_F(NnTest, Conv2DLayerShape)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(6);
    const Output x = b.Placeholder("x");
    const Output y =
        Conv2DLayer(b, &params, rng, "conv", x, 3, 2, 8, 2, "SAME");
    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{1, 8, 8, 2});
    const auto out = session.Run(feeds, {y});
    EXPECT_EQ(out[0].shape(), Shape({1, 4, 4, 8}));
}

TEST_F(NnTest, DropoutIdentityAtInferenceAndUnbiasedAtTraining)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output infer = Dropout(b, x, 0.5f, /*training=*/false);
    EXPECT_EQ(infer.node, x.node);  // no nodes added.

    const Output train = Dropout(b, x, 0.5f, /*training=*/true);
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Full(Shape{10000}, 1.0f);
    const auto out = session.Run(feeds, {train});
    double sum = 0.0;
    int zeros = 0;
    for (std::int64_t i = 0; i < out[0].num_elements(); ++i) {
        sum += out[0].data<float>()[i];
        zeros += out[0].data<float>()[i] == 0.0f;
    }
    // E[mask * x] = x, and about half the entries are dropped.
    EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
    EXPECT_NEAR(zeros / 10000.0, 0.5, 0.05);
}

TEST_F(NnTest, EmbeddingLookupShape)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(7);
    const Output idx = b.Placeholder("idx");
    const Output e = Embedding(b, &params, rng, "embed", idx, 50, 16);
    runtime::FeedMap feeds;
    feeds[idx.node] = Tensor::FromVectorInt(Shape{3, 4},
                                            {0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                             10, 49});
    const auto out = session.Run(feeds, {e});
    EXPECT_EQ(out[0].shape(), Shape({3, 4, 16}));
}

TEST_F(NnTest, LstmCellStepShapesAndStateEvolution)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(8);
    LstmCell cell(b, &params, rng, "lstm", 6, 10);
    const Output x = b.Placeholder("x");
    auto state = cell.ZeroState(b, x);
    const auto next = cell.Step(b, x, state);

    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{3, 6});
    const auto out = session.Run(feeds, {next.h, next.c});
    EXPECT_EQ(out[0].shape(), Shape({3, 10}));
    EXPECT_EQ(out[1].shape(), Shape({3, 10}));
    // Non-zero hidden state after one step with random input.
    double norm = 0.0;
    for (std::int64_t i = 0; i < out[0].num_elements(); ++i) {
        norm += std::fabs(out[0].data<float>()[i]);
    }
    EXPECT_GT(norm, 0.0);
    // h = o * tanh(c) is bounded in (-1, 1).
    for (std::int64_t i = 0; i < out[0].num_elements(); ++i) {
        EXPECT_LT(std::fabs(out[0].data<float>()[i]), 1.0f);
    }
}

TEST_F(NnTest, LstmForgetBiasInitializedToOne)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(9);
    LstmCell cell(b, &params, rng, "lstm", 4, 8);
    const Tensor& bias = session.variables().Get("lstm/bias");
    // Layout: [i, f, g, o] x hidden.
    for (std::int64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(bias.data<float>()[i], 0.0f);       // input gate.
        EXPECT_EQ(bias.data<float>()[8 + i], 1.0f);   // forget gate.
        EXPECT_EQ(bias.data<float>()[16 + i], 0.0f);  // cell gate.
    }
}

TEST_F(NnTest, LstmStackUnrollsAndLearns)
{
    // A 1-layer LSTM over 4 steps must learn to output the *first*
    // input's sign at the last step (a memory task).
    runtime::Session session(11);
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(10);
    std::vector<LstmCell> cells;
    cells.emplace_back(b, &params, rng, "l0", 1, 12);

    std::vector<Output> inputs;
    for (int t = 0; t < 4; ++t) {
        inputs.push_back(b.Placeholder("x" + std::to_string(t)));
    }
    const auto result = RunLstmStack(b, cells, inputs);
    ASSERT_EQ(result.outputs.size(), 4u);
    ASSERT_EQ(result.final_states.size(), 1u);

    const auto head = MakeDense(b, &params, rng, "head", 12, 1);
    const Output y = ApplyDense(b, head, result.outputs.back());
    const Output target = b.Placeholder("target");
    const Output loss = b.ReduceMean(b.Square(b.Sub(y, target)), {}, false);
    const auto train_op =
        Minimize(b, loss, params, OptimizerConfig::Adam(0.02f));

    Rng data_rng(12);
    float final_loss = 1e9f;
    for (int step = 0; step < 150; ++step) {
        runtime::FeedMap feeds;
        Tensor first(DType::kFloat32, Shape{8, 1});
        for (int i = 0; i < 8; ++i) {
            first.data<float>()[i] = data_rng.Uniform() < 0.5 ? -1.0f : 1.0f;
        }
        feeds[inputs[0].node] = first;
        for (int t = 1; t < 4; ++t) {
            feeds[inputs[static_cast<std::size_t>(t)].node] =
                test::RandomTensor(Shape{8, 1}, 100 + step * 4 + t, 0.3f);
        }
        feeds[target.node] = first;
        final_loss = session.Run(feeds, {loss}, {train_op})[0].scalar_value();
    }
    EXPECT_LT(final_loss, 0.2f);

    // The graph trained at batch 8 serves any batch, row by row.
    for (const std::int64_t batch : {8, 3}) {
        runtime::FeedMap feeds;
        for (int t = 0; t < 4; ++t) {
            feeds[inputs[static_cast<std::size_t>(t)].node] =
                test::RandomTensor(Shape{batch, 1}, 500 + batch * 4 + t);
        }
        ExpectRowsMatchSolo(session, feeds,
                            {y, result.final_states[0].c});
    }
}

TEST_F(NnTest, AttentionContextShapeAndWeighting)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(13);
    AdditiveAttention attn(b, &params, rng, "attn", 6, 4, 5);

    std::vector<Output> enc;
    for (int t = 0; t < 3; ++t) {
        enc.push_back(b.Placeholder("enc" + std::to_string(t)));
    }
    const Output query = b.Placeholder("q");
    const Output ctx = attn.Context(b, enc, query);

    runtime::FeedMap feeds;
    for (int t = 0; t < 3; ++t) {
        feeds[enc[static_cast<std::size_t>(t)].node] =
            test::RandomTensor(Shape{2, 6}, 200 + t);
    }
    feeds[query.node] = test::RandomTensor(Shape{2, 4}, 210);
    const auto out = session.Run(feeds, {ctx});
    EXPECT_EQ(out[0].shape(), Shape({2, 6}));

    // Context is a convex combination of encoder states: each element
    // lies within the min/max over the states.
    for (std::int64_t b_i = 0; b_i < 2; ++b_i) {
        for (std::int64_t d = 0; d < 6; ++d) {
            float lo = 1e9f;
            float hi = -1e9f;
            for (int t = 0; t < 3; ++t) {
                const float v =
                    feeds[enc[static_cast<std::size_t>(t)].node]
                        .data<float>()[b_i * 6 + d];
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            const float c = out[0].data<float>()[b_i * 6 + d];
            EXPECT_GE(c, lo - 1e-4f);
            EXPECT_LE(c, hi + 1e-4f);
        }
    }

    // The same graph at two more batch sizes, row by row.
    for (const std::int64_t batch : {5, 2}) {
        runtime::FeedMap rows;
        for (int t = 0; t < 3; ++t) {
            rows[enc[static_cast<std::size_t>(t)].node] =
                test::RandomTensor(Shape{batch, 6}, 300 + batch * 4 + t);
        }
        rows[query.node] = test::RandomTensor(Shape{batch, 4}, 320 + batch);
        ExpectRowsMatchSolo(session, rows, {ctx});
    }
}

TEST_F(NnTest, AttentionRejectsEmptyStates)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(14);
    AdditiveAttention attn(b, &params, rng, "attn", 4, 4, 4);
    const Output q = b.Placeholder("q");
    EXPECT_THROW(attn.Context(b, {}, q), std::invalid_argument);
}

TEST_F(NnTest, BatchNormInferenceUsesRunningStats)
{
    runtime::Session session(40);
    auto b = session.MakeBuilder();
    Trainables params;
    const auto bn = MakeBatchNorm(b, &params, "bn", 3, 1e-3f);
    const Output x = b.Placeholder("x");

    const auto train = ApplyBatchNormTraining(b, bn, x, /*momentum=*/0.0f);
    const Output infer = ApplyBatchNormInference(b, bn, x);

    // A batch with known per-channel statistics.
    Tensor batch = test::RandomTensor(Shape{64, 3}, 41, 2.0f);
    runtime::FeedMap feeds;
    feeds[x.node] = batch;

    // With momentum 0 the running stats become exactly the batch stats
    // after one update...
    session.Run(feeds, {train.y}, train.stat_updates);
    // ...so inference on the same batch must match training output.
    const auto train_out = session.Run(feeds, {train.y});
    const auto infer_out = session.Run(feeds, {infer});
    test::ExpectTensorNear(train_out[0], infer_out[0], 1e-3f);
}

TEST_F(NnTest, BatchNormRunningStatsConvergeWithMomentum)
{
    runtime::Session session(42);
    auto b = session.MakeBuilder();
    Trainables params;
    const auto bn = MakeBatchNorm(b, &params, "bn", 2);
    const Output x = b.Placeholder("x");
    const auto train = ApplyBatchNormTraining(b, bn, x, /*momentum=*/0.8f);

    // Feed batches with mean ~5 and ~-2 per channel repeatedly.
    Rng rng(43);
    for (int step = 0; step < 60; ++step) {
        Tensor batch(DType::kFloat32, Shape{32, 2});
        for (int i = 0; i < 32; ++i) {
            batch.data<float>()[i * 2 + 0] = rng.Normal(5.0f, 1.0f);
            batch.data<float>()[i * 2 + 1] = rng.Normal(-2.0f, 0.5f);
        }
        runtime::FeedMap feeds;
        feeds[x.node] = batch;
        session.Run(feeds, {train.y}, train.stat_updates);
    }
    const Tensor& mean = session.variables().Get(bn.running_mean_name);
    const Tensor& var = session.variables().Get(bn.running_var_name);
    EXPECT_NEAR(mean.data<float>()[0], 5.0f, 0.3f);
    EXPECT_NEAR(mean.data<float>()[1], -2.0f, 0.3f);
    EXPECT_NEAR(var.data<float>()[0], 1.0f, 0.3f);
    EXPECT_NEAR(var.data<float>()[1], 0.25f, 0.15f);
}

TEST_F(NnTest, BatchNormRunningStatsAreNotTrainable)
{
    runtime::Session session(44);
    auto b = session.MakeBuilder();
    Trainables params;
    MakeBatchNorm(b, &params, "bn", 4);
    // Only gamma and beta are registered as trainables.
    EXPECT_EQ(params.params().size(), 2u);
}

TEST_F(NnTest, GradientClippingBoundsUpdates)
{
    // With clip_value = c and SGD lr, one step moves each weight by at
    // most lr * c regardless of the raw gradient magnitude.
    runtime::Session session(30);
    auto b = session.MakeBuilder();
    Trainables params;
    const graph::Output w =
        params.NewVariable(b, "w", Tensor::FromVector({0.0f}));
    // loss = 1000 * w => raw gradient 1000.
    const graph::Output loss = b.ReduceSum(
        b.Mul(w, b.ScalarConst(1000.0f)), {}, false);
    auto config = OptimizerConfig::Sgd(0.1f);
    config.clip_value = 1.0f;
    const auto train_op = Minimize(b, loss, params, config);
    session.Run({}, {}, {train_op});
    // Unclipped step would be -100; clipped step is -0.1.
    EXPECT_NEAR(session.variables().Get("w").data<float>()[0], -0.1f,
                1e-5f);
}

TEST_F(NnTest, OptimizerConfigFactories)
{
    EXPECT_EQ(OptimizerConfig::Sgd(0.1f).kind, OptimizerKind::kSgd);
    EXPECT_EQ(OptimizerConfig::Momentum(0.1f).kind,
              OptimizerKind::kMomentum);
    EXPECT_EQ(OptimizerConfig::RmsProp(0.1f).kind, OptimizerKind::kRmsProp);
    EXPECT_EQ(OptimizerConfig::Adam(0.1f).kind, OptimizerKind::kAdam);
    EXPECT_FLOAT_EQ(OptimizerConfig::Adam(0.02f).learning_rate, 0.02f);
}

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<OptimizerKind> {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

TEST_P(OptimizerConvergenceTest, FitsLinearRegression)
{
    // y = 2x - 1 with all four optimizers.
    runtime::Session session(20);
    auto b = session.MakeBuilder();
    Trainables params;
    Rng rng(21);
    const Output x = b.Placeholder("x");
    const Output target = b.Placeholder("target");
    const Output y = Dense(b, &params, rng, "linear", x, 1, 1);
    const Output loss = b.ReduceMean(b.Square(b.Sub(y, target)), {}, false);

    OptimizerConfig config;
    config.kind = GetParam();
    config.learning_rate =
        GetParam() == OptimizerKind::kAdam ? 0.05f : 0.05f;
    const auto train_op = Minimize(b, loss, params, config);

    Rng data_rng(22);
    float final_loss = 1e9f;
    for (int step = 0; step < 400; ++step) {
        Tensor xs(DType::kFloat32, Shape{16, 1});
        Tensor ys(DType::kFloat32, Shape{16, 1});
        for (int i = 0; i < 16; ++i) {
            const float v = data_rng.UniformFloat(-1.0f, 1.0f);
            xs.data<float>()[i] = v;
            ys.data<float>()[i] = 2.0f * v - 1.0f;
        }
        runtime::FeedMap feeds;
        feeds[x.node] = xs;
        feeds[target.node] = ys;
        final_loss = session.Run(feeds, {loss}, {train_op})[0].scalar_value();
    }
    EXPECT_LT(final_loss, 0.01f);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kRmsProp,
                                           OptimizerKind::kAdam));

}  // namespace
}  // namespace fathom::nn
