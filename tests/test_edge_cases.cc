/**
 * @file
 * Edge-case sweeps over kernel and runtime boundaries: degenerate
 * shapes, extreme values, and API misuse that earlier tests don't
 * cover.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "kernels/conv2d.h"
#include "kernels/elementwise.h"
#include "kernels/matmul.h"
#include "kernels/pooling.h"
#include "kernels/reduction.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "test_util.h"

namespace fathom {
namespace {

using test::ExpectTensorNear;
using test::RandomTensor;

parallel::ThreadPool&
Pool()
{
    static parallel::ThreadPool pool(1);
    return pool;
}

TEST(EdgeCaseTest, OneByOneConvIsPerPixelMatMul)
{
    // A 1x1 convolution is exactly a per-pixel channel mix.
    const Tensor input = RandomTensor(Shape{1, 3, 3, 4}, 1);
    const Tensor filter = RandomTensor(Shape{1, 1, 4, 2}, 2);
    const Tensor conv = kernels::Conv2D(input, filter, 1,
                                        kernels::Padding::kSame, Pool());
    const Tensor as_matmul = kernels::MatMul(
        input.Reshape(Shape{9, 4}), filter.Reshape(Shape{4, 2}), false,
        false, Pool());
    ExpectTensorNear(as_matmul.Reshape(Shape{1, 3, 3, 2}), conv, 1e-4f);
}

TEST(EdgeCaseTest, FullImageFilterValidIsDotProduct)
{
    // VALID conv with filter == image size produces a single output.
    const Tensor input = RandomTensor(Shape{1, 4, 4, 1}, 3);
    const Tensor filter = RandomTensor(Shape{4, 4, 1, 1}, 4);
    const Tensor conv = kernels::Conv2D(input, filter, 1,
                                        kernels::Padding::kValid, Pool());
    EXPECT_EQ(conv.shape(), Shape({1, 1, 1, 1}));
    double expected = 0.0;
    for (int i = 0; i < 16; ++i) {
        expected += static_cast<double>(input.data<float>()[i]) *
                    filter.data<float>()[i];
    }
    EXPECT_NEAR(conv.data<float>()[0], expected, 1e-3);
}

TEST(EdgeCaseTest, StrideLargerThanFilter)
{
    // Stride 3 with a 2x2 filter skips input columns entirely.
    const Tensor input = RandomTensor(Shape{1, 7, 7, 1}, 5);
    const Tensor filter = RandomTensor(Shape{2, 2, 1, 1}, 6);
    const Tensor conv = kernels::Conv2D(input, filter, 3,
                                        kernels::Padding::kValid, Pool());
    EXPECT_EQ(conv.shape(), Shape({1, 2, 2, 1}));
}

TEST(EdgeCaseTest, SingleElementSoftmaxIsOne)
{
    const Tensor logits = Tensor::FromVector(Shape{3, 1}, {5, -2, 100});
    const Tensor s = kernels::Softmax(logits, Pool());
    for (int i = 0; i < 3; ++i) {
        EXPECT_FLOAT_EQ(s.data<float>()[i], 1.0f);
    }
}

TEST(EdgeCaseTest, SoftmaxWithMinusInfinityMasks)
{
    // -inf logits get exactly zero probability (attention masking).
    Tensor logits = Tensor::FromVector(Shape{1, 3}, {1.0f, 2.0f, 0.0f});
    logits.data<float>()[2] = -std::numeric_limits<float>::infinity();
    const Tensor s = kernels::Softmax(logits, Pool());
    EXPECT_FLOAT_EQ(s.data<float>()[2], 0.0f);
    EXPECT_NEAR(s.data<float>()[0] + s.data<float>()[1], 1.0f, 1e-6f);
}

TEST(EdgeCaseTest, MatMulWithZeroSizedDimension)
{
    // [0, k] x [k, n] is a valid empty result.
    const Tensor a = Tensor::Zeros(Shape{0, 3});
    const Tensor b = RandomTensor(Shape{3, 4}, 7);
    const Tensor c = kernels::MatMul(a, b, false, false, Pool());
    EXPECT_EQ(c.shape(), Shape({0, 4}));
    EXPECT_EQ(c.num_elements(), 0);
}

TEST(EdgeCaseTest, ReduceOverSizeOneAxisIsReshape)
{
    const Tensor t = RandomTensor(Shape{3, 1, 4}, 8);
    const Tensor reduced =
        kernels::Reduce(t, kernels::ReduceOp::kSum, {1}, false, Pool());
    ExpectTensorNear(t.Reshape(Shape{3, 4}), reduced, 1e-6f);
}

TEST(EdgeCaseTest, BroadcastScalarAgainstEmpty)
{
    const Tensor scalar = Tensor::Scalar(2.0f);
    const Tensor empty = Tensor::Zeros(Shape{0, 4});
    const Tensor out = kernels::BinaryMap(
        scalar, empty, [](float a, float b) { return a + b; }, Pool());
    EXPECT_EQ(out.shape(), Shape({0, 4}));
}

TEST(EdgeCaseTest, ReduceMaxPropagatesNaN)
{
    // As in NumPy and TF: a NaN anywhere in the reduced slice wins,
    // whether it comes before or after the maximum.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Tensor t =
        Tensor::FromVector(Shape{3, 3}, {1.0f, nan, 5.0f,   //
                                         nan, 7.0f, -2.0f,  //
                                         3.0f, 4.0f, 2.0f});
    const Tensor rows =
        kernels::Reduce(t, kernels::ReduceOp::kMax, {1}, false, Pool());
    EXPECT_TRUE(std::isnan(rows.data<float>()[0]));
    EXPECT_TRUE(std::isnan(rows.data<float>()[1]));
    EXPECT_EQ(rows.data<float>()[2], 4.0f);
    const Tensor all =
        kernels::Reduce(t, kernels::ReduceOp::kMax, {}, false, Pool());
    EXPECT_TRUE(std::isnan(all.scalar_value()));
}

TEST(EdgeCaseTest, MaxPoolPropagatesNaNAndRoutesItsGradient)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // One 2x2 window per channel: channel 0 holds a NaN after its
    // maximum, channel 1 none.
    const Tensor x = Tensor::FromVector(
        Shape{1, 2, 2, 2}, {9.0f, 1.0f, nan, 6.0f, 3.0f, 2.0f, 4.0f, 8.0f});
    const Tensor y =
        kernels::MaxPool(x, 2, 2, kernels::Padding::kValid, Pool());
    EXPECT_TRUE(std::isnan(y.data<float>()[0]));
    EXPECT_EQ(y.data<float>()[1], 8.0f);

    // The gradient goes to the element the forward pass selected: the
    // NaN in channel 0, the 8 in channel 1.
    const Tensor g = Tensor::FromVector(Shape{1, 1, 1, 2}, {10.0f, 20.0f});
    const Tensor gx = kernels::MaxPoolGrad(x, g, 2, 2,
                                           kernels::Padding::kValid, Pool());
    const std::vector<float> want = {0.0f, 0.0f, 10.0f, 0.0f,
                                     0.0f, 0.0f, 0.0f,  20.0f};
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(gx.data<float>()[i], want[i]) << i;
    }
}

TEST(EdgeCaseTest, MaxPoolGradRoutesAllNegativeInfinityWindow)
{
    // Every element is -inf, so the forward output is the first one's
    // value; its gradient must not vanish.
    const float inf = std::numeric_limits<float>::infinity();
    const Tensor x = Tensor::FromVector(Shape{1, 2, 2, 1},
                                        {-inf, -inf, -inf, -inf});
    const Tensor y =
        kernels::MaxPool(x, 2, 2, kernels::Padding::kValid, Pool());
    EXPECT_EQ(y.data<float>()[0], -inf);
    const Tensor gx = kernels::MaxPoolGrad(
        x, Tensor::FromVector(Shape{1, 1, 1, 1}, {3.0f}), 2, 2,
        kernels::Padding::kValid, Pool());
    EXPECT_EQ(gx.data<float>()[0], 3.0f);
    EXPECT_EQ(gx.data<float>()[1] + gx.data<float>()[2] +
                  gx.data<float>()[3],
              0.0f);
}

class EdgeRuntimeTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

TEST_F(EdgeRuntimeTest, FetchSameEdgeTwice)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    const graph::Output x = b.Placeholder("x");
    const graph::Output y = b.Square(x);
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::FromVector({3.0f});
    const auto out = session.Run(feeds, {y, y, x});
    EXPECT_FLOAT_EQ(out[0].data<float>()[0], 9.0f);
    EXPECT_FLOAT_EQ(out[1].data<float>()[0], 9.0f);
    EXPECT_FLOAT_EQ(out[2].data<float>()[0], 3.0f);
}

TEST_F(EdgeRuntimeTest, FetchPlaceholderDirectly)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    const graph::Output x = b.Placeholder("x");
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::FromVector({1.0f, 2.0f});
    const auto out = session.Run(feeds, {x});
    ExpectTensorNear(feeds[x.node], out[0]);
}

TEST_F(EdgeRuntimeTest, EmptyFetchWithTargetsOnly)
{
    runtime::Session session;
    auto b = session.MakeBuilder();
    std::string var;
    b.Variable("v", Tensor::Scalar(1.0f), &var);
    const auto assign = b.Assign(var, b.ScalarConst(9.0f));
    const auto out = session.Run({}, {}, {assign});
    EXPECT_TRUE(out.empty());
    EXPECT_FLOAT_EQ(session.variables().Get("v").scalar_value(), 9.0f);
}

TEST_F(EdgeRuntimeTest, LargeBatchThroughWholeStack)
{
    // Shapes an order of magnitude beyond the unit tests, end to end.
    runtime::Session session(3);
    auto b = session.MakeBuilder();
    nn::Trainables params;
    Rng rng(4);
    const graph::Output x = b.Placeholder("x");
    const graph::Output labels = b.Placeholder("labels");
    const graph::Output logits =
        nn::Dense(b, &params, rng, "fc", x, 64, 10);
    const graph::Output loss = b.SoftmaxCrossEntropy(logits, labels)[0];
    const auto train = nn::Minimize(b, loss, params,
                                    nn::OptimizerConfig::Sgd(0.1f));

    runtime::FeedMap feeds;
    feeds[x.node] = RandomTensor(Shape{512, 64}, 5);
    Tensor y(DType::kInt32, Shape{512});
    Rng lr(6);
    for (int i = 0; i < 512; ++i) {
        y.data<std::int32_t>()[i] =
            static_cast<std::int32_t>(lr.UniformInt(10));
    }
    feeds[labels.node] = y;
    const float first = session.Run(feeds, {loss}, {train})[0].scalar_value();
    float last = first;
    for (int i = 0; i < 10; ++i) {
        last = session.Run(feeds, {loss}, {train})[0].scalar_value();
    }
    EXPECT_LT(last, first);  // memorizing one big batch.
}

}  // namespace
}  // namespace fathom
