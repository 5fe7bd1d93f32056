/**
 * @file
 * Error-path tests: malformed graphs, shapes, and attributes must fail
 * loudly with actionable messages, never crash or silently corrupt.
 */
#include <gtest/gtest.h>

#include "ops/register.h"
#include "runtime/session.h"
#include "test_util.h"

namespace fathom {
namespace {

using graph::Output;

class OpErrorTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }

    // These tests pin the *kernel-time* error paths; the static
    // verifier would reject most of these graphs at plan build (that
    // layer has its own battery in test_graph_verify.cc), and so would
    // the rewriter's own post-condition, so the graph runs as written.
    void SetUp() override
    {
        session_.set_options({.graph_rewrites = false, .verify = false});
    }

    runtime::Session session_;
};

TEST_F(OpErrorTest, ShapeMismatchInAddNReportsOp)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Placeholder("y");
    const Output sum = b.AddN({x, y});
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{2});
    feeds[y.node] = Tensor::Zeros(Shape{3});
    try {
        session_.Run(feeds, {sum});
        FAIL();
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("AddN"), std::string::npos);
    }
}

TEST_F(OpErrorTest, BroadcastIncompatibleShapes)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Placeholder("y");
    const Output sum = b.Add(x, y);
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{2, 3});
    feeds[y.node] = Tensor::Zeros(Shape{2, 4});
    EXPECT_THROW(session_.Run(feeds, {sum}), std::runtime_error);
}

TEST_F(OpErrorTest, SplitNonDivisibleExtent)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const auto parts = b.Split(x, 1, 3);
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{2, 7});  // 7 % 3 != 0.
    EXPECT_THROW(session_.Run(feeds, {parts[0]}), std::runtime_error);
}

TEST_F(OpErrorTest, GatherOutOfRangeIndex)
{
    auto b = session_.MakeBuilder();
    const Output params = b.Const(test::RandomTensor(Shape{4, 2}, 1));
    const Output idx = b.Placeholder("idx");
    const Output out = b.Gather(params, idx);
    runtime::FeedMap feeds;
    feeds[idx.node] = Tensor::FromVectorInt(Shape{1}, {4});
    EXPECT_THROW(session_.Run(feeds, {out}), std::runtime_error);
}

TEST_F(OpErrorTest, SoftmaxCrossEntropyLabelOutOfRange)
{
    auto b = session_.MakeBuilder();
    const Output logits = b.Placeholder("logits");
    const Output labels = b.Placeholder("labels");
    const auto xent = b.SoftmaxCrossEntropy(logits, labels);
    runtime::FeedMap feeds;
    feeds[logits.node] = test::RandomTensor(Shape{2, 3}, 2);
    feeds[labels.node] = Tensor::FromVectorInt(Shape{2}, {0, 3});
    EXPECT_THROW(session_.Run(feeds, {xent[0]}), std::runtime_error);
}

TEST_F(OpErrorTest, MissingAttrNamesTheNodeAndAttr)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Build a Conv2D node manually without its required attrs.
    const graph::NodeId bad =
        b.AddNode("bad_conv", "Conv2D", {x, x});
    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{1, 4, 4, 1}, 3);
    try {
        session_.Run(feeds, {Output{bad, 0}});
        FAIL();
    } catch (const std::runtime_error& e) {
        const std::string message = e.what();
        // Whichever required attr is looked up first is named, along
        // with the offending node.
        EXPECT_NE(message.find("missing attr"), std::string::npos);
        EXPECT_NE(message.find("bad_conv"), std::string::npos);
    }
}

TEST_F(OpErrorTest, UnknownPaddingString)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output w = b.Const(test::RandomTensor(Shape{3, 3, 1, 1}, 4));
    const Output y = b.Conv2D(x, w, 1, "PADME");
    runtime::FeedMap feeds;
    feeds[x.node] = test::RandomTensor(Shape{1, 4, 4, 1}, 5);
    EXPECT_THROW(session_.Run(feeds, {y}), std::runtime_error);
}

TEST_F(OpErrorTest, DropoutRejectsBadKeepProb)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output mask = b.DropoutMask(x, 0.0f);
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{4});
    EXPECT_THROW(session_.Run(feeds, {mask}), std::runtime_error);
}

TEST_F(OpErrorTest, ReshapeWrongElementCount)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output r = b.Reshape(x, {5, 5});
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{24});
    EXPECT_THROW(session_.Run(feeds, {r}), std::runtime_error);
}

TEST_F(OpErrorTest, ReshapeDoubleWildcardRejected)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output r = b.Reshape(x, {-1, -1});
    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{4});
    EXPECT_THROW(session_.Run(feeds, {r}), std::runtime_error);
}

TEST_F(OpErrorTest, OptimizerOnWrongSizedGradient)
{
    auto b = session_.MakeBuilder();
    std::string var;
    b.Variable("w", Tensor::Zeros(Shape{4}), &var);
    const Output bogus = b.Const(Tensor::Zeros(Shape{5}), "bogus_grad");
    const auto update = b.ApplyGradientDescent(var, bogus, 0.1f);
    EXPECT_THROW(session_.Run({}, {}, {update}), std::runtime_error);
}

TEST_F(OpErrorTest, FetchingUnproducedOutputIndex)
{
    auto b = session_.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Identity has exactly one output; index 2 is invalid at build time.
    EXPECT_THROW(
        b.graph().AddNode("consumer", "Identity", {Output{x.node, 2}}),
        std::invalid_argument);
}

TEST_F(OpErrorTest, VariableMissingFromStore)
{
    auto b = session_.MakeBuilder();
    // Hand-build a Variable node pointing at a store key that was
    // never initialized.
    const graph::NodeId id = b.AddNode(
        "phantom", "Variable", {},
        {{"var_name", graph::AttrValue("never_created")}});
    EXPECT_THROW(session_.Run({}, {Output{id, 0}}), std::runtime_error);
}

}  // namespace
}  // namespace fathom
