/**
 * @file
 * Tests for the graph rewrite framework (graph/rewrite): the pattern
 * driver (fixed point, determinism, termination), the four production
 * patterns (constant folding, CSE, transpose folding, elementwise
 * fusion), in-place marking, and the executor integration — including
 * the bit-identity sweep over all eight workloads with each pattern
 * toggled individually, for training and serving.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "graph/rewrite/rewrite.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "serving/frozen_plan.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"
#include "test_util.h"

namespace fathom::runtime {
namespace {

using graph::NodeId;
using graph::Output;
using graph::rewrite::Pattern;
using graph::rewrite::Rewrite;
using graph::rewrite::RewriteOptions;
using graph::rewrite::RewriteResult;
using graph::rewrite::RewriteState;
using graph::rewrite::RunPatterns;
using test::RandomTensor;

const void*
RawData(const Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? static_cast<const void*>(t.data<float>())
               : static_cast<const void*>(t.data<std::int32_t>());
}

/** memcmp equality: NaN payloads and signed zeros must survive too. */
void
ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                   const std::string& what)
{
    ASSERT_EQ(expected.dtype(), actual.dtype()) << what;
    ASSERT_TRUE(expected.shape() == actual.shape()) << what;
    EXPECT_EQ(0, std::memcmp(RawData(expected), RawData(actual),
                             expected.byte_size()))
        << what << ": bytes differ";
}

/** Options with every production pattern off. */
RewriteOptions
AllOff()
{
    RewriteOptions o;
    o.constant_folding = false;
    o.common_subexpression = false;
    o.transpose_folding = false;
    o.elementwise_fusion = false;
    o.inplace = false;
    return o;
}

class RewriteFrameworkTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

// ---- constant folding ----------------------------------------------------

TEST_F(RewriteFrameworkTest, FoldsConstOnlySubgraph)
{
    Session session;
    auto b = session.MakeBuilder();
    // (2 + 3) * 4 is fully constant; x * that is not.
    const Output c = b.Mul(b.Add(b.ScalarConst(2.0f), b.ScalarConst(3.0f)),
                           b.ScalarConst(4.0f));
    const Output x = b.Placeholder("x");
    const Output y = b.Mul(x, c);

    auto opts = AllOff();
    opts.constant_folding = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);

    // The two arithmetic nodes (Add, Mul) and their three Const
    // sources all fold; x * c survives.
    EXPECT_GE(result.fire_counts.at("constant_folding"), 5);
    const NodeId folded_mul = result.Resolve(c.node);
    ASSERT_TRUE(result.folded.count(folded_mul));
    EXPECT_FLOAT_EQ(result.folded.at(folded_mul)[0].scalar_value(), 20.0f);
    // The outer Mul still executes.
    EXPECT_FALSE(result.folded.count(result.Resolve(y.node)));
}

TEST_F(RewriteFrameworkTest, FoldedNodeCanBeFetched)
{
    Session session(1, {.graph_rewrites = true});
    auto b = session.MakeBuilder();
    const Output c = b.Add(b.ScalarConst(2.0f), b.ScalarConst(5.0f));
    const auto out = session.Run({}, {c});
    EXPECT_FLOAT_EQ(out[0].scalar_value(), 7.0f);
}

TEST_F(RewriteFrameworkTest, FoldingPreservesNanAndInfBits)
{
    // Folding runs the real registered kernels, so constant arms that
    // produce NaN/Inf at runtime produce the very same bits at fold
    // time (0/0, log(-1), 1/0, inf - inf).
    auto run = [](bool optimize) {
        Session session(1, {.graph_rewrites = optimize});
        auto b = session.MakeBuilder();
        const Output zero = b.ScalarConst(0.0f);
        const Output one = b.ScalarConst(1.0f);
        const Output nan1 = b.Div(zero, zero);                  // NaN
        const Output inf = b.Div(one, zero);                    // +inf
        const Output nan2 = b.Log(b.Neg(one));                  // NaN
        const Output nan3 = b.Sub(inf, inf);                    // NaN
        const Output y = b.Concat({b.Reshape(nan1, {1}), b.Reshape(inf, {1}),
                                   b.Reshape(nan2, {1}),
                                   b.Reshape(nan3, {1})},
                                  0);
        return session.Run({}, {y})[0].Clone();
    };
    const Tensor off = run(false);
    const Tensor on = run(true);
    ExpectBitIdentical(off, on, "nan/inf folding");
}

TEST_F(RewriteFrameworkTest, VariableReadsFoldOnlyWhenFrozen)
{
    // A training session must never fold through a Variable (the next
    // step updates it); a frozen serving plan may (the snapshot is
    // immutable), which is what variables_as_constants switches.
    Session session;
    auto b = session.MakeBuilder();
    std::string var;
    const Output w = b.Variable("w", Tensor::Scalar(4.0f), &var);
    const Output y = b.Mul(w, b.ScalarConst(2.0f));

    auto opts = AllOff();
    opts.constant_folding = true;
    const RewriteResult training =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_FALSE(training.folded.count(training.Resolve(y.node)));

    opts.variables_as_constants = true;
    const RewriteResult frozen =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    const NodeId folded = frozen.Resolve(y.node);
    ASSERT_TRUE(frozen.folded.count(folded));
    EXPECT_FLOAT_EQ(frozen.folded.at(folded)[0].scalar_value(), 8.0f);
}

// ---- common-subexpression elimination ------------------------------------

TEST_F(RewriteFrameworkTest, CseMergesIdenticalPureNodes)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Two identical Tanh(x) nodes and a structurally different one.
    const Output t1 = b.Tanh(x);
    const Output t2 = b.Tanh(x);
    const Output s = b.Sigmoid(x);
    const Output y = b.Add(b.Add(t1, t2), s);

    auto opts = AllOff();
    opts.common_subexpression = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_EQ(result.fire_counts.at("common_subexpression"), 1);
    EXPECT_TRUE(result.replacements.count(t2.node) ||
                result.replacements.count(t1.node));
    EXPECT_EQ(result.Resolve(t1.node), result.Resolve(t2.node));
}

TEST_F(RewriteFrameworkTest, CseRespectsAttrs)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Same op type + inputs but different attrs must NOT merge.
    const Output p2 = b.Pow(x, 2.0f);
    const Output p3 = b.Pow(x, 3.0f);
    const Output y = b.Add(p2, p3);

    auto opts = AllOff();
    opts.common_subexpression = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_EQ(result.fire_counts.at("common_subexpression"), 0);
}

TEST_F(RewriteFrameworkTest, CseDistinguishesNearbyFloatAttrs)
{
    // Float attrs are encoded into the CSE signature by bit pattern,
    // not by streaming with default (6 significant digit) precision —
    // the latter printed 1.0000001 and 1.0000002 identically and
    // merged ops that compute different values.
    auto merged = [](float e1, float e2) {
        Session session;
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output y = b.Add(b.Pow(x, e1), b.Pow(x, e2));
        auto opts = AllOff();
        opts.common_subexpression = true;
        const RewriteResult result =
            Rewrite(session.graph(), {y}, {}, session.variables(), opts);
        return result.fire_counts.at("common_subexpression");
    };
    EXPECT_EQ(merged(1.0000001f, 1.0000002f), 0);
    // Bitwise-equal attrs still merge — the fix must not disable CSE.
    EXPECT_EQ(merged(1.0000001f, 1.0000001f), 1);
}

TEST_F(RewriteFrameworkTest, CseRespectsControlInputs)
{
    // Regression: the old pass hashed op/inputs/attrs but NOT control
    // inputs, so two nodes ordered differently against a side effect
    // could merge. Differing control inputs must block the merge;
    // identical ones must still allow it.
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output s = b.Sigmoid(x);
    const Output t1 = b.Tanh(x);
    const Output t2 = b.Tanh(x);
    const Output t3 = b.Tanh(x);
    session.graph().AddControlEdge(s.node, t1.node);
    session.graph().AddControlEdge(s.node, t2.node);
    const Output y = b.Add(b.Add(t1, t2), t3);

    auto opts = AllOff();
    opts.common_subexpression = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    // t1/t2 share the control input and merge; t3 (no control) must
    // stay separate.
    EXPECT_EQ(result.fire_counts.at("common_subexpression"), 1);
    EXPECT_EQ(result.Resolve(t1.node), result.Resolve(t2.node));
    EXPECT_NE(result.Resolve(t3.node), result.Resolve(t1.node));
}

TEST_F(RewriteFrameworkTest, StatefulOpsNeverMergeOrFold)
{
    Session session;
    auto b = session.MakeBuilder();
    // Two random ops with identical attrs must both execute.
    const Output r1 = b.RandomNormal({4}, 0.0f, 1.0f);
    const Output r2 = b.RandomNormal({4}, 0.0f, 1.0f);
    const Output y = b.Add(r1, r2);

    RewriteOptions opts;  // everything on.
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_EQ(result.fire_counts.at("common_subexpression"), 0);
    EXPECT_EQ(result.fire_counts.at("constant_folding"), 0);
    EXPECT_EQ(result.Resolve(r1.node), r1.node);
    EXPECT_EQ(result.Resolve(r2.node), r2.node);

    // And the session's two draws really differ.
    const auto out = session.Run({}, {r1, r2});
    EXPECT_NE(0, std::memcmp(out[0].data<float>(), out[1].data<float>(),
                             out[0].byte_size()));
}

TEST_F(RewriteFrameworkTest, FetchedIntermediatesSurviveRewrites)
{
    // Fetching both duplicates of a CSE pair must deliver both values
    // (the protected fetch resolves through the replacement map), and
    // a fetched node with no consumers must never be DCE'd.
    Session session(1, {.graph_rewrites = true});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output t1 = b.Tanh(x);
    const Output t2 = b.Tanh(x);
    const Output y = b.Add(t1, t2);

    FeedMap feeds;
    feeds[x.node] = RandomTensor(Shape{8}, 21);
    const auto out = session.Run(feeds, {t1, t2, y});
    ExpectBitIdentical(out[0], out[1], "merged fetch pair");
    for (std::int64_t i = 0; i < 8; ++i) {
        EXPECT_FLOAT_EQ(out[2].data<float>()[i],
                        2.0f * out[0].data<float>()[i]);
    }
}

// ---- transpose / reshape folding -----------------------------------------

TEST_F(RewriteFrameworkTest, TransposeFoldsIntoMatMulFlags)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output a = b.Placeholder("a");
    const Output w = b.Placeholder("w");
    const Output y = b.MatMul(b.Transpose(a, {1, 0}), w);

    auto opts = AllOff();
    opts.transpose_folding = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_GE(result.fire_counts.at("transpose_folding"), 1);
    const NodeId mm = result.Resolve(y.node);
    ASSERT_NE(mm, y.node);
    const graph::Node& node = session.graph().node(mm);
    EXPECT_EQ(node.op_type, "MatMul");
    EXPECT_TRUE(node.attr("transpose_a").AsBool());
    EXPECT_FALSE(node.attr("transpose_b").AsBool());
    // The explicit Transpose is gone from the plan.
    for (NodeId id : result.order) {
        EXPECT_NE(session.graph().node(id).op_type, "Transpose");
    }

    // Bit identity against the unoptimized session (the GEMM engine
    // treats transposition as a pure stride swap).
    auto run = [](bool optimize) {
        Session s2(1, {.graph_rewrites = optimize});
        auto b2 = s2.MakeBuilder();
        const Output a2 = b2.Placeholder("a");
        const Output w2 = b2.Placeholder("w");
        const Output y2 = b2.MatMul(b2.Transpose(a2, {1, 0}), w2);
        FeedMap feeds;
        feeds[a2.node] = RandomTensor(Shape{7, 5}, 3);
        feeds[w2.node] = RandomTensor(Shape{7, 6}, 4);
        return s2.Run(feeds, {y2})[0].Clone();
    };
    ExpectBitIdentical(run(false), run(true), "transpose folding");
}

TEST_F(RewriteFrameworkTest, TransposeChainsAndReshapesSimplify)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Transpose(Transpose(x)) with inverse perms is x; an identity
    // perm is x; Reshape(Reshape(x)) collapses to the outer shape.
    const Output tt = b.Transpose(b.Transpose(x, {1, 0}), {1, 0});
    const Output ti = b.Transpose(x, {0, 1});
    const Output rr = b.Reshape(b.Reshape(x, {4, 3}), {12});
    const Output y =
        b.Concat({b.Reshape(tt, {12}), b.Reshape(ti, {12}), rr}, 0);

    auto opts = AllOff();
    opts.transpose_folding = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_GE(result.fire_counts.at("transpose_folding"), 3);
    // The double transpose and the identity perm now read x directly.
    EXPECT_EQ(result.Resolve(tt.node), x.node);
    EXPECT_EQ(result.Resolve(ti.node), x.node);

    auto run = [](bool optimize) {
        Session s2(1, {.graph_rewrites = optimize});
        auto b2 = s2.MakeBuilder();
        const Output x2 = b2.Placeholder("x");
        const Output tt2 = b2.Transpose(b2.Transpose(x2, {1, 0}), {1, 0});
        const Output rr2 = b2.Reshape(b2.Reshape(x2, {4, 3}), {12});
        const Output y2 = b2.Concat({b2.Reshape(tt2, {12}), rr2}, 0);
        FeedMap feeds;
        feeds[x2.node] = RandomTensor(Shape{3, 4}, 8);
        return s2.Run(feeds, {y2})[0].Clone();
    };
    ExpectBitIdentical(run(false), run(true), "transpose/reshape chains");
}

// ---- elementwise fusion --------------------------------------------------

TEST_F(RewriteFrameworkTest, ElementwiseChainFusesToOneKernel)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output c = b.Placeholder("c");
    // Mul -> Add -> Tanh: one producer-consumer chain, one fused op.
    const Output y = b.Tanh(b.Add(b.Mul(x, c), c));

    auto opts = AllOff();
    opts.elementwise_fusion = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_EQ(result.fire_counts.at("elementwise_fusion"), 1);
    const NodeId fused = result.Resolve(y.node);
    const graph::Node& node = session.graph().node(fused);
    EXPECT_EQ(node.op_type, "FusedElementwise");
    EXPECT_EQ(node.attr("ops").AsString(), "Mul,Add,Tanh");

    auto run = [](bool fuse) {
        auto o = AllOff();
        o.elementwise_fusion = fuse;
        Session s2(1, {.rewrites = o});
        auto b2 = s2.MakeBuilder();
        const Output x2 = b2.Placeholder("x");
        const Output c2 = b2.Placeholder("c");
        const Output y2 = b2.Tanh(b2.Add(b2.Mul(x2, c2), c2));
        FeedMap feeds;
        feeds[x2.node] = RandomTensor(Shape{64}, 5);
        feeds[c2.node] = RandomTensor(Shape{64}, 6);
        return s2.Run(feeds, {y2})[0].Clone();
    };
    ExpectBitIdentical(run(false), run(true), "fused chain");
}

TEST_F(RewriteFrameworkTest, FusionSkipsMultiUseInteriors)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    // t is read twice: it cannot be an interior of a fused chain.
    const Output t = b.Relu(x);
    const Output y = b.Add(b.Tanh(t), b.Sigmoid(t));

    auto opts = AllOff();
    opts.elementwise_fusion = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    // t must still be produced exactly once and never absorbed.
    EXPECT_EQ(result.Resolve(t.node), t.node);
    bool t_in_order = false;
    for (NodeId id : result.order) {
        t_in_order |= (id == t.node);
    }
    EXPECT_TRUE(t_in_order);

    FeedMap feeds;
    feeds[x.node] = RandomTensor(Shape{16}, 13);
    session.set_options({.graph_rewrites = true});
    const Tensor on = session.Run(feeds, {y})[0].Clone();
    session.set_options({.graph_rewrites = false});
    const Tensor off = session.Run(feeds, {y})[0].Clone();
    ExpectBitIdentical(off, on, "multi-use interior");
}

// ---- in-place ------------------------------------------------------------

TEST_F(RewriteFrameworkTest, InPlaceMarksDyingInputsAndPreservesBits)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    // Square's output dies at Relu: Relu may write into it. Square
    // itself reads the feed, which is pinned and must never be
    // aliased.
    const Output y = b.ReduceSum(b.Relu(b.Square(x)), {}, false);

    auto opts = AllOff();
    opts.inplace = true;
    const RewriteResult result =
        Rewrite(session.graph(), {y}, {}, session.variables(), opts);
    EXPECT_GE(result.fire_counts.at("inplace"), 1);

    // Bit identity AND feed integrity under the executor.
    auto o = AllOff();
    o.inplace = true;
    Session s2(1, {.rewrites = o});
    auto b2 = s2.MakeBuilder();
    const Output x2 = b2.Placeholder("x");
    const Output y2 = b2.ReduceSum(b2.Relu(b2.Square(x2)), {}, false);
    const Tensor feed = RandomTensor(Shape{128}, 17);
    const Tensor saved = feed.Clone();
    FeedMap feeds;
    feeds[x2.node] = feed;
    const float on = s2.Run(feeds, {y2})[0].scalar_value();
    ExpectBitIdentical(saved, feed, "feed must not be written in place");

    s2.set_options({.graph_rewrites = false});
    const float off = s2.Run(feeds, {y2})[0].scalar_value();
    EXPECT_EQ(off, on);
}

// ---- driver: termination, determinism, convergence -----------------------

/** Bait: endlessly replaces every Mul with a fresh equivalent clone. */
class CyclicBaitPattern : public Pattern {
  public:
    std::string name() const override { return "cyclic_bait"; }

    bool Apply(RewriteState& state, NodeId anchor) override
    {
        const graph::Node& node = state.graph().node(anchor);
        if (node.op_type != "Mul") {
            return false;
        }
        std::vector<Output> inputs;
        for (const Output& in : node.inputs) {
            inputs.push_back(state.ResolveEdge(in));
        }
        // The anchor-salted stem makes every round mint a new node, so
        // this pattern never reaches a fixed point on its own.
        const NodeId clone = state.AddOrReuseNode(
            "bait@" + std::to_string(anchor), "Mul", std::move(inputs), {});
        if (clone == anchor) {
            return false;
        }
        state.ReplaceNode(anchor, clone);
        return true;
    }
};

/** Converges: normalizes each Mul to one content-addressed node. */
class NormalizingPattern : public Pattern {
  public:
    std::string name() const override { return "normalize"; }

    bool Apply(RewriteState& state, NodeId anchor) override
    {
        const graph::Node& node = state.graph().node(anchor);
        if (node.op_type != "Mul") {
            return false;
        }
        std::vector<Output> inputs;
        for (const Output& in : node.inputs) {
            inputs.push_back(state.ResolveEdge(in));
        }
        // Fixed stem: the second visit finds the node it minted before
        // and declines to fire.
        const NodeId canon = state.AddOrReuseNode("normalize", "Mul",
                                                  std::move(inputs), {});
        if (canon == anchor) {
            return false;
        }
        state.ReplaceNode(anchor, canon);
        return true;
    }
};

TEST_F(RewriteFrameworkTest, FixedPointClipsOnCyclicBait)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Mul(x, x);

    CyclicBaitPattern bait;
    auto opts = AllOff();
    opts.max_passes = 6;
    const RewriteResult result = RunPatterns(
        session.graph(), {y}, {}, session.variables(), {&bait}, opts);
    EXPECT_TRUE(result.clipped);
    EXPECT_EQ(result.passes, 6);
    EXPECT_GE(result.fire_counts.at("cyclic_bait"), 6);
    // The plan is still executable: the fetch resolves to a live Mul.
    const graph::Node& node = session.graph().node(result.Resolve(y.node));
    EXPECT_EQ(node.op_type, "Mul");
}

TEST_F(RewriteFrameworkTest, ConvergentCustomPatternStopsEarly)
{
    Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output y = b.Add(b.Mul(x, x), x);

    NormalizingPattern normalize;
    auto opts = AllOff();
    const RewriteResult result = RunPatterns(
        session.graph(), {y}, {}, session.variables(), {&normalize}, opts);
    EXPECT_FALSE(result.clipped);
    EXPECT_LE(result.passes, 3);
    EXPECT_EQ(result.fire_counts.at("normalize"), 1);
}

TEST_F(RewriteFrameworkTest, RewriteIsDeterministicAndConvergent)
{
    auto build = [](Session& session) {
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output c =
            b.Mul(b.Add(b.ScalarConst(1.0f), b.ScalarConst(2.0f)),
                  b.ScalarConst(3.0f));
        const Output t1 = b.Tanh(b.Mul(x, c));
        const Output t2 = b.Tanh(b.Mul(x, c));
        return b.ReduceSum(b.Add(t1, t2), {}, false);
    };

    Session s1, s2;
    const Output y1 = build(s1);
    const Output y2 = build(s2);
    RewriteOptions opts;  // everything on.
    const RewriteResult r1 =
        Rewrite(s1.graph(), {y1}, {}, s1.variables(), opts);
    const RewriteResult r2 =
        Rewrite(s2.graph(), {y2}, {}, s2.variables(), opts);

    // Identical graphs rewrite identically — compare by node name,
    // the only stable identity across graphs.
    ASSERT_EQ(r1.order.size(), r2.order.size());
    for (std::size_t i = 0; i < r1.order.size(); ++i) {
        EXPECT_EQ(s1.graph().node(r1.order[i]).name,
                  s2.graph().node(r2.order[i]).name)
            << "order position " << i;
    }
    EXPECT_EQ(r1.fire_counts, r2.fire_counts);

    // Re-rewriting the SAME graph converges: content-addressed node
    // reuse means the second pass adds no nodes and yields the same
    // plan.
    const auto nodes_after_first = s1.graph().num_nodes();
    const RewriteResult r1b =
        Rewrite(s1.graph(), {y1}, {}, s1.variables(), opts);
    EXPECT_EQ(s1.graph().num_nodes(), nodes_after_first);
    ASSERT_EQ(r1.order.size(), r1b.order.size());
    for (std::size_t i = 0; i < r1.order.size(); ++i) {
        EXPECT_EQ(r1.order[i], r1b.order[i]) << "order position " << i;
    }
}

// ---- executor integration ------------------------------------------------

TEST_F(RewriteFrameworkTest, OptimizedSessionMatchesUnoptimized)
{
    // Identical results through a graph with shared subexpressions
    // and constant arms.
    auto build_and_run = [](bool optimize) {
        Session session(7, {.graph_rewrites = optimize});
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output scale =
            b.Add(b.ScalarConst(1.5f), b.ScalarConst(0.5f));  // const 2.
        const Output t1 = b.Tanh(b.Mul(x, scale));
        const Output t2 = b.Tanh(b.Mul(x, scale));  // duplicate.
        const Output y = b.ReduceSum(b.Add(t1, t2), {}, false);
        FeedMap feeds;
        feeds[x.node] = RandomTensor(Shape{6}, 9);
        return session.Run(feeds, {y})[0].scalar_value();
    };
    EXPECT_EQ(build_and_run(false), build_and_run(true));
}

TEST_F(RewriteFrameworkTest, OptimizedRunExecutesFewerOps)
{
    Session session(7, {.graph_rewrites = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output scale = b.Add(b.ScalarConst(1.5f), b.ScalarConst(0.5f));
    const Output t1 = b.Tanh(b.Mul(x, scale));
    const Output t2 = b.Tanh(b.Mul(x, scale));
    const Output y = b.ReduceSum(b.Add(t1, t2), {}, false);
    FeedMap feeds;
    feeds[x.node] = RandomTensor(Shape{6}, 9);

    session.Run(feeds, {y});
    const std::size_t baseline =
        session.tracer().steps().back().records.size();

    session.set_options({.graph_rewrites = true});
    session.Run(feeds, {y});
    const std::size_t optimized =
        session.tracer().steps().back().records.size();
    EXPECT_LT(optimized, baseline);
}

TEST_F(RewriteFrameworkTest, TrainingStillWorksUnderOptimization)
{
    // The whole autodiff + in-place update pipeline must survive the
    // rewrites: stateful update ops are pinned, variable reads are
    // not folded, and CSE must not merge across them incorrectly.
    Session session(11, {.graph_rewrites = true});
    auto b = session.MakeBuilder();
    std::string var;
    const Output w = b.Variable("w", Tensor::Scalar(0.0f), &var);
    const Output loss = b.Square(b.Sub(w, b.ScalarConst(3.0f)));
    const auto grads = autodiff::BuildGradients(b, loss, {w});
    const auto update = b.ApplyGradientDescent(var, grads[0], 0.1f);
    for (int i = 0; i < 100; ++i) {
        session.Run({}, {}, {update});
    }
    EXPECT_NEAR(session.variables().Get("w").scalar_value(), 3.0f, 1e-3f);
}

TEST_F(RewriteFrameworkTest, PlannerComposesWithRewrites)
{
    // Fusion and in-place change which nodes exist and who owns
    // buffers; the memory planner's liveness must follow the rewritten
    // plan. All four combinations must agree bitwise.
    auto run = [](bool planner, bool rewrites) {
        Session session(1, {.memory_planner = planner,
                            .graph_rewrites = rewrites});
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        const Output t1 = b.Tanh(b.Relu(b.Square(x)));
        const Output t2 = b.Tanh(b.Relu(b.Square(x)));  // CSE bait.
        const Output c = b.Mul(b.ScalarConst(2.0f), b.ScalarConst(3.0f));
        const Output y = b.ReduceSum(b.Add(b.Mul(t1, c), t2), {}, false);
        FeedMap feeds;
        feeds[x.node] = Tensor::Full(Shape{512}, 0.3f);
        return session.Run(feeds, {y})[0].Clone();
    };
    const Tensor base = run(false, false);
    ExpectBitIdentical(base, run(true, false), "planner only");
    ExpectBitIdentical(base, run(false, true), "rewrites only");
    ExpectBitIdentical(base, run(true, true), "planner + rewrites");
}

TEST_F(RewriteFrameworkTest, SharedAttentionProjectionsMergeInSeq2Seq)
{
    // A model-level payoff: the seq2seq decoder re-projects the same
    // encoder states at every step; CSE collapses the duplicates.
    fathom::workloads::RegisterAllWorkloads();
    auto w = fathom::workloads::WorkloadRegistry::Global().Create("seq2seq");
    fathom::workloads::WorkloadConfig config;
    config.seed = 2;
    config.execution.graph_rewrites = false;
    w->Setup(config);

    w->RunInference(1);
    const std::size_t baseline =
        w->session().tracer().steps().back().records.size();
    w->session().set_options({.graph_rewrites = true});
    w->RunInference(1);
    const std::size_t optimized =
        w->session().tracer().steps().back().records.size();
    EXPECT_LT(optimized, baseline);
    // And the executed-op reduction is substantial, not marginal.
    EXPECT_LT(static_cast<double>(optimized),
              0.95 * static_cast<double>(baseline));
}

TEST_F(RewriteFrameworkTest, RewriteTelemetryCountersFire)
{
    telemetry::MetricsRegistry::set_enabled(true);
    telemetry::MetricsRegistry::Global().ResetAll();

    Session session(1, {.graph_rewrites = true});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output c = b.Add(b.ScalarConst(1.0f), b.ScalarConst(2.0f));
    const Output t1 = b.Tanh(b.Mul(x, c));
    const Output t2 = b.Tanh(b.Mul(x, c));
    const Output y = b.ReduceSum(b.Relu(b.Add(t1, t2)), {}, false);
    // A MatMul-fed fused chain: the fused op's first input dies at it,
    // so the in-place marker fires.
    const Output m = b.Placeholder("m");
    const Output w = b.Placeholder("w");
    const Output z = b.ReduceSum(b.Tanh(b.Relu(b.MatMul(m, w))), {}, false);
    FeedMap feeds;
    feeds[x.node] = RandomTensor(Shape{32}, 2);
    feeds[m.node] = RandomTensor(Shape{4, 4}, 3);
    feeds[w.node] = RandomTensor(Shape{4, 4}, 4);
    session.Run(feeds, {y, z});

    auto& reg = telemetry::MetricsRegistry::Global();
    EXPECT_GE(reg.GetCounter("rewrite.runs").value(), 1u);
    EXPECT_GE(reg.GetCounter("rewrite.passes").value(), 1u);
    EXPECT_GE(reg.GetCounter("rewrite.fire.constant_folding").value(), 1u);
    EXPECT_GE(reg.GetCounter("rewrite.fire.common_subexpression").value(),
              1u);
    EXPECT_GE(reg.GetCounter("rewrite.fire.elementwise_fusion").value(), 1u);
    EXPECT_GE(reg.GetCounter("rewrite.fire.inplace").value(), 1u);
    EXPECT_GE(reg.GetCounter("rewrite.inplace_applied").value(), 1u);
    telemetry::MetricsRegistry::set_enabled(false);
}

// ---- the suite-wide bit-identity sweep -----------------------------------

/**
 * For every paper workload and every production pattern toggled
 * individually (plus all-on), two training steps and one frozen
 * serving request leave the loss, every variable, and the served
 * outputs bit-identical to the rewrites-off baseline.
 */
TEST_F(RewriteFrameworkTest, AllWorkloadsBitIdenticalPerPatternSweep)
{
    workloads::RegisterAllWorkloads();
    const auto names = workloads::WorkloadRegistry::Global().Names();
    ASSERT_EQ(names.size(), 8u);

    struct PatternConfig {
        std::string label;
        RewriteOptions opts;
        bool enabled = true;  ///< graph_rewrites on at all.
    };
    std::vector<PatternConfig> configs;
    configs.push_back({"baseline", AllOff(), /*enabled=*/false});
    auto one = [](const std::string& label,
                  void (*set)(RewriteOptions&)) {
        PatternConfig c{label, AllOff(), true};
        set(c.opts);
        return c;
    };
    configs.push_back(one("constant_folding", [](RewriteOptions& o) {
        o.constant_folding = true;
    }));
    configs.push_back(one("common_subexpression", [](RewriteOptions& o) {
        o.common_subexpression = true;
    }));
    configs.push_back(one("transpose_folding", [](RewriteOptions& o) {
        o.transpose_folding = true;
    }));
    configs.push_back(one("elementwise_fusion", [](RewriteOptions& o) {
        o.elementwise_fusion = true;
    }));
    configs.push_back(
        one("inplace", [](RewriteOptions& o) { o.inplace = true; }));
    configs.push_back({"all_on", RewriteOptions{}, true});

    for (const auto& name : names) {
        SCOPED_TRACE(name);

        auto run_config = [&](const PatternConfig& pc) {
            auto workload =
                workloads::WorkloadRegistry::Global().Create(name);
            workloads::WorkloadConfig config;
            config.seed = 5;
            config.batch_size = 4;
            config.execution.graph_rewrites = pc.enabled;
            config.execution.rewrites = pc.opts;
            workload->Setup(config);

            const float loss = workload->RunTraining(2).final_loss;
            std::map<std::string, Tensor> variables;
            for (const auto& var :
                 workload->session().variables().Names()) {
                variables[var] =
                    workload->session().variables().Get(var).Clone();
            }

            // Serving: freeze (with the same rewrite config) and
            // serve one deterministic request.
            std::vector<Tensor> served;
            if (workload->has_serving_endpoint()) {
                const auto plan = workload->FreezeServingPlan();
                const auto request = workload->SampleServingRequest();
                served = plan->ServeOne(request);
            }
            return std::make_tuple(loss, std::move(variables),
                                   std::move(served));
        };

        const auto [base_loss, base_vars, base_served] =
            run_config(configs[0]);
        for (std::size_t ci = 1; ci < configs.size(); ++ci) {
            SCOPED_TRACE(configs[ci].label);
            const auto [loss, vars, served] = run_config(configs[ci]);
            EXPECT_EQ(base_loss, loss);
            ASSERT_EQ(base_vars.size(), vars.size());
            for (const auto& [var_name, expected] : base_vars) {
                const auto it = vars.find(var_name);
                ASSERT_NE(it, vars.end()) << var_name;
                ExpectBitIdentical(expected, it->second, var_name);
            }
            ASSERT_EQ(base_served.size(), served.size());
            for (std::size_t f = 0; f < served.size(); ++f) {
                ExpectBitIdentical(base_served[f], served[f],
                                   "served output " + std::to_string(f));
            }
        }
    }
}

}  // namespace
}  // namespace fathom::runtime
