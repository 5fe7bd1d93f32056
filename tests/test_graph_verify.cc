/**
 * @file
 * Static graph verifier battery.
 *
 * The negative half hands the verifier deliberately corrupted graphs —
 * shape mismatch, dtype mismatch, dangling control edge, cycle, unsafe
 * in-place marking, unreachable fetch — and asserts each one is
 * rejected *statically* (no kernel runs) with a diagnostic that names
 * the offending node. The positive half proves the production default:
 * all eight workloads' training graphs verify clean at plan build and
 * their serving graphs verify clean at FrozenPlan::Freeze.
 *
 * The kernel-time error paths for several of the same defects are
 * pinned separately in test_ops_errors.cc (with verification off);
 * this file is the static layer's contract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/verify/verifier.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "workloads/workload.h"

namespace fathom {
namespace {

using graph::Output;
using graph::verify::Diagnostic;
using graph::verify::PlanFacts;
using graph::verify::TypeInfo;
using graph::verify::Verify;
using graph::verify::VerifyOptions;
using graph::verify::VerifyReport;

/** True if the report holds a @p check diagnostic naming @p node. */
bool
HasDiag(const VerifyReport& report, const std::string& check,
        const std::string& node)
{
    return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                       [&](const Diagnostic& d) {
                           return d.check == check && d.node == node;
                       });
}

class GraphVerifyTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }

    graph::Graph graph_;
    graph::VariableStore variables_;
    graph::GraphBuilder b_{&graph_, &variables_};

    VerifyReport
    Check(const std::vector<Output>& fetches,
          const std::vector<graph::NodeId>& targets = {},
          VerifyOptions options = {}, const PlanFacts* plan = nullptr)
    {
        options.variables = &variables_;
        return Verify(graph_, fetches, targets, options, plan);
    }
};

TEST_F(GraphVerifyTest, CleanGraphVerifiesOkAndTypesEveryNode)
{
    const Output x = b_.Placeholder("x");
    const Output w = b_.Variable("w", test::RandomTensor(Shape{3, 4}, 1));
    const Output y = b_.MatMul(x, w);
    const Output r = b_.Relu(y);

    VerifyOptions options;
    options.feed_types[x.node] =
        TypeInfo::Of(DType::kFloat32, Shape{2, 3});
    const VerifyReport report = Check({r}, {}, options);

    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(report.nodes_checked, 4);
    ASSERT_EQ(report.types.count(r.node), 1u);
    const TypeInfo& out = report.types.at(r.node)[0];
    ASSERT_TRUE(out.fully_known());
    EXPECT_EQ(out.dtype, DType::kFloat32);
    EXPECT_EQ(out.shape, (Shape{2, 4}));
}

TEST_F(GraphVerifyTest, ShapeMismatchNamesNodeWithExpectedGot)
{
    const Output x = b_.Placeholder("x");
    const Output w = b_.Variable("w", test::RandomTensor(Shape{5, 4}, 1));
    const Output y = b_.MatMul(x, w);  // inner dims 3 vs 5: provably wrong.

    VerifyOptions options;
    options.feed_types[x.node] =
        TypeInfo::Of(DType::kFloat32, Shape{2, 3});
    const VerifyReport report = Check({y}, {}, options);

    const std::string& name = graph_.node(y.node).name;
    ASSERT_TRUE(HasDiag(report, "shape-inference", name))
        << report.ToString();
    const std::string text = report.ToString();
    EXPECT_NE(text.find(name), std::string::npos);
    EXPECT_NE(text.find("expected"), std::string::npos) << text;
}

TEST_F(GraphVerifyTest, DTypeMismatchNamesNode)
{
    const Output x = b_.Placeholder("x");
    const Output r = b_.Relu(x);  // float-only kernel fed int32.

    VerifyOptions options;
    options.feed_types[x.node] = TypeInfo::Of(DType::kInt32, Shape{4});
    const VerifyReport report = Check({r}, {}, options);

    ASSERT_TRUE(
        HasDiag(report, "shape-inference", graph_.node(r.node).name))
        << report.ToString();
    EXPECT_NE(report.ToString().find("dtype"), std::string::npos)
        << report.ToString();
}

TEST_F(GraphVerifyTest, DanglingControlEdgeCaught)
{
    const Output x = b_.Placeholder("x");
    const Output r = b_.Relu(x);
    graph_.mutable_node(r.node).control_inputs.push_back(9999);

    const VerifyReport report = Check({r});
    EXPECT_TRUE(
        HasDiag(report, "dangling-control", graph_.node(r.node).name))
        << report.ToString();
}

TEST_F(GraphVerifyTest, DanglingDataInputCaught)
{
    const Output x = b_.Placeholder("x");
    const Output r = b_.Relu(x);
    graph_.mutable_node(r.node).inputs[0].node = 4242;

    const VerifyReport report = Check({r});
    EXPECT_TRUE(
        HasDiag(report, "dangling-input", graph_.node(r.node).name))
        << report.ToString();
}

TEST_F(GraphVerifyTest, CycleCaughtAsDiagnosticNotThrow)
{
    const Output x = b_.Placeholder("x");
    const Output a = b_.Relu(x);
    const Output c = b_.Tanh(a);
    // Rewire a's input onto c: a -> c -> a. Graph::TopologicalOrder
    // would throw std::logic_error here; the verifier must instead
    // report a named diagnostic.
    graph_.mutable_node(a.node).inputs[0] = c;

    const VerifyReport report = Check({c});
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(std::any_of(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const Diagnostic& d) { return d.check == "cycle"; }))
        << report.ToString();
}

TEST_F(GraphVerifyTest, FetchOfNoOutputNodeCaught)
{
    std::string var;
    b_.Variable("w", Tensor::Zeros(Shape{4}), &var);
    const Output v = b_.Const(Tensor::Zeros(Shape{4}), "init");
    const graph::NodeId assign = b_.Assign(var, v);

    // Assign's kernel produces no output values: fetching one is a
    // static error (the runtime would fault mid-step).
    const VerifyReport report = Check({Output{assign, 0}});
    EXPECT_TRUE(HasDiag(report, "bad-fetch", graph_.node(assign).name))
        << report.ToString();
}

TEST_F(GraphVerifyTest, FetchIndexOutOfRangeCaught)
{
    const Output x = b_.Placeholder("x");
    const Output r = b_.Relu(x);
    const VerifyReport report = Check({Output{r.node, 3}});
    EXPECT_TRUE(HasDiag(report, "bad-fetch", graph_.node(r.node).name))
        << report.ToString();
}

TEST_F(GraphVerifyTest, FetchOutsideGraphCaught)
{
    const VerifyReport report = Check({Output{1234, 0}});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.diagnostics[0].check, "bad-fetch");
}

TEST_F(GraphVerifyTest, UnknownOpTypeCaught)
{
    const Output x = b_.Placeholder("x");
    const graph::NodeId mystery =
        b_.AddNode("mystery", "NotARegisteredOp", {x});
    const VerifyReport report = Check({Output{mystery, 0}});
    EXPECT_TRUE(HasDiag(report, "unknown-op", "mystery"))
        << report.ToString();
}

TEST_F(GraphVerifyTest, UnsafeInPlaceMarkingCaught)
{
    const Output x = b_.Placeholder("x");
    const Output a = b_.Relu(x);
    const Output t = b_.Tanh(a);

    // A plan claiming t may overwrite a's buffer is unsafe: a is
    // fetched, so its value must survive the step.
    const std::vector<graph::NodeId> order =
        graph_.TopologicalOrder({a.node, t.node});
    std::vector<char> inplace(order.size(), 0);
    const auto t_step = std::find(order.begin(), order.end(), t.node);
    ASSERT_NE(t_step, order.end());
    inplace[static_cast<std::size_t>(t_step - order.begin())] = 1;

    PlanFacts facts;
    facts.order = &order;
    facts.inplace = &inplace;
    const VerifyReport report = Check({a, t}, {}, {}, &facts);
    ASSERT_TRUE(HasDiag(report, "inplace", graph_.node(t.node).name))
        << report.ToString();
    EXPECT_NE(report.ToString().find("in-place"), std::string::npos);
}

TEST_F(GraphVerifyTest, LivenessMismatchCaught)
{
    const Output x = b_.Placeholder("x");
    const Output a = b_.Relu(x);
    const Output t = b_.Tanh(a);

    // A consumer count of zero for a's step would free its buffer
    // before t reads it; the lint recomputes the counts independently
    // and must flag the divergence.
    const std::vector<graph::NodeId> order =
        graph_.TopologicalOrder({t.node});
    std::vector<std::int32_t> consumer_count(order.size(), 0);

    PlanFacts facts;
    facts.order = &order;
    facts.consumer_count = &consumer_count;
    const VerifyReport report = Check({t}, {}, {}, &facts);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(std::any_of(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const Diagnostic& d) { return d.check == "liveness"; }))
        << report.ToString();
}

TEST_F(GraphVerifyTest, FrozenModeRejectsStatefulOps)
{
    const Output x = b_.Placeholder("x");
    const Output mask = b_.DropoutMask(x, 0.5f);

    VerifyOptions options;
    options.frozen = true;
    const VerifyReport report = Check({mask}, {}, options);
    ASSERT_TRUE(
        HasDiag(report, "determinism", graph_.node(mask.node).name))
        << report.ToString();
    EXPECT_NE(report.ToString().find("frozen"), std::string::npos);
}

TEST_F(GraphVerifyTest, VerifyOrThrowCarriesFullReport)
{
    const Output x = b_.Placeholder("x");
    const Output r = b_.Relu(x);
    graph_.mutable_node(r.node).control_inputs.push_back(9999);

    try {
        graph::verify::VerifyOrThrow(graph_, {r}, {});
        FAIL() << "corrupted graph passed verification";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("graph verification failed"),
                  std::string::npos);
        EXPECT_NE(message.find(graph_.node(r.node).name),
                  std::string::npos);
        EXPECT_NE(message.find("dangling-control"), std::string::npos);
    }
}

TEST_F(GraphVerifyTest, UnseededGraphDegradesGracefully)
{
    // No feed types at all (the graph_lint mode): shape fns must check
    // what is known and leave the rest unknown, not reject.
    const Output x = b_.Placeholder("x");
    const Output w = b_.Variable("w", test::RandomTensor(Shape{3, 4}, 1));
    const Output r = b_.Relu(b_.MatMul(x, w));
    const VerifyReport report = Check({r});
    EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---- integration: the Session enforcement path -------------------------

TEST(GraphVerifySessionTest, SessionRejectsBadGraphAtPlanBuild)
{
    ops::RegisterStandardOps();
    runtime::Session session;
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output w = b.Variable("w", test::RandomTensor(Shape{5, 4}, 1));
    const Output y = b.MatMul(x, w);

    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{2, 3});
    try {
        session.Run(feeds, {y});
        FAIL() << "statically-wrong MatMul reached the executor";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("graph verification failed"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find(session.graph().node(y.node).name),
                  std::string::npos)
            << message;
    }
}

TEST(GraphVerifySessionTest, SetVerificationOffRestoresKernelTimeFailure)
{
    ops::RegisterStandardOps();
    runtime::Session session(1, {.verify = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output w = b.Variable("w", test::RandomTensor(Shape{5, 4}, 1));
    const Output y = b.MatMul(x, w);

    runtime::FeedMap feeds;
    feeds[x.node] = Tensor::Zeros(Shape{2, 3});
    // With the knob off the defect survives to the kernel, which
    // throws std::runtime_error (the historical behavior).
    EXPECT_THROW(session.Run(feeds, {y}), std::runtime_error);
}

// ---- the all-workloads clean batteries ---------------------------------

TEST(GraphVerifyWorkloadTest, AllTrainGraphsVerifyCleanAtPlanBuild)
{
    workloads::RegisterAllWorkloads();
    for (const auto& name : workloads::WorkloadRegistry::Global().Names()) {
        workloads::WorkloadConfig config;
        config.batch_size = 2;
        auto workload = workloads::WorkloadRegistry::Global().Create(name);
        workload->Setup(config);
        ASSERT_TRUE(workload->session().options().verify) << name;
        try {
            // Plan build (a cache miss) runs the full verification;
            // a violation throws std::invalid_argument with the report.
            workload->RunTraining(1);
        } catch (const std::exception& e) {
            ADD_FAILURE() << name << ": " << e.what();
        }
    }
}

TEST(GraphVerifyWorkloadTest, AllFrozenServingGraphsVerifyClean)
{
    workloads::RegisterAllWorkloads();
    for (const auto& name : workloads::WorkloadRegistry::Global().Names()) {
        workloads::WorkloadConfig config;
        config.batch_size = 2;
        auto workload = workloads::WorkloadRegistry::Global().Create(name);
        workload->Setup(config);
        ASSERT_TRUE(workload->has_serving_endpoint()) << name;
        try {
            // Freeze verifies in frozen mode (TensorSpec-seeded types,
            // stateful ops are violations) before returning the plan.
            const auto plan = workload->FreezeServingPlan();
            EXPECT_NE(plan, nullptr) << name;
        } catch (const std::exception& e) {
            ADD_FAILURE() << name << ": " << e.what();
        }
    }
}

// ---- telemetry (observability suite: name matches *Telemetry*) ---------

TEST(GraphVerifyTelemetryTest, CountsRunsAndViolations)
{
    ops::RegisterStandardOps();
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.ResetAll();
    telemetry::MetricsRegistry::set_enabled(true);

    graph::Graph graph;
    graph::VariableStore variables;
    graph::GraphBuilder b(&graph, &variables);
    const Output x = b.Placeholder("x");
    const Output r = b.Relu(x);

    const VerifyReport clean = Verify(graph, {r}, {});
    EXPECT_TRUE(clean.ok());

    graph.mutable_node(r.node).control_inputs.push_back(9999);
    const VerifyReport dirty = Verify(graph, {r}, {});
    telemetry::MetricsRegistry::set_enabled(false);

    ASSERT_FALSE(dirty.ok());
    const auto snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.CounterValue("verify.runs"), 2u);
    EXPECT_EQ(snapshot.CounterValue("verify.violations"),
              static_cast<std::uint64_t>(dirty.diagnostics.size()));
}

// ---- bench guard (observability suite: *VerifyOverhead*, RUN_SERIAL) ---

TEST(VerifyOverheadTest, PlanBuildVerificationWithinBudget)
{
    // The adoption contract: verification-on session construction
    // (setup + first plan build, where the verifier actually runs) may
    // cost at most ~1% over verification-off. Modes are interleaved
    // within each repetition and compared min-to-min so a background
    // hiccup cannot fail the build; a small absolute floor absorbs
    // timer quantization (bench/bench_verify sweeps the same contract
    // at larger shapes).
    workloads::RegisterAllWorkloads();

    auto construct = [](bool verify) {
        workloads::WorkloadConfig config;
        config.batch_size = 2;
        config.tracing = false;
        config.execution.verify = verify;
        auto workload =
            workloads::WorkloadRegistry::Global().Create("alexnet");
        const auto start = std::chrono::steady_clock::now();
        workload->Setup(config);
        workload->RunTraining(1);  // first plan build: the verify site.
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    construct(true);  // warm code paths and the allocator once.

    constexpr int kReps = 5;
    double off_best = 1e300;
    double on_best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        off_best = std::min(off_best, construct(false));
        on_best = std::min(on_best, construct(true));
    }
    EXPECT_LE(on_best, off_best * 1.01 + 1e-3)
        << "verify-on best " << on_best * 1e3 << " ms vs verify-off best "
        << off_best * 1e3 << " ms";
}

}  // namespace
}  // namespace fathom
