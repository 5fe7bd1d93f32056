/**
 * @file
 * Concurrency tests for the tracer.
 *
 * Threads filling distinct Tracer::SlotFor slots between BeginStep
 * and EndStep must lose no record, and EndStep must emit them in plan
 * sequence order so traces are independent of scheduling. Wall times
 * in these tests are multiples of 1/1024 so sums are exact in double
 * and the aggregate checks can use equality.
 */
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>
#include <vector>

#include "ops/register.h"
#include "runtime/session.h"
#include "runtime/tracer.h"

namespace fathom::runtime {
namespace {

using graph::OpClass;
using graph::Output;

TEST(TracerConcurrentTest, HammerRecordFromManyThreads)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    const std::array<OpClass, 4> classes = {
        OpClass::kMatrixOps, OpClass::kElementwise,
        OpClass::kReductionExpansion, OpClass::kDataMovement};

    Tracer tracer;
    tracer.BeginStep(kThreads * kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tracer, &classes, t] {
            // Thread t takes every kThreads-th slot, so neighbouring
            // slots are written by different threads.
            for (int i = 0; i < kPerThread; ++i) {
                const std::int64_t seq =
                    static_cast<std::int64_t>(i) * kThreads + t;
                OpExecRecord* record =
                    tracer.SlotFor(static_cast<std::size_t>(seq));
                ASSERT_NE(record, nullptr);
                record->node = static_cast<graph::NodeId>(seq);
                record->op_class = classes[seq % classes.size()];
                record->op_type = "Op" + std::to_string(t);
                record->wall_seconds =
                    static_cast<double>(seq % 64 + 1) / 1024.0;
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    tracer.EndStep(/*step_wall_seconds=*/1.0);

    ASSERT_EQ(tracer.steps().size(), 1u);
    const StepTrace& step = tracer.steps().back();
    ASSERT_EQ(step.records.size(),
              static_cast<std::size_t>(kThreads * kPerThread));

    // Canonical order: sorted by seq, with no record lost or duplicated.
    double expected_total = 0.0;
    std::array<int, 4> expected_class_counts{};
    for (std::int64_t seq = 0; seq < kThreads * kPerThread; ++seq) {
        expected_total += static_cast<double>(seq % 64 + 1) / 1024.0;
        expected_class_counts[seq % classes.size()]++;
    }
    std::array<int, 4> class_counts{};
    for (std::size_t i = 0; i < step.records.size(); ++i) {
        ASSERT_EQ(step.records[i].seq, static_cast<std::int64_t>(i));
        for (std::size_t c = 0; c < classes.size(); ++c) {
            if (step.records[i].op_class == classes[c]) {
                class_counts[c]++;
            }
        }
    }
    EXPECT_EQ(class_counts, expected_class_counts);
    // Exact: every addend is a multiple of 2^-10 summed in seq order.
    EXPECT_EQ(step.OpSeconds(), expected_total);
    EXPECT_EQ(step.wall_seconds, 1.0);
}

TEST(TracerConcurrentTest, RecordsOutsideStepAreDropped)
{
    Tracer tracer;
    EXPECT_EQ(tracer.SlotFor(0), nullptr);  // no BeginStep
    EXPECT_TRUE(tracer.steps().empty());

    tracer.BeginStep(2);
    EXPECT_EQ(tracer.SlotFor(2), nullptr);  // past the plan's steps
    tracer.SlotFor(1)->node = 7;            // slot 0 left unfilled
    tracer.EndStep(1.0);
    ASSERT_EQ(tracer.steps().size(), 1u);
    ASSERT_EQ(tracer.steps()[0].records.size(), 1u);
    EXPECT_EQ(tracer.steps()[0].records[0].node, 7);
    EXPECT_EQ(tracer.steps()[0].records[0].seq, 1);
    EXPECT_EQ(tracer.SlotFor(0), nullptr);  // after EndStep

    tracer.set_enabled(false);
    tracer.BeginStep(2);
    EXPECT_EQ(tracer.SlotFor(0), nullptr);
    tracer.EndStep(1.0);
    EXPECT_EQ(tracer.steps().size(), 1u);
}

TEST(TracerConcurrentTest, CopyDetachesFromSource)
{
    // suite.cc copies live tracers into WorkloadTraces; the copy must
    // carry the steps and stay independent of the original.
    Tracer tracer;
    tracer.BeginStep(1);
    OpExecRecord* record = tracer.SlotFor(0);
    record->node = 0;
    record->wall_seconds = 0.25;
    tracer.EndStep(0.5);

    Tracer copy = tracer;
    tracer.Clear();
    ASSERT_EQ(copy.steps().size(), 1u);
    EXPECT_EQ(copy.steps()[0].records.size(), 1u);
    EXPECT_EQ(copy.steps()[0].wall_seconds, 0.5);
    EXPECT_TRUE(tracer.steps().empty());
}

TEST(TracerConcurrentTest, ParallelExecutorTracesEveryNodeOnce)
{
    ops::RegisterStandardOps();
    // As written: the test counts one record per node it built.
    Session session(1, {.inter_op_threads = 4, .graph_rewrites = false});
    auto b = session.MakeBuilder();
    const Output x = b.Placeholder("x");
    const Output a = b.Relu(x);
    const Output c = b.Tanh(x);
    const Output d = b.Sigmoid(x);
    const Output y = b.AddN({b.Mul(a, c), d});

    Tensor feed(DType::kFloat32, Shape{64});
    feed.Fill(0.375f);
    FeedMap feeds;
    feeds[x.node] = feed;
    session.Run(feeds, {y});

    const StepTrace& step = session.tracer().steps().back();
    std::set<graph::NodeId> seen;
    std::int64_t prev_seq = -1;
    for (const auto& record : step.records) {
        EXPECT_TRUE(seen.insert(record.node).second)
            << "node " << record.node << " traced twice";
        EXPECT_LT(prev_seq, record.seq);
        prev_seq = record.seq;
    }
    // Every executed op appears (placeholders are not traced):
    // Relu, Tanh, Sigmoid, Mul, AddN.
    EXPECT_EQ(seen.size(), 5u);
}

}  // namespace
}  // namespace fathom::runtime
