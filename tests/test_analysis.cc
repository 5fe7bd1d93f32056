/**
 * @file
 * Tests for the analysis toolchain: op profiles, skew curves, cosine
 * similarity / clustering, stationarity statistics, and thread sweeps.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "analysis/op_profile.h"
#include "analysis/scaling.h"
#include "analysis/similarity.h"
#include "analysis/stationarity.h"

namespace fathom::analysis {
namespace {

using graph::OpClass;

runtime::OpExecRecord
MakeRecord(const std::string& type, OpClass op_class, double wall,
           double flops = 0.0, std::int64_t parallel = 1)
{
    runtime::OpExecRecord r;
    r.op_type = type;
    r.op_class = op_class;
    r.wall_seconds = wall;
    r.cost.flops = flops;
    r.cost.bytes = 0;
    r.cost.parallel_work = parallel;
    return r;
}

/** Appends one traced step holding @p records, in order. */
void
TraceStep(runtime::Tracer& tracer, std::vector<runtime::OpExecRecord> records,
          double wall)
{
    tracer.BeginStep(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        runtime::OpExecRecord& slot = *tracer.SlotFor(i);
        slot = std::move(records[i]);
        slot.node = static_cast<graph::NodeId>(i);
    }
    tracer.EndStep(wall);
}

TEST(OpProfileTest, AddAndFractions)
{
    OpProfile p;
    p.Add("MatMul", OpClass::kMatrixOps, 3.0);
    p.Add("Add", OpClass::kElementwise, 1.0);
    p.Add("MatMul", OpClass::kMatrixOps, 1.0);
    EXPECT_DOUBLE_EQ(p.total_seconds(), 5.0);
    EXPECT_DOUBLE_EQ(p.ClassFraction(OpClass::kMatrixOps), 0.8);
    EXPECT_DOUBLE_EQ(p.ClassFraction(OpClass::kElementwise), 0.2);
    EXPECT_DOUBLE_EQ(p.ClassFraction(OpClass::kConvolution), 0.0);
}

TEST(OpProfileTest, SortedFractionsDescending)
{
    OpProfile p;
    p.Add("A", OpClass::kElementwise, 1.0);
    p.Add("B", OpClass::kElementwise, 3.0);
    p.Add("C", OpClass::kElementwise, 2.0);
    const auto sorted = p.SortedFractions();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0].first, "B");
    EXPECT_EQ(sorted[1].first, "C");
    EXPECT_EQ(sorted[2].first, "A");
}

TEST(OpProfileTest, SkewCurveIsCumulativeAndEndsAtOne)
{
    // Powers of two keep the fractions exactly representable.
    OpProfile p;
    p.Add("A", OpClass::kElementwise, 4.0);
    p.Add("B", OpClass::kElementwise, 2.0);
    p.Add("C", OpClass::kElementwise, 2.0);
    const auto curve = p.SkewCurve();
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_NEAR(curve[0], 0.5, 1e-12);
    EXPECT_NEAR(curve[1], 0.75, 1e-12);
    EXPECT_NEAR(curve[2], 1.0, 1e-12);
    EXPECT_EQ(p.TypesToCover(0.75), 2);
    EXPECT_EQ(p.TypesToCover(0.9), 3);
    EXPECT_EQ(p.TypesToCover(0.5), 1);
}

TEST(OpProfileTest, EmptyProfile)
{
    OpProfile p;
    EXPECT_DOUBLE_EQ(p.total_seconds(), 0.0);
    EXPECT_TRUE(p.SkewCurve().empty());
    EXPECT_EQ(p.TypesToCover(0.9), 0);
}

TEST(OpProfileTest, FromTraceSkipsWarmupAndControl)
{
    runtime::Tracer tracer;
    TraceStep(tracer, {MakeRecord("Warm", OpClass::kElementwise, 100.0)},
              100.0);
    TraceStep(tracer,
              {MakeRecord("MatMul", OpClass::kMatrixOps, 2.0),
               MakeRecord("Variable", OpClass::kControl, 50.0)},
              3.0);

    const auto p = WallProfile(tracer, /*skip_steps=*/1);
    EXPECT_DOUBLE_EQ(p.total_seconds(), 2.0);  // warmup + control excluded.
    EXPECT_EQ(p.by_type().count("Warm"), 0u);
    EXPECT_EQ(p.by_type().count("Variable"), 0u);
}

TEST(OpProfileTest, SimulatedSourceUsesCosts)
{
    runtime::Tracer tracer;
    // wall time 1s, but cost says 8e9 flops => 1s at 8 GFLOP/s CPU(1).
    TraceStep(tracer,
              {MakeRecord("MatMul", OpClass::kMatrixOps, 123.0, 8e9, 1 << 20)},
              123.0);
    const auto p = ProfileFromTrace(tracer, 0, TimeSource::kSimulated,
                                    runtime::DeviceSpec::Cpu(1));
    EXPECT_NEAR(p.total_seconds(), 1.0, 0.01);
}

TEST(SimilarityTest, CosineDistanceBasics)
{
    EXPECT_NEAR(CosineDistance({1, 0}, {1, 0}), 0.0, 1e-12);
    EXPECT_NEAR(CosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
    EXPECT_NEAR(CosineDistance({1, 1}, {1, 1}), 0.0, 1e-12);
    EXPECT_NEAR(CosineDistance({1, 0}, {1, 1}),
                1.0 - 1.0 / std::sqrt(2.0), 1e-9);
    // Zero vector convention.
    EXPECT_DOUBLE_EQ(CosineDistance({0, 0}, {1, 1}), 1.0);
    EXPECT_THROW(CosineDistance({1}, {1, 2}), std::invalid_argument);
}

TEST(SimilarityTest, ProfileMatrixAlignsTypes)
{
    OpProfile a;
    a.Add("MatMul", OpClass::kMatrixOps, 1.0);
    OpProfile b;
    b.Add("Conv2D", OpClass::kConvolution, 2.0);
    const auto matrix = ProfileMatrix({a, b});
    ASSERT_EQ(matrix.size(), 2u);
    ASSERT_EQ(matrix[0].size(), 2u);  // union of {MatMul, Conv2D}.
    // Disjoint profiles are orthogonal.
    EXPECT_NEAR(CosineDistance(matrix[0], matrix[1]), 1.0, 1e-12);
}

TEST(SimilarityTest, ClusteringMergesNearestFirst)
{
    // Two tight pairs, far apart: (e1, e1'), (e2, e2').
    const std::vector<std::vector<double>> vectors = {
        {1.0, 0.05}, {1.0, 0.06}, {0.05, 1.0}, {0.04, 1.0}};
    const auto merges = AgglomerativeCluster(vectors);
    ASSERT_EQ(merges.size(), 3u);
    // First two merges are the tight pairs (order may vary).
    auto is_pair = [](const Merge& m, int a, int b) {
        return (m.left == a && m.right == b) || (m.left == b && m.right == a);
    };
    EXPECT_TRUE(is_pair(merges[0], 0, 1) || is_pair(merges[0], 2, 3));
    EXPECT_TRUE(is_pair(merges[1], 0, 1) || is_pair(merges[1], 2, 3));
    // The final merge joins the two pair-clusters at a larger distance.
    EXPECT_GT(merges[2].distance, merges[0].distance);
    EXPECT_GT(merges[2].distance, merges[1].distance);
    // Merge distances of the two tight pairs are near zero.
    EXPECT_LT(merges[0].distance, 0.01);
}

TEST(SimilarityTest, DendrogramListsAllLeaves)
{
    const std::vector<std::vector<double>> vectors = {
        {1.0, 0.0}, {0.9, 0.1}, {0.0, 1.0}};
    const auto merges = AgglomerativeCluster(vectors);
    const auto render = RenderDendrogram({"a", "b", "c"}, merges);
    EXPECT_NE(render.find("a"), std::string::npos);
    EXPECT_NE(render.find("b"), std::string::npos);
    EXPECT_NE(render.find("c"), std::string::npos);
}

TEST(SimilarityTest, SingleLeafNoMerges)
{
    EXPECT_TRUE(AgglomerativeCluster({{1.0}}).empty());
    EXPECT_TRUE(AgglomerativeCluster({}).empty());
}

TEST(StationarityTest, StableSeriesHasLowCvAndDrift)
{
    runtime::Tracer tracer;
    for (int s = 0; s < 20; ++s) {
        TraceStep(tracer,
                  {MakeRecord("MatMul", OpClass::kMatrixOps, 1.0),
                   MakeRecord("MatMul", OpClass::kMatrixOps, 1.0)},
                  2.1);
    }
    const auto stats = ComputeStationarity(tracer, 0);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].op_type, "MatMul");
    EXPECT_EQ(stats[0].samples, 20);
    EXPECT_NEAR(stats[0].mean, 2.0, 1e-12);  // two records per step.
    EXPECT_NEAR(stats[0].cv, 0.0, 1e-12);
    EXPECT_NEAR(stats[0].drift(), 0.0, 1e-12);
}

TEST(StationarityTest, DriftDetectsTrend)
{
    runtime::Tracer tracer;
    for (int s = 0; s < 10; ++s) {
        // First half 1.0, second half 3.0.
        TraceStep(tracer,
                  {MakeRecord("Op", OpClass::kElementwise, s < 5 ? 1.0 : 3.0)},
                  3.0);
    }
    const auto stats = ComputeStationarity(tracer, 0);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_NEAR(stats[0].drift(), 1.0, 1e-9);  // |3-1| / mean 2.
}

TEST(StationarityTest, OverheadFraction)
{
    runtime::Tracer tracer;
    TraceStep(tracer, {MakeRecord("Op", OpClass::kElementwise, 0.9)}, 1.0);
    EXPECT_NEAR(FrameworkOverheadFraction(tracer, 0), 0.1, 1e-9);
    EXPECT_DOUBLE_EQ(FrameworkOverheadFraction(tracer, 5), 0.0);
}

TEST(ScalingTest, SweepShrinksParallelOpsOnly)
{
    runtime::Tracer tracer;
    TraceStep(tracer,
              {MakeRecord("Big", OpClass::kMatrixOps, 1.0, 1e9, 1 << 20),
               MakeRecord("Tiny", OpClass::kElementwise, 1.0, 1e3, 8)},
              2.0);

    const auto sweep = SweepThreads(tracer, 0, {1, 8});
    const auto& big = sweep.seconds_by_type.at("Big");
    const auto& tiny = sweep.seconds_by_type.at("Tiny");
    EXPECT_GT(big[0] / big[1], 4.0);         // scales.
    EXPECT_NEAR(tiny[0], tiny[1], 1e-12);    // does not.
    EXPECT_GT(sweep.TotalAt(0), sweep.TotalAt(1));
}

TEST(ScalingTest, TopTypesOrdersBySingleThreadTime)
{
    runtime::Tracer tracer;
    TraceStep(tracer,
              {MakeRecord("Small", OpClass::kElementwise, 1.0, 1e6, 1),
               MakeRecord("Large", OpClass::kMatrixOps, 1.0, 1e9, 1)},
              2.0);
    const auto sweep = SweepThreads(tracer, 0, {1});
    const auto top = TopTypes(sweep, 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], "Large");
    EXPECT_EQ(TopTypes(sweep, 1).size(), 1u);
}

TEST(ScalingTest, SimulatedTotalExcludesControl)
{
    runtime::Tracer tracer;
    TraceStep(tracer,
              {MakeRecord("Var", OpClass::kControl, 1.0, 1e9, 1),
               MakeRecord("MatMul", OpClass::kMatrixOps, 1.0, 8e9, 1)},
              2.0);
    const double total =
        SimulatedTotalSeconds(tracer, 0, runtime::DeviceSpec::Cpu(1));
    EXPECT_NEAR(total, 1.0, 0.01);  // only the MatMul contributes.
}

}  // namespace
}  // namespace fathom::analysis
