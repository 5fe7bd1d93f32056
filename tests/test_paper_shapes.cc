/**
 * @file
 * Regression tests for the paper's headline findings.
 *
 * These are the load-bearing assertions of the whole reproduction:
 * each test re-derives one qualitative result from the paper's
 * evaluation on a small run and fails if the shape ever regresses.
 * EXPERIMENTS.md records the quantitative versions.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/op_profile.h"
#include "analysis/scaling.h"
#include "analysis/similarity.h"
#include "analysis/stationarity.h"
#include "core/suite.h"

namespace fathom {
namespace {

using analysis::OpProfile;
using graph::OpClass;

core::SuiteRunOptions
FastOptions()
{
    core::SuiteRunOptions options;
    options.warmup_steps = 1;
    options.train_steps = 2;
    options.infer_steps = 0;
    options.workload.seed = 13;
    return options;
}

OpProfile
TrainProfile(const std::string& name)
{
    const auto traces = core::RunAndTrace(name, FastOptions());
    return analysis::WallProfile(traces.training, traces.warmup_steps);
}

// ---- Fig. 2: a handful of op types dominate -----------------------------

TEST(PaperShapes, Fig2_SkewWithinPaperBand)
{
    for (const std::string name : {"vgg", "memnet", "speech"}) {
        const auto profile = TrainProfile(name);
        const int needed = profile.TypesToCover(0.9);
        EXPECT_GE(needed, 1) << name;
        EXPECT_LE(needed, 15) << name << ": paper band is 5-15 types";
    }
}

// ---- Fig. 3: class dominance per model -----------------------------------

TEST(PaperShapes, Fig3_ConvNetsDominatedByConvolution)
{
    for (const std::string name : {"vgg", "residual", "alexnet"}) {
        const auto profile = TrainProfile(name);
        EXPECT_GT(profile.ClassFraction(OpClass::kConvolution), 0.5)
            << name;
    }
}

TEST(PaperShapes, Fig3_SpeechDominatedByMatMul)
{
    const auto profile = TrainProfile("speech");
    EXPECT_GT(profile.ClassFraction(OpClass::kMatrixOps), 0.5);
    // And the CTC loss is visible as Optimization-class work.
    EXPECT_GT(profile.ClassFraction(OpClass::kOptimization), 0.005);
}

TEST(PaperShapes, Fig3_Seq2SeqMixesMatMulElementwiseAndMovement)
{
    const auto profile = TrainProfile("seq2seq");
    // The matrix-op floor was 0.25 before the blocked GEMM engine;
    // matmul wall time shrank ~4x while elementwise and movement ops
    // did not, so the recurrent cells' matmul share now sits near 0.2.
    // The paper's qualitative claim is the three-way mix, which holds.
    EXPECT_GT(profile.ClassFraction(OpClass::kMatrixOps), 0.10);
    EXPECT_GT(profile.ClassFraction(OpClass::kElementwise), 0.10);
    EXPECT_GT(profile.ClassFraction(OpClass::kDataMovement), 0.03);
}

TEST(PaperShapes, Fig3_AutoencSamplesDuringInference)
{
    core::SuiteRunOptions options = FastOptions();
    options.infer_steps = 2;
    const auto traces = core::RunAndTrace("autoenc", options);
    const auto profile = analysis::ProfileFromTrace(
        traces.inference, traces.warmup_steps, analysis::TimeSource::kWall,
        runtime::DeviceSpec::Cpu(1));
    // RandomSampling present in the *inference* profile.
    EXPECT_GT(profile.ClassFraction(OpClass::kRandomSampling), 0.0);
}

TEST(PaperShapes, Fig3_FullyConnectedShareVanishesAcrossIlsvrcWinners)
{
    const double alexnet =
        TrainProfile("alexnet").ClassFraction(OpClass::kMatrixOps);
    const double vgg = TrainProfile("vgg").ClassFraction(OpClass::kMatrixOps);
    const double residual =
        TrainProfile("residual").ClassFraction(OpClass::kMatrixOps);
    // Monotone decline (Sec. V-B longitudinal comparison).
    EXPECT_GT(alexnet, vgg);
    EXPECT_GE(vgg, residual);
}

// ---- Fig. 4: similarity structure ----------------------------------------

TEST(PaperShapes, Fig4_ConvClusterTighterThanRecurrentPair)
{
    // Each distance comes from two steps of wall-clock op time, so one
    // preempted op (a few ms) on a shared host moves it. The test
    // judges the median over five interleaved repetitions, in which a
    // single hiccup cannot decide the outcome.
    constexpr int kReps = 5;
    std::vector<double> conv_pairs;
    std::vector<double> recurrent_pairs;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<OpProfile> profiles;
        for (const std::string name :
             {"vgg", "residual", "speech", "seq2seq"}) {
            profiles.push_back(TrainProfile(name));
        }
        const auto matrix = analysis::ProfileMatrix(profiles);
        conv_pairs.push_back(analysis::CosineDistance(matrix[0], matrix[1]));
        recurrent_pairs.push_back(
            analysis::CosineDistance(matrix[2], matrix[3]));
    }
    auto median = [](std::vector<double> v) {
        std::nth_element(v.begin(), v.begin() + kReps / 2, v.end());
        return v[kReps / 2];
    };
    const double conv_pair = median(conv_pairs);
    const double recurrent_pair = median(recurrent_pairs);
    EXPECT_LT(conv_pair, recurrent_pair);
    EXPECT_LT(conv_pair, 0.05);  // "tightly clustered".
}

// ---- Fig. 5: training vs inference, devices ------------------------------

TEST(PaperShapes, Fig5_TrainingCostsMoreThanInference)
{
    core::SuiteRunOptions options = FastOptions();
    options.infer_steps = 2;
    for (const std::string name : {"vgg", "autoenc", "memnet"}) {
        const auto traces = core::RunAndTrace(name, options);
        const auto cpu = runtime::DeviceSpec::Cpu(1);
        const double train = analysis::SimulatedTotalSeconds(
            traces.training, traces.warmup_steps, cpu);
        const double infer = analysis::SimulatedTotalSeconds(
            traces.inference, traces.warmup_steps, cpu);
        EXPECT_GT(train, 1.5 * infer) << name;
    }
}

TEST(PaperShapes, Fig5_GpuGainsLargestOnConvNets)
{
    const auto cpu = runtime::DeviceSpec::Cpu(1);
    const auto gpu = runtime::DeviceSpec::Gpu();
    auto speedup = [&](const std::string& name) {
        const auto traces = core::RunAndTrace(name, FastOptions());
        return analysis::SimulatedTotalSeconds(traces.training,
                                               traces.warmup_steps, cpu) /
               analysis::SimulatedTotalSeconds(traces.training,
                                               traces.warmup_steps, gpu);
    };
    const double conv_net = speedup("alexnet");
    const double memory_net = speedup("memnet");
    EXPECT_GT(conv_net, 5.0);
    EXPECT_GT(conv_net, 4.0 * memory_net);
}

// ---- Fig. 6: Amdahl at the application level ------------------------------

TEST(PaperShapes, Fig6_DeepqScalesMemnetDoesNot)
{
    auto total_speedup = [&](const std::string& name) {
        const auto traces = core::RunAndTrace(name, FastOptions());
        const auto sweep = analysis::SweepThreads(
            traces.training, traces.warmup_steps, {1, 8});
        return sweep.TotalAt(0) / sweep.TotalAt(1);
    };
    EXPECT_GT(total_speedup("deepq"), 2.0);
    EXPECT_LT(total_speedup("memnet"), 1.2);
}

TEST(PaperShapes, Fig6_OptimizerShareRisesWithParallelism)
{
    const auto traces = core::RunAndTrace("deepq", FastOptions());
    const auto sweep = analysis::SweepThreads(traces.training,
                                              traces.warmup_steps, {1, 8});
    const auto& rmsprop = sweep.seconds_by_type.at("ApplyRMSProp");
    const double share1 = rmsprop[0] / sweep.TotalAt(0);
    const double share8 = rmsprop[1] / sweep.TotalAt(1);
    EXPECT_NEAR(rmsprop[0], rmsprop[1], 1e-12);  // the op itself is flat...
    EXPECT_GT(share8, 2.0 * share1);             // ...so its share rises.
}

// ---- Fig. 1 / Sec. V-A: stationarity and overhead --------------------------

TEST(PaperShapes, Fig1_HeavyOpsAreStationary)
{
    core::SuiteRunOptions options = FastOptions();
    options.train_steps = 8;
    const auto traces = core::RunAndTrace("vgg", options);
    const auto stats =
        analysis::ComputeStationarity(traces.training, traces.warmup_steps);
    for (const auto& s : stats) {
        if (s.op_type == "Conv2D") {
            EXPECT_LT(s.cv, 0.5);
            EXPECT_LT(s.drift(), 0.5);
            return;
        }
    }
    FAIL() << "Conv2D missing from vgg trace";
}

TEST(PaperShapes, SecVA_OverheadSmallForComputeBoundModels)
{
    core::SuiteRunOptions options = FastOptions();
    options.train_steps = 4;
    const auto traces = core::RunAndTrace("residual", options);
    EXPECT_LT(analysis::FrameworkOverheadFraction(traces.training,
                                                  traces.warmup_steps),
              0.05);
}

}  // namespace
}  // namespace fathom
