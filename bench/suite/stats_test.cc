#include "stats.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

namespace fathom::bench_suite {
namespace {

TEST(PercentileTest, NearestRankPicksASample)
{
    const std::vector<double> v = {15, 20, 35, 40, 50};
    EXPECT_EQ(Percentile(v, 5), 15);
    EXPECT_EQ(Percentile(v, 30), 20);
    EXPECT_EQ(Percentile(v, 40), 20);
    EXPECT_EQ(Percentile(v, 50), 35);
    EXPECT_EQ(Percentile(v, 100), 50);
    EXPECT_EQ(Percentile(v, 0), 15);
}

TEST(PercentileTest, IgnoresInputOrderAndClampsP)
{
    const std::vector<double> v = {9, 1, 5, 3, 7};
    EXPECT_EQ(Percentile(v, 50), 5);
    EXPECT_EQ(Percentile(v, -10), 1);
    EXPECT_EQ(Percentile(v, 250), 9);
}

TEST(PercentileTest, P99NeedsAHundredSamplesToLeaveTheMaximum)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) {
        v.push_back(i);
    }
    EXPECT_EQ(Percentile(v, 99), 99);
    v.pop_back();
    EXPECT_EQ(Percentile(v, 99), 99);  // 99 samples: p99 is the maximum.
}

TEST(PercentileTest, EmptySampleThrows)
{
    EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(Summarize({}), std::invalid_argument);
}

TEST(SummaryTest, MedianOfWindowsWithQuartiles)
{
    // Eight windows: ranks 2, 4 and 6 of the sorted sample.
    const Summary s = Summarize({8, 1, 7, 2, 6, 3, 5, 4});
    EXPECT_EQ(s.n, 8);
    EXPECT_EQ(s.q1, 2);
    EXPECT_EQ(s.median, 4);
    EXPECT_EQ(s.q3, 6);
    EXPECT_DOUBLE_EQ(s.RelativeSpread(), 1.0);

    const Summary one = Summarize({3.5});
    EXPECT_EQ(one.median, 3.5);
    EXPECT_EQ(one.q1, 3.5);
    EXPECT_EQ(one.q3, 3.5);
    EXPECT_EQ(one.RelativeSpread(), 0.0);
}

const Bound kTenPercent{0.10, false};

TEST(JudgeTest, WithinTheBoundIsSame)
{
    EXPECT_EQ(Judge({100, 101, 99}, {104, 105, 103}, Better::kLower, kTenPercent),
              Verdict::kSame);
    EXPECT_EQ(Judge({100, 101, 99}, {96, 95, 97}, Better::kHigher, kTenPercent),
              Verdict::kSame);
}

TEST(JudgeTest, DirectionDecidesWorseOrBetter)
{
    const std::vector<double> parent = {100, 101, 99};
    const std::vector<double> slower = {120, 121, 119};
    EXPECT_EQ(Judge(parent, slower, Better::kLower, kTenPercent), Verdict::kWorse);
    EXPECT_EQ(Judge(parent, slower, Better::kHigher, kTenPercent), Verdict::kBetter);
    EXPECT_EQ(Judge(slower, parent, Better::kLower, kTenPercent), Verdict::kBetter);
}

TEST(JudgeTest, SpreadWiderThanTheBoundIsUnresolved)
{
    // The change's runs spread 30% around their median.
    EXPECT_EQ(Judge({100, 100, 100}, {85, 100, 115}, Better::kLower, kTenPercent),
              Verdict::kUnresolved);
    // Noisy parent, and a change whose median moved past the bound.
    EXPECT_EQ(Judge({70, 100, 130}, {120, 121, 122}, Better::kLower, kTenPercent),
              Verdict::kUnresolved);
}

TEST(JudgeTest, NoisyButEveryRunBetterIsBetter)
{
    EXPECT_EQ(Judge({100, 130, 160}, {40, 55, 70}, Better::kLower, kTenPercent),
              Verdict::kBetter);
    EXPECT_EQ(Judge({40, 55, 70}, {100, 130, 160}, Better::kHigher, kTenPercent),
              Verdict::kBetter);
}

TEST(JudgeTest, AbsoluteZeroBoundForFailedFraction)
{
    const Bound zero{0.0, true};
    EXPECT_EQ(Judge({0, 0, 0}, {0, 0, 0}, Better::kLower, zero), Verdict::kSame);
    EXPECT_EQ(Judge({0, 0, 0}, {0, 0.001, 0.001}, Better::kLower, zero),
              Verdict::kWorse);
    EXPECT_EQ(Judge({0.01, 0.01, 0.01}, {0, 0, 0}, Better::kLower, zero),
              Verdict::kBetter);
    // The absolute bound never reports a spread.
    EXPECT_EQ(Judge({0, 0, 0.5}, {0, 0, 0.5}, Better::kLower, zero), Verdict::kSame);
}

TEST(LadderTest, RatesAndRungCounts)
{
    EXPECT_DOUBLE_EQ(LadderRate(100, 1.05, 0), 100);
    EXPECT_NEAR(LadderRate(100, 1.05, 2), 110.25, 1e-9);
    EXPECT_EQ(LadderRungs(100, 100, 1.05), 1);
    EXPECT_EQ(LadderRungs(100, 110.25, 1.05), 3);
    EXPECT_EQ(LadderRungs(100, 1000, 1.05), 48);
}

/** Drives a search to the end with @p probe. */
template <typename Probe>
LadderSearch
Search(int rungs, Probe probe)
{
    LadderSearch search(rungs);
    while (const auto k = search.Next()) {
        search.Record(*k, probe(*k));
    }
    return search;
}

TEST(LadderTest, FindsTheKneeOfAMonotoneCurve)
{
    const int rungs = 48;
    for (int knee = -1; knee < rungs; ++knee) {
        std::map<int, int> asked;
        const LadderSearch s = Search(rungs, [&](int k) {
            ++asked[k];
            return k <= knee;
        });
        EXPECT_EQ(s.rung(), knee) << "knee " << knee;
        // Bisection plus confirmation: log2(48) + 2 probes, at most.
        EXPECT_LE(s.probes(), 8) << "knee " << knee;
        for (const auto& [k, n] : asked) {
            EXPECT_LE(n, 3) << "rung " << k;
        }
    }
}

TEST(LadderTest, TopRungMustPassTwoOfThree)
{
    // Rung 20 passes the bisection's probe, then fails twice: the search
    // steps down to 19, confirms it, and never probes 20 again.
    std::map<int, int> calls;
    const LadderSearch s = Search(48, [&](int k) {
        const int n = calls[k]++;
        if (k == 20) {
            return n == 0;
        }
        return k < 20;
    });
    EXPECT_EQ(s.rung(), 19);
    EXPECT_EQ(calls[20], 3);
    EXPECT_EQ(calls[21], 1);
}

TEST(LadderTest, OneFlakyFailureAtTheTopIsOutvoted)
{
    // Rung 20 passes, fails, passes: confirmed 2 of 3.
    std::map<int, int> calls;
    const LadderSearch s = Search(48, [&](int k) {
        const int n = calls[k]++;
        if (k == 20) {
            return n != 1;
        }
        return k < 20;
    });
    EXPECT_EQ(s.rung(), 20);
    EXPECT_EQ(calls[20], 3);
}

TEST(LadderTest, StepsDownAcrossSeveralFailedConfirmations)
{
    // Rungs 18..20 each pass once and then fail: the search steps down
    // to 17, probing none of them more than three times.
    std::map<int, int> calls;
    const LadderSearch s = Search(48, [&](int k) {
        const int n = calls[k]++;
        return k < 18 || (k <= 20 && n == 0);
    });
    EXPECT_EQ(s.rung(), 17);
    for (int k = 18; k <= 20; ++k) {
        EXPECT_LE(calls[k], 3) << "rung " << k;
    }
}

TEST(LadderTest, SingleRungLadder)
{
    EXPECT_EQ(Search(1, [](int) { return true; }).rung(), 0);
    EXPECT_EQ(Search(1, [](int) { return false; }).rung(), -1);
}

}  // namespace
}  // namespace fathom::bench_suite
