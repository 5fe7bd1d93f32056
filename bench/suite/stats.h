/**
 * @file
 * The statistics behind every bench_suite number: nearest-rank
 * percentiles, median-of-windows with quartiles, the regression
 * verdict against a fixed bound, and the max-rate ladder search.
 *
 * Kept free of the fathom libraries so the unit tests exercise it on
 * synthetic inputs only.
 */
#ifndef FATHOM_BENCH_SUITE_STATS_H
#define FATHOM_BENCH_SUITE_STATS_H

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace fathom::bench_suite {

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * @p p percent of the samples are at or below it. Always returns one
 * of the samples. @p p is clamped to [0, 100].
 *
 * @throws std::invalid_argument on an empty sample.
 */
double Percentile(std::vector<double> values, double p);

/** Median and quartiles of a sample (all nearest-rank). */
struct Summary {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    int n = 0;

    /** @return (q3 - q1) / |median|, or 0 when the median is 0. */
    double RelativeSpread() const;
};

/** @throws std::invalid_argument on an empty sample. */
Summary Summarize(const std::vector<double>& values);

enum class Better { kLower, kHigher };

enum class Verdict { kSame, kBetter, kWorse, kUnresolved };

std::string VerdictName(Verdict v);

/**
 * How far a metric may worsen before a change counts as a regression:
 * a share of the parent's median, or (absolute) a distance in the
 * metric's own unit.
 */
struct Bound {
    double value = 0.0;
    bool absolute = false;
};

/**
 * Judges the runs of a change (@p change) against the runs of its
 * parent (@p parent).
 *
 *  - absolute bound: worse when the change's median exceeds the
 *    parent's by more than the bound in the worse direction, better
 *    when it improves by more, else same;
 *  - relative bound: unresolved when either side's quartile spread,
 *    as a share of its median, is wider than the bound, unless every
 *    run of the change reads better than every run of the parent (then
 *    better); otherwise worse/better when the medians differ by more
 *    than the bound, else same.
 *
 * @throws std::invalid_argument if either side is empty.
 */
Verdict Judge(const std::vector<double>& parent,
              const std::vector<double>& change, Better better, Bound bound);

/**
 * Finds the highest rung of a ladder whose probe passes, assuming
 * pass/fail is monotone in the rung (a higher offered rate never
 * passes where a lower one fails) up to noise.
 *
 * Bisects between a known pass and a known fail, then confirms the top
 * passing rung: it must pass 2 of 3 probes. A rung that fails
 * confirmation counts as failing and the search steps down one rung,
 * confirming there. Every verdict is remembered, so no rung is probed
 * more than 3 times.
 *
 * The caller runs the probes, so it can interleave them with other
 * work:
 *
 *     LadderSearch search(rungs);
 *     while (const auto k = search.Next()) {
 *         search.Record(*k, Probe(*k));
 *     }
 */
class LadderSearch {
  public:
    /** @param rungs number of rungs, indices 0 .. rungs-1. */
    explicit LadderSearch(int rungs);

    /** @return the rung to probe next, or nullopt when the search is done. */
    std::optional<int> Next();

    /** Records the verdict of a probe of @p rung. */
    void Record(int rung, bool passed);

    /** Highest confirmed passing rung, or -1 if none passed (when done). */
    int rung() const { return lo_; }

    /** Probes recorded so far. */
    int probes() const { return probes_; }

  private:
    // lo_: highest rung seen passing (-1: none); hi_: lowest rung seen
    // failing (rungs: none). Rungs below lo_ were never probed or passed.
    int lo_ = -1;
    int hi_ = 0;
    int probes_ = 0;
    std::map<int, std::pair<int, int>> seen_;  ///< rung -> (passes, fails)
};

/** @return rate of rung @p k on a geometric ladder lo * ratio^k. */
double LadderRate(double lo, double ratio, int k);

/** @return rung count of the ladder lo * ratio^k that stays <= hi. */
int LadderRungs(double lo, double hi, double ratio);

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_STATS_H
