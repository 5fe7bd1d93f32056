#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fathom::bench_suite {

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        throw std::invalid_argument("Percentile: empty sample");
    }
    std::sort(values.begin(), values.end());
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * n));
    return values[rank == 0 ? 0 : rank - 1];
}

double
Summary::RelativeSpread() const
{
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

Summary
Summarize(const std::vector<double>& values)
{
    Summary s;
    s.median = Percentile(values, 50.0);
    s.q1 = Percentile(values, 25.0);
    s.q3 = Percentile(values, 75.0);
    s.n = static_cast<int>(values.size());
    return s;
}

std::string
VerdictName(Verdict v)
{
    switch (v) {
        case Verdict::kSame:
            return "same";
        case Verdict::kBetter:
            return "better";
        case Verdict::kWorse:
            return "worse";
        case Verdict::kUnresolved:
            return "unresolved";
    }
    return "?";
}

Verdict
Judge(const std::vector<double>& parent, const std::vector<double>& change,
      Better better, Bound bound)
{
    const Summary a = Summarize(parent);
    const Summary b = Summarize(change);
    // Positive means the change moved in the worse direction.
    const double sign = better == Better::kLower ? 1.0 : -1.0;
    const auto classify = [&](double worsening) {
        if (worsening > bound.value) {
            return Verdict::kWorse;
        }
        if (worsening < -bound.value) {
            return Verdict::kBetter;
        }
        return Verdict::kSame;
    };
    if (bound.absolute) {
        return classify(sign * (b.median - a.median));
    }
    if (std::max(a.RelativeSpread(), b.RelativeSpread()) > bound.value) {
        const auto [a_lo, a_hi] = std::minmax_element(parent.begin(), parent.end());
        const auto [b_lo, b_hi] = std::minmax_element(change.begin(), change.end());
        const bool all_better = better == Better::kLower ? *b_hi < *a_lo
                                                         : *b_lo > *a_hi;
        return all_better ? Verdict::kBetter : Verdict::kUnresolved;
    }
    if (a.median == 0.0) {
        return classify(sign * (b.median - a.median));
    }
    return classify(sign * (b.median - a.median) / std::fabs(a.median));
}

LadderSearch::LadderSearch(int rungs) : hi_(rungs) {}

std::optional<int>
LadderSearch::Next()
{
    if (hi_ - lo_ > 1) {
        return lo_ + (hi_ - lo_) / 2;
    }
    while (lo_ >= 0) {
        const auto [passes, fails] = seen_[lo_];
        if (passes >= 2) {
            return std::nullopt;
        }
        if (fails < 2) {
            return lo_;
        }
        hi_ = lo_--;
    }
    return std::nullopt;
}

void
LadderSearch::Record(int rung, bool passed)
{
    ++probes_;
    ++(passed ? seen_[rung].first : seen_[rung].second);
    if (hi_ - lo_ > 1) {
        (passed ? lo_ : hi_) = rung;
    }
}

double
LadderRate(double lo, double ratio, int k)
{
    return lo * std::pow(ratio, k);
}

int
LadderRungs(double lo, double hi, double ratio)
{
    int k = 0;
    while (LadderRate(lo, ratio, k) <= hi * (1.0 + 1e-9)) {
        ++k;
    }
    return k;
}

}  // namespace fathom::bench_suite
