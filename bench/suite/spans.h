/**
 * @file
 * bench_suite's own spans: set-up, freeze, each measurement window and
 * each serving request, recorded around calls into the program's public
 * entry points. Kept in memory and written once, as Chrome trace JSON,
 * when the traced run ends.
 */
#ifndef FATHOM_BENCH_SUITE_SPANS_H
#define FATHOM_BENCH_SUITE_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fathom::bench_suite {

class SpanLog {
  public:
    using Clock = std::chrono::steady_clock;

    SpanLog() = default;
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    /** Starts a top-level span now. @return its id. Thread-safe. */
    std::int64_t Open(std::string name);

    /** Ends span @p id now. Thread-safe. */
    void Close(std::int64_t id);

    /**
     * Records a finished span of request @p request (>= 0), or of no
     * request (-1). Spans sharing a request id render on one async
     * track. @return its id. Thread-safe.
     */
    std::int64_t Add(std::string name, Clock::time_point start,
                     Clock::time_point end, std::int64_t parent,
                     std::int64_t request);

    /** @return a fresh request id. Thread-safe. */
    std::int64_t NextRequest();

    /** @return the spans as a Chrome trace JSON array. */
    std::string ToChromeJson() const;

  private:
    /** @return seconds from this log's creation to @p t. */
    double Seconds(Clock::time_point t) const;

    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = -1.0;  ///< -1 while open.
        std::int64_t parent = -1;
        std::int64_t request = -1;
    };

    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;  ///< guards spans_ and next_request_.
    std::vector<Span> spans_;
    std::int64_t next_request_ = 0;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan {
  public:
    /** @p log may be null, which records nothing. */
    ScopedSpan(SpanLog* log, std::string name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** @return the span id, or -1 without a log. */
    std::int64_t id() const { return id_; }

  private:
    SpanLog* log_;
    std::int64_t id_ = -1;
};

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_SPANS_H
