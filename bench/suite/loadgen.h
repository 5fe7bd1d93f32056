/**
 * @file
 * Open-loop load generation against a ServingRuntime.
 *
 * Requests arrive on a seeded Poisson schedule, independent of how fast
 * the server answers (independent users, not waiting callers). Each
 * request's latency is counted from the time it was *due*, so a stall
 * in the server or the generator charges every request it delays. The
 * generator reports how late it ran so a slow scheduler is not read as
 * a slow server. A closed-loop mode keeps a fixed number of requests
 * outstanding instead, to measure what the server sustains.
 */
#ifndef FATHOM_BENCH_SUITE_LOADGEN_H
#define FATHOM_BENCH_SUITE_LOADGEN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "serving/frozen_plan.h"
#include "spans.h"

namespace fathom::bench_suite {

/** Requests the generator cycles through, with their expected outputs. */
struct RequestPool {
    std::vector<serving::RequestFeeds> requests;
    /** ServeOne outputs of each request, computed before any load. */
    std::vector<std::vector<Tensor>> expected;
};

/** @return true when @p got is bit-identical to @p want. */
bool SameBits(const std::vector<Tensor>& got, const std::vector<Tensor>& want);

struct WindowOptions {
    /** Open loop: the Poisson arrival rate. */
    double rate_rps = 100.0;
    /**
     * When > 0, a closed loop instead: this many requests are kept
     * outstanding, each answer releasing the next send, so the server
     * never idles and achieved_rps is its capacity.
     */
    std::int64_t closed_loop_depth = 0;
    double seconds = 1.0;
    /** Seeds the arrival schedule and the request sequence. */
    std::uint64_t seed = 1;
    std::int64_t max_batch = 8;
    double slo_ms = 20.0;
    /** Picks the generator's core, the usable cores in turn (cores.h). */
    int rotation = 0;
    /**
     * When set, one span per request (and its queue/exec parts), each a
     * child of span @p parent_span.
     */
    SpanLog* spans = nullptr;
    std::int64_t parent_span = -1;
};

/** What one window measured. */
struct WindowResult {
    std::int64_t sent = 0;
    std::int64_t failed = 0;  ///< refused, thrown, or wrong output.
    /** Due-time latencies of the answered requests, in send order. */
    std::vector<double> latency_ms;
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    double late_ms_p99 = 0.0;
    /** Open loop: requests sent per second; closed: answered per second. */
    double achieved_rps = 0.0;
    /** True when the generator stopped early on a runaway backlog. */
    bool aborted = false;
    /** RunGatedWindow: the generator ran late in the window and its redo. */
    bool late = false;

    /**
     * @return whether the window met @p slo_ms: p90 latency within the
     * limit, no failure, and a drained backlog (not aborted, and the
     * last tenth of the requests also within the limit at the median).
     */
    bool MeetsSlo(double slo_ms) const;
};

/**
 * Runs one window on a fresh ServingRuntime (one executor thread) over
 * @p plan, from this thread plus one collector thread, and stops the
 * runtime before returning.
 */
WindowResult RunWindow(const std::shared_ptr<const serving::FrozenPlan>& plan,
                       const RequestPool& pool, const WindowOptions& options,
                       runtime::Tracer* batcher_tracer = nullptr);

/**
 * RunWindow, redone once when the generator ran late (p99 above
 * kMaxLateMs); the redo's result has `late` set when it was late too.
 * A late generator measures the host's scheduler, not the server.
 */
WindowResult RunGatedWindow(const std::shared_ptr<const serving::FrozenPlan>& plan,
                            const RequestPool& pool, const WindowOptions& options,
                            runtime::Tracer* batcher_tracer = nullptr);

}  // namespace fathom::bench_suite

#endif  // FATHOM_BENCH_SUITE_LOADGEN_H
