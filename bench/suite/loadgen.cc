#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <random>
#include <thread>

#include "catalog.h"
#include "cores.h"
#include "data/pipeline/bounded_queue.h"
#include "serving/serving_runtime.h"
#include "stats.h"
#include "tensor/dtype.h"

namespace fathom::bench_suite {

namespace {

using Clock = std::chrono::steady_clock;

double
Ms(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

/** One submitted request, handed from the generator to the collector. */
struct InFlight {
    std::size_t request = 0;  ///< index into the pool.
    Clock::time_point due;
    Clock::time_point sent;
    std::future<serving::InferenceResponse> future;
};

/** Exponential inter-arrival gap from 53 random bits (platform-stable). */
double
ExponentialGap(std::mt19937_64& rng, double rate)
{
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return -std::log1p(-u) / rate;
}

/**
 * Places a window's three threads. Threads inherit their creator's CPU
 * mask, so the generator pins itself to the executor's core while it
 * creates the runtime, to the remaining cores while it creates the
 * collector, and finally to a core of its own. Left to the scheduler,
 * the executor may wake on the generator's core, and every batch it
 * runs then delays the next send by the batch's whole run time; or it
 * may share a core with the collector, or sit on a slow core for every
 * window of a run. The cores turn with @p rotation, so over a run's
 * windows the executor meets every core. Returns the thread to every
 * usable core on destruction; does nothing with fewer than two.
 */
class WindowCores {
  public:
    explicit WindowCores(int rotation)
        : generator_(RotationCore(rotation)),
          executor_(RotationCore(rotation + 1)),
          active_(UsableCores().size() >= 2)
    {
        for (const int cpu : UsableCores()) {
            if (cpu != generator_ && cpu != executor_) {
                collector_.push_back(cpu);
            }
        }
        if (collector_.empty()) {
            collector_.push_back(executor_);
        }
    }

    ~WindowCores()
    {
        if (active_) {
            PinThisThread({});
        }
    }

    WindowCores(const WindowCores&) = delete;
    WindowCores& operator=(const WindowCores&) = delete;

    /** Threads this thread creates next run on the executor's core. */
    void
    ForExecutor()
    {
        if (active_) {
            PinThisThread({executor_});
        }
    }

    /** Threads this thread creates next run on the collector's cores. */
    void
    ForCollector()
    {
        if (active_) {
            PinThisThread(collector_);
        }
    }

    /** Moves this thread onto the generator's core. @return success. */
    bool ForGenerator() { return active_ && PinThisThread({generator_}); }

  private:
    int generator_;
    int executor_;
    std::vector<int> collector_;
    bool active_;
};

}  // namespace

bool
SameBits(const std::vector<Tensor>& got, const std::vector<Tensor>& want)
{
    if (got.size() != want.size()) {
        return false;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Tensor& a = got[i];
        const Tensor& b = want[i];
        if (a.dtype() != b.dtype() || a.shape().dims() != b.shape().dims()) {
            return false;
        }
        const auto bytes =
            static_cast<std::size_t>(a.num_elements()) * DTypeSize(a.dtype());
        const void* pa = a.dtype() == DType::kFloat32
                             ? static_cast<const void*>(a.data<float>())
                             : static_cast<const void*>(a.data<std::int32_t>());
        const void* pb = b.dtype() == DType::kFloat32
                             ? static_cast<const void*>(b.data<float>())
                             : static_cast<const void*>(b.data<std::int32_t>());
        if (std::memcmp(pa, pb, bytes) != 0) {
            return false;
        }
    }
    return true;
}

bool
WindowResult::MeetsSlo(double slo_ms) const
{
    if (aborted || failed > 0 || latency_ms.empty()) {
        return false;
    }
    const std::size_t tail = std::max<std::size_t>(latency_ms.size() / 10, 1);
    const std::vector<double> last(latency_ms.end() - static_cast<long>(tail),
                                   latency_ms.end());
    return Percentile(latency_ms, 90.0) <= slo_ms &&
           Percentile(last, 50.0) <= slo_ms;
}

WindowResult
RunWindow(const std::shared_ptr<const serving::FrozenPlan>& plan,
          const RequestPool& pool, const WindowOptions& options,
          runtime::Tracer* batcher_tracer)
{
    serving::ServingOptions serve;
    serve.max_batch = options.max_batch;
    serve.max_queue_delay = std::chrono::microseconds(
        static_cast<std::int64_t>(kQueueDelayMs * 1e3));
    serve.executors = 1;
    serve.tracer = batcher_tracer;
    WindowCores cores(options.rotation);
    cores.ForExecutor();
    serving::ServingRuntime runtime(plan, serve);
    cores.ForCollector();

    WindowResult result;
    std::atomic<std::int64_t> answered{0};
    std::int64_t collect_failed = 0;
    auto last_done = Clock::time_point{};
    // Unbounded in practice: the generator must never block on it.
    data::BoundedQueue<InFlight> handoff(std::size_t{1} << 24);

    std::thread collector([&] {
        while (auto item = handoff.Pop()) {
            try {
                serving::InferenceResponse response = item->future.get();
                const auto done =
                    item->sent + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         response.latency_seconds));
                const auto formed =
                    item->sent + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         response.queue_seconds));
                if (!SameBits(response.outputs, pool.expected[item->request])) {
                    ++collect_failed;
                } else {
                    last_done = std::max(last_done, done);
                    result.latency_ms.push_back(Ms(done - item->due));
                    result.queue_ms.push_back(Ms(formed - item->sent));
                    result.exec_ms.push_back(Ms(done - formed));
                    if (options.spans != nullptr) {
                        SpanLog& log = *options.spans;
                        const std::int64_t rid = log.NextRequest();
                        const std::int64_t span = log.Add(
                            "request", item->sent, done, options.parent_span, rid);
                        log.Add("queue", item->sent, formed, span, rid);
                        log.Add("exec", formed, done, span, rid);
                    }
                }
            } catch (const std::exception&) {
                ++collect_failed;
            }
            answered.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // A backlog this deep means requests already wait ~10x the limit:
    // the rate is past capacity and the rest of the window adds nothing.
    const auto backlog_limit = std::max<std::int64_t>(
        4 * options.max_batch,
        static_cast<std::int64_t>(options.rate_rps * options.slo_ms * 1e-2));
    const bool closed = options.closed_loop_depth > 0;
    // On a core of its own the generator spins to each due time: a
    // sleeping thread's timer wake-up can arrive milliseconds late.
    const bool spin = cores.ForGenerator();
    std::mt19937_64 rng(options.seed);
    const std::size_t offset = rng() % pool.requests.size();
    std::vector<double> late_ms;
    std::int64_t refused = 0;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(options.seconds));
    auto last_sent = start;
    try {
        double t = closed ? 0.0 : ExponentialGap(rng, options.rate_rps);
        for (std::int64_t i = 0;; ++i) {
            Clock::time_point due;
            if (closed) {
                while (i - answered.load(std::memory_order_relaxed) >=
                       options.closed_loop_depth) {
                    if (!spin) {
                        std::this_thread::yield();
                    }
                }
                due = Clock::now();
                if (due >= end) {
                    break;
                }
            } else {
                if (t >= options.seconds) {
                    break;
                }
                due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(t));
                t += ExponentialGap(rng, options.rate_rps);
                if (spin) {
                    while (Clock::now() < due) {
                    }
                } else {
                    std::this_thread::sleep_until(due);
                }
                if (i - answered.load(std::memory_order_relaxed) > backlog_limit) {
                    result.aborted = true;
                    break;
                }
            }
            const std::size_t request =
                (offset + static_cast<std::size_t>(i)) % pool.requests.size();
            InFlight item{request, due, Clock::now(), {}};
            late_ms.push_back(Ms(item.sent - due));
            last_sent = item.sent;
            ++result.sent;
            try {
                item.future = runtime.Submit(pool.requests[request]);
            } catch (const std::exception&) {
                ++refused;
                answered.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            handoff.Push(std::move(item));
        }
    } catch (...) {
        handoff.Stop();
        collector.join();
        throw;
    }
    handoff.Stop();
    collector.join();
    runtime.Stop();

    result.failed = refused + collect_failed;
    result.late_ms_p99 = late_ms.empty() ? 0.0 : Percentile(late_ms, 99.0);
    const double elapsed =
        std::chrono::duration<double>((closed ? last_done : last_sent) - start).count();
    const auto count = closed ? static_cast<std::int64_t>(result.latency_ms.size())
                              : result.sent;
    result.achieved_rps = elapsed > 0.0 ? static_cast<double>(count) / elapsed : 0.0;
    return result;
}

WindowResult
RunGatedWindow(const std::shared_ptr<const serving::FrozenPlan>& plan,
               const RequestPool& pool, const WindowOptions& options,
               runtime::Tracer* batcher_tracer)
{
    const WindowResult first = RunWindow(plan, pool, options, batcher_tracer);
    if (first.late_ms_p99 <= kMaxLateMs) {
        return first;
    }
    WindowResult redo = RunWindow(plan, pool, options, batcher_tracer);
    redo.late = redo.late_ms_p99 > kMaxLateMs;
    // The discarded window's requests still count toward correctness.
    redo.sent += first.sent;
    redo.failed += first.failed;
    return redo;
}

}  // namespace fathom::bench_suite
