/**
 * @file
 * ServingRuntime: a multi-client inference front-end over a shared
 * FrozenPlan.
 *
 * The runtime is the piece the ROADMAP's "millions of users" north
 * star needs between clients and the executor: clients Submit()
 * single-example requests from any thread and get a future; executor
 * threads coalesce queued requests into batched tensors under a
 * latency budget (TensorFlow-Serving's dynamic batching policy:
 * launch when `max_batch` requests are waiting OR the oldest request
 * has waited `max_queue_delay`), execute the frozen plan once per
 * formed batch, and scatter the batched outputs back to per-request
 * futures.
 *
 * The batcher rides on data::BoundedQueue — the same bounded
 * stop/drain queue under the training input pipeline — whose
 * PopBatch() implements the dynamic-batching policy directly.
 *
 * Shutdown contract (enforced by a timeout-guarded test): Stop() and
 * the destructor reject new submissions and then *drain* — every
 * request accepted before the stop completes (or fails with its
 * execution error); no caller is ever left blocked on a future.
 */
#ifndef FATHOM_SERVING_SERVING_RUNTIME_H
#define FATHOM_SERVING_SERVING_RUNTIME_H

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/pipeline/bounded_queue.h"
#include "runtime/tracer.h"
#include "serving/frozen_plan.h"

namespace fathom::serving {

/** Dynamic-batching and capacity knobs. */
struct ServingOptions {
    /**
     * Largest coalesced batch; the plan runs exactly as many rows as
     * the batch holds. 1 disables batching (the baseline
     * configuration bench_serving compares against).
     */
    std::int64_t max_batch = 8;

    /**
     * Latency budget of the batcher: the longest a queued request may
     * wait for co-batching before an executor launches a partial
     * batch. 0 launches immediately (batches only form under bursts).
     */
    std::chrono::microseconds max_queue_delay{2000};

    /** Bounded-queue capacity; Submit() rejects above it. */
    std::size_t max_queue_depth = 1024;

    /** Executor threads forming and running batches. */
    int executors = 1;

    /**
     * Optional tracer for batcher lanes: each executor registers a
     * "batcher-k" aux lane and records one span per formed batch, so
     * Chrome traces show the batchers as labeled threads. Must
     * outlive the runtime when set.
     */
    runtime::Tracer* tracer = nullptr;
};

/** What a fulfilled request future resolves to. */
struct InferenceResponse {
    /** Fetched [1, ...] tensors, in signature output order. */
    std::vector<Tensor> outputs;
    std::int64_t batch_size = 0;     ///< formed batch it rode in.
    double queue_seconds = 0.0;      ///< submit -> batch formation.
    double latency_seconds = 0.0;    ///< submit -> completion.
};

class ServingRuntime {
  public:
    ServingRuntime(std::shared_ptr<const FrozenPlan> plan,
                   ServingOptions options = {});

    /** Drains and joins (see Stop()). */
    ~ServingRuntime();

    ServingRuntime(const ServingRuntime&) = delete;
    ServingRuntime& operator=(const ServingRuntime&) = delete;

    const ServingOptions& options() const { return options_; }
    const FrozenPlan& plan() const { return *plan_; }

    /**
     * Enqueues one single-example request (name -> [1, ...] tensor).
     *
     * Thread-safe. Validates the feeds against the plan signature
     * before accepting.
     *
     * @throws std::runtime_error if the runtime is stopped or the
     *         bounded queue is full (backpressure — the caller sheds
     *         or retries; an accepted request is always resolved).
     */
    std::future<InferenceResponse> Submit(RequestFeeds feeds);

    /**
     * Stops accepting work, serves every already-accepted request,
     * and joins the executors. Idempotent; safe to race with
     * Submit() from other threads.
     */
    void Stop();

    bool stopped() const { return queue_.stopped(); }

  private:
    struct Pending {
        RequestFeeds feeds;
        std::promise<InferenceResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** Clamps the knobs to their minimums before queue_ init. */
    static ServingOptions Normalize(ServingOptions options);

    void ExecutorLoop(int worker);

    /** Runs one formed batch and settles its promises. */
    void RunBatch(std::vector<Pending> batch);

    std::shared_ptr<const FrozenPlan> plan_;
    ServingOptions options_;

    /** Request queue; PopBatch is the dynamic-batching policy. */
    data::BoundedQueue<Pending> queue_;

    /** Per-executor tracer aux lane ids (empty without a tracer). */
    std::vector<int> lanes_;

    std::mutex join_mu_;  ///< serializes Stop()/~ServingRuntime joins.
    std::vector<std::thread> executors_;
};

}  // namespace fathom::serving

#endif  // FATHOM_SERVING_SERVING_RUNTIME_H
