/**
 * @file
 * The size-bucketed buffer pool backing all tensor allocations.
 *
 * Every Tensor buffer in the process is served by BufferPool::Global().
 * Freed blocks are recycled through per-bucket free lists (sizes are
 * rounded up to powers of two) instead of returning to the system
 * allocator, so steady-state training steps stop paying malloc per
 * intermediate tensor. Blocks are handed out as shared_ptr with a
 * deleter that returns them to the pool, which means recycling is
 * refcount-driven: a block can only re-enter a free list once every
 * tensor, view, and variable referencing it is gone — buffer reuse can
 * never manufacture a use-after-free.
 *
 * The pool also keeps the allocation counters consumed by the memory
 * planner's instrumentation (Tracer step stats, bench_memory): request
 * and fresh-allocation counts, pool hits, live bytes, and a resettable
 * live-byte high-water mark. Counters are atomics and free lists are
 * mutex-protected, so the pool is safe under the inter-op executor.
 *
 * Requests made on a thread inside a BackgroundScope (input-pipeline
 * producers) are served the same way but counted apart, so a step's
 * request/fresh/hit deltas cover the step's own work only and do not
 * depend on how far a producer ran ahead while the step ran.
 */
#ifndef FATHOM_TENSOR_BUFFER_POOL_H
#define FATHOM_TENSOR_BUFFER_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace fathom {

class BufferPool {
  public:
    /** Counter snapshot; byte figures use rounded bucket sizes. */
    struct Stats {
        /// Requests served, outside any BackgroundScope.
        std::uint64_t allocations = 0;
        std::uint64_t fresh_allocs = 0;  ///< of those, by operator new[].
        std::uint64_t pool_hits = 0;     ///< of those, from a free list.
        /// Requests served inside a BackgroundScope.
        std::uint64_t background_allocations = 0;
        std::uint64_t live_bytes = 0;    ///< bytes in outstanding blocks.
        std::uint64_t peak_bytes = 0;    ///< live-byte high-water mark.
        std::uint64_t pooled_bytes = 0;  ///< bytes parked in free lists.
    };

    /** @return the process-wide pool (never destroyed). */
    static BufferPool& Global();

    /**
     * While alive, the calling thread's requests count as background
     * work: they go to Stats::background_allocations instead of the
     * request/fresh/hit counters. Nests; affects only this thread.
     */
    class BackgroundScope {
      public:
        BackgroundScope();
        ~BackgroundScope();
        BackgroundScope(const BackgroundScope&) = delete;
        BackgroundScope& operator=(const BackgroundScope&) = delete;

      private:
        bool was_background_;
    };

    BufferPool() = default;
    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /**
     * @return a block of at least @p bytes whose deleter returns it to
     * this pool. Thread-safe.
     *
     * When @p from_pool is non-null it is set to whether the request
     * was served from a free list (vs. a fresh system allocation), so
     * callers with their own reuse metrics (e.g. the GEMM pack-buffer
     * counters) can attribute the hit without re-deriving it from
     * global counter deltas.
     */
    std::shared_ptr<char[]> Allocate(std::size_t bytes,
                                     bool* from_pool = nullptr);

    /**
     * Enables or disables recycling. When off, freed blocks go back to
     * the system allocator (the pre-planner behavior); counters keep
     * accumulating either way. Existing free lists are dropped on
     * disable.
     */
    void set_recycling(bool enabled);
    bool recycling() const { return recycling_.load(std::memory_order_relaxed); }

    Stats stats() const;

    /** Restarts the high-water mark from the current live bytes. */
    void ResetPeak();

    /** Returns every parked free block to the system allocator. */
    void Trim();

  private:
    friend struct BufferPoolDeleter;

    /** Returns a block to the free list (or frees it). Thread-safe. */
    void Release(char* block, std::size_t bucket_bytes);

    // Free blocks parked per power-of-two bucket; index = log2(size).
    static constexpr int kNumBuckets = 48;
    // Keeping arbitrarily many dead steps' worth of buffers parked
    // helps nobody; past this, released blocks go straight back to the
    // system allocator.
    static constexpr std::uint64_t kMaxPooledBytes = 1ull << 30;

    std::atomic<bool> recycling_{true};
    std::atomic<std::uint64_t> allocations_{0};
    std::atomic<std::uint64_t> fresh_allocs_{0};
    std::atomic<std::uint64_t> pool_hits_{0};
    std::atomic<std::uint64_t> background_allocations_{0};
    std::atomic<std::uint64_t> live_bytes_{0};
    std::atomic<std::uint64_t> peak_bytes_{0};
    std::atomic<std::uint64_t> pooled_bytes_{0};

    mutable std::mutex mu_;  ///< guards free_lists_.
    std::vector<char*> free_lists_[kNumBuckets];
};

}  // namespace fathom

#endif  // FATHOM_TENSOR_BUFFER_POOL_H
