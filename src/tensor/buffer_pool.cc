#include "tensor/buffer_pool.h"

#include <algorithm>

#include "telemetry/metrics.h"

namespace fathom {

namespace {

/** Allocator metrics, resolved once (see telemetry/metrics.h). */
struct PoolMetrics {
    telemetry::Counter& requests;
    telemetry::Counter& fresh_allocs;
    telemetry::Counter& pool_hits;

    static PoolMetrics&
    Get()
    {
        static PoolMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new PoolMetrics{
                r.GetCounter("allocator.requests"),
                r.GetCounter("allocator.fresh_allocs"),
                r.GetCounter("allocator.pool_hits"),
            };
        }();
        return *m;
    }
};

/** True while the calling thread is inside a BackgroundScope. */
thread_local bool t_background = false;

/** @return the bucket index whose size is the smallest power of two
 * holding @p bytes (minimum 64 bytes, one cache line). */
int
BucketIndex(std::size_t bytes)
{
    int index = 6;  // 64-byte floor.
    while ((std::size_t{1} << index) < bytes) {
        ++index;
    }
    return index;
}

}  // namespace

/** shared_ptr deleter returning blocks to their pool. */
struct BufferPoolDeleter {
    BufferPool* pool;
    std::size_t bucket_bytes;

    void
    operator()(char* block) const
    {
        pool->Release(block, bucket_bytes);
    }
};

BufferPool::BackgroundScope::BackgroundScope() : was_background_(t_background)
{
    t_background = true;
}

BufferPool::BackgroundScope::~BackgroundScope()
{
    t_background = was_background_;
}

BufferPool&
BufferPool::Global()
{
    // Leaked on purpose: tensors in other static-storage objects
    // (variable stores, cached plans) may release blocks during exit.
    static BufferPool* pool = new BufferPool;
    return *pool;
}

std::shared_ptr<char[]>
BufferPool::Allocate(std::size_t bytes, bool* from_pool)
{
    const int bucket = BucketIndex(std::max<std::size_t>(bytes, 1));
    const std::size_t bucket_bytes = std::size_t{1} << bucket;

    char* block = nullptr;
    if (recycling_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(mu_);
        auto& list = free_lists_[bucket];
        if (!list.empty()) {
            block = list.back();
            list.pop_back();
        }
    }
    const bool hit = block != nullptr;
    if (hit) {
        pooled_bytes_.fetch_sub(bucket_bytes, std::memory_order_relaxed);
    } else {
        block = new char[bucket_bytes];
    }
    if (t_background) {
        background_allocations_.fetch_add(1, std::memory_order_relaxed);
    } else {
        allocations_.fetch_add(1, std::memory_order_relaxed);
        (hit ? pool_hits_ : fresh_allocs_)
            .fetch_add(1, std::memory_order_relaxed);
    }
    if (from_pool != nullptr) {
        *from_pool = hit;
    }
    if (telemetry::MetricsEnabled()) {
        PoolMetrics& pm = PoolMetrics::Get();
        pm.requests.Add(1);
        (hit ? pm.pool_hits : pm.fresh_allocs).Add(1);
    }

    const std::uint64_t live =
        live_bytes_.fetch_add(bucket_bytes, std::memory_order_relaxed) +
        bucket_bytes;
    std::uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_bytes_.compare_exchange_weak(peak, live,
                                              std::memory_order_relaxed)) {
    }

    return std::shared_ptr<char[]>(block,
                                   BufferPoolDeleter{this, bucket_bytes});
}

void
BufferPool::Release(char* block, std::size_t bucket_bytes)
{
    live_bytes_.fetch_sub(bucket_bytes, std::memory_order_relaxed);
    if (recycling_.load(std::memory_order_relaxed) &&
        pooled_bytes_.load(std::memory_order_relaxed) + bucket_bytes <=
            kMaxPooledBytes) {
        std::lock_guard<std::mutex> lock(mu_);
        free_lists_[BucketIndex(bucket_bytes)].push_back(block);
        pooled_bytes_.fetch_add(bucket_bytes, std::memory_order_relaxed);
        return;
    }
    delete[] block;
}

void
BufferPool::set_recycling(bool enabled)
{
    recycling_.store(enabled, std::memory_order_relaxed);
    if (!enabled) {
        Trim();
    }
}

BufferPool::Stats
BufferPool::stats() const
{
    Stats s;
    s.allocations = allocations_.load(std::memory_order_relaxed);
    s.fresh_allocs = fresh_allocs_.load(std::memory_order_relaxed);
    s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
    s.background_allocations =
        background_allocations_.load(std::memory_order_relaxed);
    s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
    s.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
    s.pooled_bytes = pooled_bytes_.load(std::memory_order_relaxed);
    return s;
}

void
BufferPool::ResetPeak()
{
    peak_bytes_.store(live_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

void
BufferPool::Trim()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (int b = 0; b < kNumBuckets; ++b) {
        for (char* block : free_lists_[b]) {
            pooled_bytes_.fetch_sub(std::size_t{1} << b,
                                    std::memory_order_relaxed);
            delete[] block;
        }
        free_lists_[b].clear();
    }
}

}  // namespace fathom
