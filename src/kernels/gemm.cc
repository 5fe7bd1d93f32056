#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>

#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"

namespace fathom::kernels {

namespace {

constexpr std::int64_t kMr = kGemmMr;
constexpr std::int64_t kNr = kGemmNr;

/**
 * The register tile: acc[kMr][kNr] = A-strip * B-strip over kc steps.
 *
 * Row r of the A strip is read as a[r][off(p)]: a packed strip passes
 * a[r] = ap + r and off(p) = p * kMr; a gathered operand passes its
 * six row pointers and the k-offset table (off(p) = k_off[p]). Both
 * sources share this one body, so their accumulation code is
 * identical. B is packed k-major (stride kNr), so its loads are
 * contiguous. k ascends strictly — this is the fixed per-element
 * reduction order the determinism guarantee rests on, and there is no
 * zero-operand skip: 0 * Inf and 0 * NaN contribute NaN to the
 * accumulator exactly as IEEE arithmetic demands.
 *
 * The accumulator block is expressed as GCC/Clang vector-extension
 * values (element-wise IEEE ops) because the plain triple loop trips
 * GCC's SLP vectorizer into a shuffle-bound expansion some 50x slower
 * than broadcast-FMA. The vector form keeps all kMr rows resident in
 * registers.
 */
typedef float Vf16 __attribute__((vector_size(sizeof(float) * kNr)));

template <typename KOffset>
inline void
MicroKernel(std::int64_t kc, const float* const* a, KOffset off,
            const float* __restrict__ bp, float* __restrict__ acc)
{
    static_assert(kMr == 6 && kNr == 16,
                  "micro-kernel is written for a 6x16 register tile");
    Vf16 c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
    for (std::int64_t p = 0; p < kc; ++p) {
        const std::int64_t o = off(p);
        Vf16 b;
        __builtin_memcpy(&b, bp + p * kNr, sizeof(b));
        c0 += a[0][o] * b;
        c1 += a[1][o] * b;
        c2 += a[2][o] * b;
        c3 += a[3][o] * b;
        c4 += a[4][o] * b;
        c5 += a[5][o] * b;
    }
    __builtin_memcpy(acc + 0 * kNr, &c0, sizeof(c0));
    __builtin_memcpy(acc + 1 * kNr, &c1, sizeof(c1));
    __builtin_memcpy(acc + 2 * kNr, &c2, sizeof(c2));
    __builtin_memcpy(acc + 3 * kNr, &c3, sizeof(c3));
    __builtin_memcpy(acc + 4 * kNr, &c4, sizeof(c4));
    __builtin_memcpy(acc + 5 * kNr, &c5, sizeof(c5));
}

void
ZeroFill(float* c, std::int64_t elements, parallel::ThreadPool& pool)
{
    pool.ParallelFor(elements, /*grain=*/1 << 16,
                     [&](std::int64_t i0, std::int64_t i1) {
                         std::memset(c + i0, 0,
                                     static_cast<std::size_t>(i1 - i0) *
                                         sizeof(float));
                     });
}

}  // namespace

PanelPacker
StridedPackA(const float* a, std::int64_t a_rs, std::int64_t a_cs,
             std::int64_t m)
{
    return [a, a_rs, a_cs, m](float* dst, std::int64_t row0, std::int64_t k0,
                              std::int64_t k1) {
        const std::int64_t rows = std::min(kMr, m - row0);
        for (std::int64_t p = k0; p < k1; ++p) {
            float* d = dst + (p - k0) * kMr;
            const float* src = a + row0 * a_rs + p * a_cs;
            std::int64_t r = 0;
            for (; r < rows; ++r) {
                d[r] = src[r * a_rs];
            }
            for (; r < kMr; ++r) {
                d[r] = 0.0f;
            }
        }
    };
}

PanelPacker
StridedPackB(const float* b, std::int64_t b_rs, std::int64_t b_cs,
             std::int64_t n)
{
    return [b, b_rs, b_cs, n](float* dst, std::int64_t col0, std::int64_t k0,
                              std::int64_t k1) {
        const std::int64_t cols = std::min(kNr, n - col0);
        for (std::int64_t p = k0; p < k1; ++p) {
            float* d = dst + (p - k0) * kNr;
            const float* src = b + p * b_rs + col0 * b_cs;
            std::int64_t j = 0;
            for (; j < cols; ++j) {
                d[j] = src[j * b_cs];
            }
            for (; j < kNr; ++j) {
                d[j] = 0.0f;
            }
        }
    };
}

std::int64_t
GemmTileCount(std::int64_t m, std::int64_t n)
{
    if (m <= 0 || n <= 0) {
        return 0;
    }
    return ((m + kGemmMc - 1) / kGemmMc) * ((n + kGemmNc - 1) / kGemmNc);
}

namespace {

/** Draws a pack buffer of @p floats from the pool, counting reuse. */
std::shared_ptr<char[]>
AcquirePackBuffer(std::int64_t floats)
{
    bool hit = false;
    auto block = BufferPool::Global().Allocate(
        static_cast<std::size_t>(floats) * sizeof(float), &hit);
    if (telemetry::MetricsEnabled()) {
        static telemetry::Counter& acquires =
            telemetry::MetricsRegistry::Global().GetCounter(
                "gemm.pack_acquires");
        static telemetry::Counter& hits =
            telemetry::MetricsRegistry::Global().GetCounter(
                "gemm.pack_pool_hits");
        acquires.Add(1);
        hits.Add(static_cast<std::uint64_t>(hit));
    }
    return block;
}

/**
 * The blocked driver behind both GemmPanels overloads: A is packed
 * through @p pack_a when it is non-null, else read in place through
 * @p gathered. The KC loop, the M-block walk, B packing and the tile
 * grid are shared.
 */
void
RunGemm(std::int64_t m, std::int64_t n, std::int64_t k,
        const PanelPacker* pack_a, const GatheredA& gathered,
        const PanelPacker& pack_b, float* c, bool accumulate,
        parallel::ThreadPool& pool)
{
    if (m <= 0 || n <= 0) {
        return;
    }
    if (k <= 0) {
        // An empty reduction is a zero product, not a no-op.
        if (!accumulate) {
            ZeroFill(c, m * n, pool);
        }
        return;
    }

    // Pack buffers come from the global size-bucketed pool: after the
    // first step of a training run these are recycled blocks, so the
    // steady-state GEMM performs no fresh allocation. The metrics pair
    // gemm.pack_acquires / gemm.pack_pool_hits verifies exactly that
    // claim — a warm run should show the two converging.
    const std::int64_t n_strips = (n + kNr - 1) / kNr;
    auto b_block = AcquirePackBuffer(n_strips * kNr * kGemmKc);
    std::shared_ptr<char[]> a_block;
    if (pack_a != nullptr) {
        a_block = AcquirePackBuffer((std::min(m, kGemmMBlock) + kMr - 1) /
                                    kMr * kMr * kGemmKc);
    }
    float* bp_base = reinterpret_cast<float*>(b_block.get());
    float* ap_base = reinterpret_cast<float*>(a_block.get());

    // Serial KC loop outermost: each output element accumulates its
    // KC-block partial sums in ascending pc order no matter how tiles
    // are scheduled, which is what keeps results thread-count
    // independent.
    for (std::int64_t pc = 0; pc < k; pc += kGemmKc) {
        const std::int64_t kc = std::min(kGemmKc, k - pc);

        pool.ParallelFor(n_strips, /*grain=*/4,
                         [&](std::int64_t s0, std::int64_t s1) {
                             for (std::int64_t s = s0; s < s1; ++s) {
                                 pack_b(bp_base + s * kNr * kc, s * kNr, pc,
                                        pc + kc);
                             }
                         });

        for (std::int64_t mb = 0; mb < m; mb += kGemmMBlock) {
            const std::int64_t mrows = std::min(kGemmMBlock, m - mb);
            if (pack_a != nullptr) {
                pool.ParallelFor(
                    (mrows + kMr - 1) / kMr, /*grain=*/4,
                    [&](std::int64_t s0, std::int64_t s1) {
                        for (std::int64_t s = s0; s < s1; ++s) {
                            (*pack_a)(ap_base + s * kMr * kc, mb + s * kMr,
                                      pc, pc + kc);
                        }
                    });
            }

            const bool add_into = accumulate || pc > 0;
            pool.ParallelFor2D(
                mrows, n, kGemmMc, kGemmNc,
                [&](std::int64_t r0, std::int64_t r1, std::int64_t c0,
                    std::int64_t c1) {
                    float acc[kMr * kNr];
                    const float* rows[kMr];
                    // jr outer so each packed B strip stays hot across
                    // the column of A strips it meets.
                    for (std::int64_t jr = c0; jr < c1; jr += kNr) {
                        const std::int64_t nr = std::min(kNr, c1 - jr);
                        const float* bp = bp_base + (jr / kNr) * kNr * kc;
                        for (std::int64_t ir = r0; ir < r1; ir += kMr) {
                            const std::int64_t mr = std::min(kMr, r1 - ir);
                            if (pack_a != nullptr) {
                                const float* ap =
                                    ap_base + (ir / kMr) * kMr * kc;
                                for (std::int64_t r = 0; r < kMr; ++r) {
                                    rows[r] = ap + r;
                                }
                                MicroKernel(
                                    kc, rows,
                                    [](std::int64_t p) { return p * kMr; },
                                    bp, acc);
                            } else {
                                // Dead rows past m read row m - 1: in
                                // bounds, computed, never stored.
                                for (std::int64_t r = 0; r < kMr; ++r) {
                                    rows[r] = gathered.base +
                                              gathered.row_off[std::min(
                                                  mb + ir + r, m - 1)];
                                }
                                const std::int32_t* k_off =
                                    gathered.k_off + pc;
                                MicroKernel(
                                    kc, rows,
                                    [k_off](std::int64_t p) {
                                        return std::int64_t{k_off[p]};
                                    },
                                    bp, acc);
                            }
                            // Edge tiles compute the full register
                            // block against zero-padded B lanes and dead
                            // A rows but store only the live mr x nr
                            // corner.
                            float* cb = c + (mb + ir) * n + jr;
                            for (std::int64_t r = 0; r < mr; ++r) {
                                for (std::int64_t j = 0; j < nr; ++j) {
                                    cb[r * n + j] =
                                        add_into ? cb[r * n + j] +
                                                       acc[r * kNr + j]
                                                 : acc[r * kNr + j];
                                }
                            }
                        }
                    }
                });
        }
    }
}

}  // namespace

void
GemmPanels(std::int64_t m, std::int64_t n, std::int64_t k,
           const PanelPacker& pack_a, const PanelPacker& pack_b, float* c,
           bool accumulate, parallel::ThreadPool& pool)
{
    RunGemm(m, n, k, &pack_a, GatheredA{}, pack_b, c, accumulate, pool);
}

void
GemmPanels(std::int64_t m, std::int64_t n, std::int64_t k,
           const GatheredA& a, const PanelPacker& pack_b, float* c,
           bool accumulate, parallel::ThreadPool& pool)
{
    RunGemm(m, n, k, nullptr, a, pack_b, c, accumulate, pool);
}

void
Gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
     std::int64_t a_rs, std::int64_t a_cs, const float* b, std::int64_t b_rs,
     std::int64_t b_cs, float* c, bool accumulate,
     parallel::ThreadPool& pool)
{
    GemmPanels(m, n, k, StridedPackA(a, a_rs, a_cs, m),
               StridedPackB(b, b_rs, b_cs, n), c, accumulate, pool);
}

}  // namespace fathom::kernels
