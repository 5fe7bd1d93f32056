/**
 * @file
 * Blocked, packed single-precision GEMM engine.
 *
 * This is the compute core behind MatMul and the lowered Conv2D
 * kernels: a register-tiled kMr x kNr micro-kernel driven by
 * cache-level blocking (the GotoBLAS / BLIS structure). B is packed
 * into k-major strips. A is packed too (PanelPacker: the strided Gemm
 * behind MatMul), or read in place through two offset tables
 * (GatheredA: the conv forward pass and filter gradient). Both share
 * the KC loop, the micro-kernel and the 2-D tile grid
 * (ThreadPool::ParallelFor2D).
 *
 * Determinism: every C element is accumulated in a fixed order — the
 * serial KC-block loop outermost, ascending k inside the micro-kernel
 * — and each output tile is written by exactly one task per KC block.
 * The tile grid depends only on the problem geometry, never on the
 * pool width, so results are bit-identical across thread counts and
 * across runs (the PR 1 guarantee extends through the hot path), and
 * both A sources give the same bits for the same operand.
 *
 * Pack buffers are drawn from the process-wide size-bucketed
 * BufferPool, so steady-state training steps reuse the same panels
 * with zero fresh allocation.
 */
#ifndef FATHOM_KERNELS_GEMM_H
#define FATHOM_KERNELS_GEMM_H

#include <cstdint>
#include <functional>

#include "parallel/thread_pool.h"

namespace fathom::kernels {

/** Micro-kernel register tile: kMr rows x kNr columns of C. */
inline constexpr std::int64_t kGemmMr = 6;
inline constexpr std::int64_t kGemmNr = 16;
/** K-dimension cache block: one packed A strip (kMr x kKc floats) and
 * one packed B strip (kKc x kNr floats) stay L1/L2-resident. */
inline constexpr std::int64_t kGemmKc = 256;
/** Parallel task tile: each ParallelFor2D block owns kMc x kNc of C. */
inline constexpr std::int64_t kGemmMc = 96;
inline constexpr std::int64_t kGemmNc = 192;
/** Rows of A packed at once; bounds the packed-A footprint for tall
 * matrices to kMBlock x kKc floats. */
inline constexpr std::int64_t kGemmMBlock = 3072;

/**
 * Packs one logical panel into the engine's strip layout.
 *
 * An A packer receives (dst, row0, k0, k1) and must write the kGemmMr
 * rows starting at row0, k-range [k0, k1), as dst[(k - k0) * kGemmMr +
 * (row - row0)], substituting 0.0f for rows at or beyond m. A B packer
 * receives (dst, col0, k0, k1) and writes dst[(k - k0) * kGemmNr +
 * (col - col0)], substituting 0.0f for columns at or beyond n. The
 * k range is never padded: only edge rows/columns are zero-filled,
 * and those lanes are computed but never stored, so synthetic zeros
 * can never mask an Inf/NaN contribution to a real output element.
 * A packers now serve only the strided Gemm (StridedPackA).
 */
using PanelPacker =
    std::function<void(float* dst, std::int64_t idx0, std::int64_t k0,
                       std::int64_t k1)>;

/**
 * C[m, n] = op(A) * op(B) with arbitrary element strides on A and B.
 *
 * @param m, n, k  logical GEMM dimensions.
 * @param a        A base pointer; element (i, p) is a[i*a_rs + p*a_cs].
 * @param b        B base pointer; element (p, j) is b[p*b_rs + j*b_cs].
 * @param c        row-major output, leading dimension n.
 * @param accumulate if true, C += product instead of C = product.
 * @param pool     thread pool; parallelism is over the 2-D tile grid.
 *
 * Transposition is expressed through the strides (swap row/column
 * stride), so all four MatMul variants and both MatMulGrad products
 * share this one entry point. If k == 0 the product is all zeros:
 * C is zero-filled (or left untouched when accumulating).
 */
void Gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          std::int64_t a_rs, std::int64_t a_cs, const float* b,
          std::int64_t b_rs, std::int64_t b_cs, float* c, bool accumulate,
          parallel::ThreadPool& pool);

/**
 * The generic engine: C[m, n] (row-major, ld n) from custom packers.
 * Packers are invoked once per panel strip (not per element) and must
 * be safe to call concurrently for disjoint strips.
 */
void GemmPanels(std::int64_t m, std::int64_t n, std::int64_t k,
                const PanelPacker& pack_a, const PanelPacker& pack_b,
                float* c, bool accumulate, parallel::ThreadPool& pool);

/**
 * An A operand read in place: A[r][p] = base[row_off[r] + k_off[p]],
 * each index inside base's block. Dead rows past m read row m - 1.
 *
 * Why two A sources: packing copies an A strip once per KC block and
 * reuses it across every B strip; gathering skips the copy but loads
 * k_off[p] in every tile. Conv operands meet one to four B strips
 * (out_c 8-64), and packing them cost more than the micro-kernel. For
 * MatMul reuse wins: gathering measured 68.0 against 76.3 GFLOP/s at
 * 512^3 (A^T: 50.3 against 57.3), one packed strip serving 32 N-strips;
 * on skinny shapes the two were equal, or gathering was faster.
 */
struct GatheredA {
    const float* base = nullptr;
    const std::int32_t* row_off = nullptr;  ///< m entries.
    const std::int32_t* k_off = nullptr;    ///< k entries.
};

/** GemmPanels with a gathered A operand; same bits as packing it. */
void GemmPanels(std::int64_t m, std::int64_t n, std::int64_t k,
                const GatheredA& a, const PanelPacker& pack_b, float* c,
                bool accumulate, parallel::ThreadPool& pool);

/** @return a PanelPacker reading the strided matrix op(A) [m, k]. */
PanelPacker StridedPackA(const float* a, std::int64_t a_rs,
                         std::int64_t a_cs, std::int64_t m);

/** @return a PanelPacker reading the strided matrix op(B) [k, n]. */
PanelPacker StridedPackB(const float* b, std::int64_t b_rs,
                         std::int64_t b_cs, std::int64_t n);

/**
 * @return the number of blocks in the engine's parallel tile grid for
 * an m x n output — the kernel's parallelizable trip count, consumed
 * by the op cost models feeding the device-model scaling analysis.
 */
std::int64_t GemmTileCount(std::int64_t m, std::int64_t n);

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_GEMM_H
