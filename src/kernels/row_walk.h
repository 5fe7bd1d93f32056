/**
 * @file
 * The row walk shared by the broadcast, reduction and data-movement
 * kernels; docs/internals.md ("Elementwise and reduction kernels")
 * explains the design and why results keep their bits.
 */
#ifndef FATHOM_KERNELS_ROW_WALK_H
#define FATHOM_KERNELS_ROW_WALK_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"

namespace fathom::kernels {

/** A row-major index space and the strides of @p N operands over it. */
template <std::size_t N>
class RowWalk {
  public:
    /** @p strides[k][d]: operand k's element stride along @p dims[d]. */
    RowWalk(const std::vector<std::int64_t>& dims,
            const std::array<std::vector<std::int64_t>, N>& strides)
    {
        // Drop extent-1 dimensions; merge a dimension into the one
        // before it when every operand steps through the two as one.
        strides_.fill({0});
        for (std::size_t d = 0; d < dims.size(); ++d) {
            if (dims[d] == 1) {
                continue;
            }
            bool merge = true;
            for (std::size_t k = 0; k < N && merge; ++k) {
                merge = strides_[k].back() == strides[k][d] * dims[d];
            }
            if (!merge) {
                dims_.push_back(1);
                for (auto& s : strides_) {
                    s.push_back(0);
                }
            }
            dims_.back() *= dims[d];
            for (std::size_t k = 0; k < N; ++k) {
                strides_[k].back() = strides[k][d];
            }
        }
        for (std::int64_t d : dims_) {
            size_ *= d;
        }
    }

    std::int64_t size() const { return size_; }

    /** @return operand @p k's stride along a row. */
    std::int64_t stride(std::size_t k) const { return strides_[k].back(); }

    /**
     * Visits elements [@p begin, @p end) in row-major order, one call
     * body(i, offsets, len) per row or part of one: @p i is the first
     * element's position in the walk and offsets[k] operand k's offset
     * for it; the next len - 1 elements follow at stride(k).
     */
    template <typename Body>
    void ForRange(std::int64_t begin, std::int64_t end, Body&& body) const
    {
        if (begin >= end) {
            return;
        }
        const std::size_t outer = dims_.size() - 1;
        const std::int64_t cols = dims_[outer];
        std::vector<std::int64_t> idx(outer);
        std::array<std::int64_t, N> off{};
        std::int64_t row = begin / cols;
        for (std::size_t d = outer; d-- > 0;) {
            idx[d] = row % dims_[d];
            row /= dims_[d];
            for (std::size_t k = 0; k < N; ++k) {
                off[k] += idx[d] * strides_[k][d];
            }
        }
        for (std::int64_t i = begin, col = begin % cols; i < end; col = 0) {
            const std::int64_t len = std::min(cols - col, end - i);
            std::array<std::int64_t, N> at = off;
            for (std::size_t k = 0; k < N; ++k) {
                at[k] += col * strides_[k][outer];
            }
            body(i, at, len);
            i += len;
            // Odometer: step the innermost outer dimension, carrying
            // into the next one out when it wraps.
            for (std::size_t d = outer; d-- > 0;) {
                for (std::size_t k = 0; k < N; ++k) {
                    off[k] += strides_[k][d];
                }
                if (++idx[d] < dims_[d]) {
                    break;
                }
                for (std::size_t k = 0; k < N; ++k) {
                    off[k] -= strides_[k][d] * dims_[d];
                }
                idx[d] = 0;
            }
        }
    }

  private:
    // Starts as one extent-1 dimension, so neither is ever empty.
    std::vector<std::int64_t> dims_{1};
    std::array<std::vector<std::int64_t>, N> strides_;
    std::int64_t size_ = 1;
};

/** @return the row-major element strides of @p dims. */
inline std::vector<std::int64_t>
ContiguousStrides(const std::vector<std::int64_t>& dims)
{
    std::vector<std::int64_t> strides(dims.size(), 1);
    for (std::size_t d = dims.size(); d-- > 1;) {
        strides[d - 1] = strides[d] * dims[d];
    }
    return strides;
}

/** dst[cell] = src[cell] over @p dims; destination cells must differ. */
template <typename T>
void
CopyStrided(const std::vector<std::int64_t>& dims, const T* src,
            const std::vector<std::int64_t>& src_strides, T* dst,
            const std::vector<std::int64_t>& dst_strides,
            parallel::ThreadPool& pool)
{
    const RowWalk<2> walk(dims, {src_strides, dst_strides});
    const std::int64_t ss = walk.stride(0);
    const std::int64_t ds = walk.stride(1);
    pool.ParallelFor(walk.size(), /*grain=*/4096,
                     [&](std::int64_t i0, std::int64_t i1) {
        walk.ForRange(i0, i1, [&](std::int64_t, const auto& off,
                                  std::int64_t len) {
            const T* s = src + off[0];
            T* d = dst + off[1];
            if (ss == 1 && ds == 1) {
                std::copy(s, s + len, d);
            } else {
                for (std::int64_t c = 0; c < len; ++c) {
                    d[c * ds] = s[c * ss];
                }
            }
        });
    });
}

/**
 * cell = fold(cell, v) for each element v of the contiguous @p src, in
 * ascending order; @p dst_strides locate v's cell (0 along summed axes).
 */
template <typename Acc, typename Fold>
void
AccumulateRows(const std::vector<std::int64_t>& dims,
               const std::vector<std::int64_t>& dst_strides,
               const float* src, Acc* dst, Fold fold)
{
    const RowWalk<1> walk(dims, {dst_strides});
    const std::int64_t s = walk.stride(0);
    walk.ForRange(0, walk.size(), [&](std::int64_t i, const auto& off,
                                      std::int64_t len) {
        const float* in = src + i;
        Acc* out = dst + off[0];
        if (s == 0) {
            Acc acc = *out;
            for (std::int64_t c = 0; c < len; ++c) {
                acc = fold(acc, in[c]);
            }
            *out = acc;
        } else {
            for (std::int64_t c = 0; c < len; ++c) {
                out[c * s] = fold(out[c * s], in[c]);
            }
        }
    });
}

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_ROW_WALK_H
