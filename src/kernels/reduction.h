/**
 * @file
 * Axis reductions, softmax, and related expansion kernels.
 */
#ifndef FATHOM_KERNELS_REDUCTION_H
#define FATHOM_KERNELS_REDUCTION_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

namespace fathom::kernels {

/**
 * max(@p best, @p v) with NaN propagating, as in NumPy and TensorFlow
 * (std::max alone drops a NaN @p v). Ties keep @p best.
 */
inline float
NanMax(float best, float v)
{
    return v != v ? v : std::max(best, v);
}

/** Reduction operator selector. */
enum class ReduceOp { kSum, kMean, kMax };

/**
 * Reduces a float32 tensor over @p axes.
 *
 * @param axes      axes to reduce (negative axes allowed); empty means
 *                  "all axes" (full reduction to a scalar).
 * @param keep_dims if true, reduced axes remain with extent 1.
 */
Tensor Reduce(const Tensor& input, ReduceOp op,
              const std::vector<int>& axes, bool keep_dims,
              parallel::ThreadPool& pool);

/** Row-wise softmax over the last dimension. */
Tensor Softmax(const Tensor& logits, parallel::ThreadPool& pool);

/** Row-wise log-softmax over the last dimension (numerically stable). */
Tensor LogSoftmax(const Tensor& logits, parallel::ThreadPool& pool);

/**
 * Row-wise argmax over the last dimension.
 * @return an int32 tensor with the last dimension removed.
 */
Tensor ArgMaxLastDim(const Tensor& input, parallel::ThreadPool& pool);

/**
 * Tiles @p input by repeating it @p multiples[i] times along axis i.
 * multiples.size() must equal the input rank.
 */
Tensor Tile(const Tensor& input, const std::vector<std::int64_t>& multiples,
            parallel::ThreadPool& pool);

/** Adjoint of Tile: sums the tiled gradient back to the input shape. */
Tensor TileGrad(const Tensor& grad_out, const Shape& input_shape,
                const std::vector<std::int64_t>& multiples,
                parallel::ThreadPool& pool);

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_REDUCTION_H
