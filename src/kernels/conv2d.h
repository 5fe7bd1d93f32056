/**
 * @file
 * 2-D convolution and its two backward passes.
 *
 * Layout is NHWC (batch, height, width, channels) with filters in
 * [kh, kw, in_channels, out_channels], matching TensorFlow's defaults.
 * The paper's convolutional workloads (alexnet, vgg, residual, deepq)
 * are dominated by these three kernels, and the asymmetry between one
 * forward reduction and two backward reductions is what makes training
 * relatively more expensive for conv nets (paper Sec. V-D).
 *
 * All three kernels are lowered onto the blocked GEMM engine
 * (kernels/gemm.h) through the im2col view of the convolution. The
 * forward pass and the filter gradient read the patch matrix in place
 * from a zero-padded copy of the image (ConvGather); the input
 * gradient runs one GEMM into a pool-recycled column buffer and
 * col2im-gathers it back onto the image.
 */
#ifndef FATHOM_KERNELS_CONV2D_H
#define FATHOM_KERNELS_CONV2D_H

#include <cstdint>
#include <memory>

#include "kernels/gemm.h"
#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

namespace fathom::kernels {

/** Padding policy, mirroring TensorFlow's SAME/VALID. */
enum class Padding {
    kSame,   ///< output size = ceil(input / stride), zero-padded.
    kValid,  ///< no padding; output size = floor((in - k) / stride) + 1.
};

/** Static geometry of a convolution, resolved from shapes + attrs. */
struct Conv2DGeometry {
    std::int64_t batch, in_h, in_w, in_c;
    std::int64_t k_h, k_w, out_c;
    std::int64_t stride;
    std::int64_t out_h, out_w;
    std::int64_t pad_top, pad_left;
};

/**
 * Resolves output size and padding for the given input/filter shapes.
 * @throws std::invalid_argument on malformed shapes.
 */
Conv2DGeometry ResolveConv2D(const Shape& input, const Shape& filter,
                             std::int64_t stride, Padding padding);

/*
 * The im2col view of a convolution, shared by all three kernels:
 * the patch matrix P has M = batch * out_h * out_w rows (one output
 * pixel each) and K = k_h * k_w * in_c columns (one filter tap each,
 * in (kh, kw, c) order), with out-of-image taps reading as zero. Then
 *
 *   forward:      out  [M, oc] = P [M, K] * W [K, oc]
 *   filter grad:  gW   [K, oc] = P^T [K, M] * gOut [M, oc]
 *   input grad:   Gcol [M, K]  = gOut [M, oc] * W^T [oc, K],
 *                 then col2im-scatters Gcol back onto the image.
 *
 * W is the filter tensor itself: [kh, kw, ic, oc] row-major is already
 * the [K, oc] matrix. P is never materialized for the two GEMMs that
 * read it: over the zero-padded image Xp, P[r][k] = Xp[pixel_off[r] +
 * tap_off[k]] (a window origin plus a tap's offset in the window), and
 * P^T is the same formula with the two tables swapped.
 */

/**
 * The gathered im2col operand of one convolution input: the padded
 * image (or the input itself, when no window leaves it) and the two
 * offset tables, in one BufferPool block. Padded taps read +0.0f, as
 * the im2col view's out-of-image taps do, so a padded tap still
 * contributes fma(0, b, acc).
 */
class ConvGather {
  public:
    /** @throws std::length_error past 2^31 - 1 padded floats. */
    ConvGather(const float* in, const Conv2DGeometry& g,
               parallel::ThreadPool& pool);

    /** P [M, K]: rows are output pixels (n, oh, ow), k runs over taps
     * (kh, kw, c). */
    GatheredA Forward() const { return {base_, pixel_off_, tap_off_}; }
    /** P^T [K, M]: rows are taps, k runs over output pixels. */
    GatheredA FilterGrad() const { return {base_, tap_off_, pixel_off_}; }
    /** Floats readable from the operand's base. */
    std::int64_t extent() const { return extent_; }

  private:
    std::shared_ptr<char[]> block_;
    const float* base_ = nullptr;
    const std::int32_t* pixel_off_ = nullptr;
    const std::int32_t* tap_off_ = nullptr;
    std::int64_t extent_ = 0;
};

/**
 * Forward convolution.
 * @param input  [n, h, w, c] float32.
 * @param filter [kh, kw, c, oc] float32.
 * @return       [n, oh, ow, oc] float32.
 */
Tensor Conv2D(const Tensor& input, const Tensor& filter, std::int64_t stride,
              Padding padding, parallel::ThreadPool& pool);

/**
 * Gradient with respect to the input (the "deconvolution").
 * @param input_shape shape of the original input.
 * @param filter      the forward filter.
 * @param grad_out    gradient flowing into the forward output.
 */
Tensor Conv2DBackpropInput(const Shape& input_shape, const Tensor& filter,
                           const Tensor& grad_out, std::int64_t stride,
                           Padding padding, parallel::ThreadPool& pool);

/**
 * Gradient with respect to the filter.
 * @param input        the original forward input.
 * @param filter_shape shape of the forward filter.
 * @param grad_out     gradient flowing into the forward output.
 */
Tensor Conv2DBackpropFilter(const Tensor& input, const Shape& filter_shape,
                            const Tensor& grad_out, std::int64_t stride,
                            Padding padding, parallel::ThreadPool& pool);

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_CONV2D_H
