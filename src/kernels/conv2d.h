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
 * All three kernels are lowered onto the blocked, packed GEMM engine
 * (kernels/gemm.h) through the im2col view of the convolution. The
 * forward pass and the filter gradient pack their patch-matrix panels
 * directly from the padded image (no materialized im2col); the input
 * gradient runs one GEMM into a pool-recycled column buffer and
 * col2im-gathers it back onto the image.
 */
#ifndef FATHOM_KERNELS_CONV2D_H
#define FATHOM_KERNELS_CONV2D_H

#include <cstdint>

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
 * read it: the engine's pack step reads straight from the padded
 * image through the two packers below.
 *
 * Both packers fill one panel row at a time and move runs, not single
 * elements. One bounds test covers a whole run (a filter row's taps,
 * or an output row's pixels), after which the run is a plain copy or
 * a zero fill. A source index is formed only for an in-image run
 * start, never as an out-of-image position plus an offset.
 */

/**
 * @return the A packer for P [M, K] (forward GEMM) over the NHWC image
 * @p in. A run is the in-image part of one filter row (fixed kh):
 * k_w * in_c taps that are consecutive floats of one input row.
 */
PanelPacker Im2colPackA(const float* in, const Conv2DGeometry& g);

/**
 * @return the A packer for P^T [K, M] (filter-gradient GEMM) over the
 * NHWC image @p in. A run is the in-image part of one output row
 * (fixed n, oh) for one tap, gathered with stride `stride * in_c`.
 */
PanelPacker Im2colPackAT(const float* in, const Conv2DGeometry& g);

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
