#include "kernels/pooling.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "kernels/reduction.h"

namespace fathom::kernels {

PoolGeometry
ResolvePool(const Shape& input, std::int64_t window, std::int64_t stride,
            Padding padding)
{
    if (input.rank() != 4) {
        throw std::invalid_argument("Pool input must be NHWC rank-4, got " +
                                    input.ToString());
    }
    if (window < 1 || stride < 1) {
        throw std::invalid_argument("Pool window/stride must be >= 1");
    }
    PoolGeometry g;
    g.batch = input.dim(0);
    g.in_h = input.dim(1);
    g.in_w = input.dim(2);
    g.channels = input.dim(3);
    g.window = window;
    g.stride = stride;
    if (padding == Padding::kSame) {
        g.out_h = (g.in_h + stride - 1) / stride;
        g.out_w = (g.in_w + stride - 1) / stride;
        const std::int64_t pad_h =
            std::max<std::int64_t>((g.out_h - 1) * stride + window - g.in_h, 0);
        const std::int64_t pad_w =
            std::max<std::int64_t>((g.out_w - 1) * stride + window - g.in_w, 0);
        g.pad_top = pad_h / 2;
        g.pad_left = pad_w / 2;
    } else {
        if (g.in_h < window || g.in_w < window) {
            throw std::invalid_argument("Pool VALID: window larger than input");
        }
        g.out_h = (g.in_h - window) / stride + 1;
        g.out_w = (g.in_w - window) / stride + 1;
        g.pad_top = 0;
        g.pad_left = 0;
    }
    return g;
}

namespace {

/**
 * Shared window sweep. @p fn is called once per (output cell, channel)
 * with the clipped input window bounds.
 */
template <typename Fn>
void
ForEachWindow(const PoolGeometry& g, parallel::ThreadPool& pool, Fn fn)
{
    pool.ParallelFor(
        g.batch * g.out_h, /*grain=*/1,
        [&](std::int64_t r0, std::int64_t r1) {
            for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t n = r / g.out_h;
                const std::int64_t oh = r % g.out_h;
                const std::int64_t h0 =
                    std::max<std::int64_t>(oh * g.stride - g.pad_top, 0);
                const std::int64_t h1 = std::min(
                    oh * g.stride - g.pad_top + g.window, g.in_h);
                for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
                    const std::int64_t w0 =
                        std::max<std::int64_t>(ow * g.stride - g.pad_left, 0);
                    const std::int64_t w1 = std::min(
                        ow * g.stride - g.pad_left + g.window, g.in_w);
                    fn(n, oh, ow, h0, h1, w0, w1);
                }
            }
        });
}

}  // namespace

Tensor
MaxPool(const Tensor& input, std::int64_t window, std::int64_t stride,
        Padding padding, parallel::ThreadPool& pool)
{
    const PoolGeometry g = ResolvePool(input.shape(), window, stride, padding);
    Tensor out(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.channels});
    const float* in = input.data<float>();
    float* o = out.data<float>();
    const std::int64_t in_row = g.in_w * g.channels;
    const std::int64_t in_img = g.in_h * in_row;
    const std::int64_t out_row = g.out_w * g.channels;
    const std::int64_t out_img = g.out_h * out_row;

    ForEachWindow(g, pool,
                  [&](std::int64_t n, std::int64_t oh, std::int64_t ow,
                      std::int64_t h0, std::int64_t h1, std::int64_t w0,
                      std::int64_t w1) {
        float* optr = o + n * out_img + oh * out_row + ow * g.channels;
        std::fill(optr, optr + g.channels,
                  -std::numeric_limits<float>::infinity());
        for (std::int64_t h = h0; h < h1; ++h) {
            for (std::int64_t w = w0; w < w1; ++w) {
                const float* x = in + n * in_img + h * in_row + w * g.channels;
                for (std::int64_t c = 0; c < g.channels; ++c) {
                    optr[c] = NanMax(optr[c], x[c]);
                }
            }
        }
    });
    return out;
}

Tensor
MaxPoolGrad(const Tensor& input, const Tensor& grad_out, std::int64_t window,
            std::int64_t stride, Padding padding, parallel::ThreadPool& pool)
{
    const PoolGeometry g = ResolvePool(input.shape(), window, stride, padding);
    Tensor grad_in = Tensor::Zeros(input.shape());
    const float* in = input.data<float>();
    const float* go = grad_out.data<float>();
    float* gi = grad_in.data<float>();
    const std::int64_t in_row = g.in_w * g.channels;
    const std::int64_t in_img = g.in_h * in_row;
    const std::int64_t out_row = g.out_w * g.channels;
    const std::int64_t out_img = g.out_h * out_row;

    // Serial over windows: with stride < window, adjacent windows can
    // route gradient to the same input cell, so the parallel write
    // pattern is unsafe. Pool gradients are a tiny slice of runtime.
    parallel::ThreadPool inline_pool(1);
    ForEachWindow(g, inline_pool,
                  [&](std::int64_t n, std::int64_t oh, std::int64_t ow,
                      std::int64_t h0, std::int64_t h1, std::int64_t w0,
                      std::int64_t w1) {
        const float* goptr = go + n * out_img + oh * out_row + ow * g.channels;
        for (std::int64_t c = 0; c < g.channels; ++c) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = -1;
            for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t w = w0; w < w1; ++w) {
                    const std::int64_t idx =
                        n * in_img + h * in_row + w * g.channels + c;
                    // The element NanMax leaves in the forward output:
                    // the last NaN, else the first maximum.
                    if (best_idx < 0 || in[idx] != in[idx] ||
                        in[idx] > best) {
                        best = in[idx];
                        best_idx = idx;
                    }
                }
            }
            if (best_idx >= 0) {
                gi[best_idx] += goptr[c];
            }
        }
    });
    (void)pool;
    return grad_in;
}

Tensor
AvgPool(const Tensor& input, std::int64_t window, std::int64_t stride,
        Padding padding, parallel::ThreadPool& pool)
{
    const PoolGeometry g = ResolvePool(input.shape(), window, stride, padding);
    Tensor out(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.channels});
    const float* in = input.data<float>();
    float* o = out.data<float>();
    const std::int64_t in_row = g.in_w * g.channels;
    const std::int64_t in_img = g.in_h * in_row;
    const std::int64_t out_row = g.out_w * g.channels;
    const std::int64_t out_img = g.out_h * out_row;

    ForEachWindow(g, pool,
                  [&](std::int64_t n, std::int64_t oh, std::int64_t ow,
                      std::int64_t h0, std::int64_t h1, std::int64_t w0,
                      std::int64_t w1) {
        float* optr = o + n * out_img + oh * out_row + ow * g.channels;
        const float inv_count =
            1.0f / static_cast<float>((h1 - h0) * (w1 - w0));
        for (std::int64_t c = 0; c < g.channels; ++c) {
            float sum = 0.0f;
            for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t w = w0; w < w1; ++w) {
                    sum += in[n * in_img + h * in_row + w * g.channels + c];
                }
            }
            optr[c] = sum * inv_count;
        }
    });
    return out;
}

Tensor
AvgPoolGrad(const Shape& input_shape, const Tensor& grad_out,
            std::int64_t window, std::int64_t stride, Padding padding,
            parallel::ThreadPool& pool)
{
    const PoolGeometry g = ResolvePool(input_shape, window, stride, padding);
    Tensor grad_in = Tensor::Zeros(input_shape);
    const float* go = grad_out.data<float>();
    float* gi = grad_in.data<float>();
    const std::int64_t in_row = g.in_w * g.channels;
    const std::int64_t in_img = g.in_h * in_row;
    const std::int64_t out_row = g.out_w * g.channels;
    const std::int64_t out_img = g.out_h * out_row;

    parallel::ThreadPool inline_pool(1);
    ForEachWindow(g, inline_pool,
                  [&](std::int64_t n, std::int64_t oh, std::int64_t ow,
                      std::int64_t h0, std::int64_t h1, std::int64_t w0,
                      std::int64_t w1) {
        const float* goptr = go + n * out_img + oh * out_row + ow * g.channels;
        const float inv_count =
            1.0f / static_cast<float>((h1 - h0) * (w1 - w0));
        for (std::int64_t c = 0; c < g.channels; ++c) {
            const float v = goptr[c] * inv_count;
            for (std::int64_t h = h0; h < h1; ++h) {
                for (std::int64_t w = w0; w < w1; ++w) {
                    gi[n * in_img + h * in_row + w * g.channels + c] += v;
                }
            }
        }
    });
    (void)pool;
    return grad_in;
}

}  // namespace fathom::kernels
