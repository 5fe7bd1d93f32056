#include "kernels/conv2d.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "kernels/gemm.h"
#include "tensor/buffer_pool.h"

namespace fathom::kernels {

Conv2DGeometry
ResolveConv2D(const Shape& input, const Shape& filter, std::int64_t stride,
              Padding padding)
{
    if (input.rank() != 4) {
        throw std::invalid_argument("Conv2D input must be NHWC rank-4, got " +
                                    input.ToString());
    }
    if (filter.rank() != 4) {
        throw std::invalid_argument(
            "Conv2D filter must be [kh, kw, c, oc] rank-4, got " +
            filter.ToString());
    }
    if (input.dim(3) != filter.dim(2)) {
        throw std::invalid_argument(
            "Conv2D channel mismatch: input " + input.ToString() +
            " vs filter " + filter.ToString());
    }
    if (stride < 1) {
        throw std::invalid_argument("Conv2D stride must be >= 1");
    }

    Conv2DGeometry g;
    g.batch = input.dim(0);
    g.in_h = input.dim(1);
    g.in_w = input.dim(2);
    g.in_c = input.dim(3);
    g.k_h = filter.dim(0);
    g.k_w = filter.dim(1);
    g.out_c = filter.dim(3);
    g.stride = stride;

    if (padding == Padding::kSame) {
        g.out_h = (g.in_h + stride - 1) / stride;
        g.out_w = (g.in_w + stride - 1) / stride;
        const std::int64_t pad_h =
            std::max<std::int64_t>((g.out_h - 1) * stride + g.k_h - g.in_h, 0);
        const std::int64_t pad_w =
            std::max<std::int64_t>((g.out_w - 1) * stride + g.k_w - g.in_w, 0);
        g.pad_top = pad_h / 2;
        g.pad_left = pad_w / 2;
    } else {
        if (g.in_h < g.k_h || g.in_w < g.k_w) {
            throw std::invalid_argument("Conv2D VALID: filter larger than input");
        }
        g.out_h = (g.in_h - g.k_h) / stride + 1;
        g.out_w = (g.in_w - g.k_w) / stride + 1;
        g.pad_top = 0;
        g.pad_left = 0;
    }
    return g;
}

namespace {

/**
 * The filter taps that reach one input coordinate x along one axis: k
 * = k0, k0 + stride, ... (count of them), read from output coordinate
 * o0, o0 - 1, ... respectively. Tap k reaches x from output o when
 * o * stride - pad + k == x.
 */
struct TapSource {
    std::int64_t k0 = 0;
    std::int64_t o0 = 0;
    std::int64_t count = 0;
};

/** @return the TapSource of every input coordinate in [0, in). */
std::vector<TapSource>
TapSources(std::int64_t in, std::int64_t taps, std::int64_t pad,
           std::int64_t stride, std::int64_t out)
{
    std::vector<TapSource> sources(static_cast<std::size_t>(in));
    for (std::int64_t x = 0; x < in; ++x) {
        TapSource& s = sources[static_cast<std::size_t>(x)];
        for (std::int64_t k = 0; k < taps; ++k) {
            const std::int64_t o_num = x + pad - k;
            if (o_num < 0 || o_num % stride != 0 || o_num / stride >= out) {
                continue;
            }
            if (s.count == 0) {
                s.k0 = k;
                s.o0 = o_num / stride;
            }
            ++s.count;
        }
    }
    return sources;
}

void
CheckGradOutShape(const Conv2DGeometry& g, const Tensor& grad_out,
                  const char* kernel)
{
    if (grad_out.shape() != Shape({g.batch, g.out_h, g.out_w, g.out_c})) {
        throw std::invalid_argument(std::string(kernel) + ": grad_out shape " +
                                    grad_out.shape().ToString() +
                                    " inconsistent with geometry");
    }
}

}  // namespace

ConvGather::ConvGather(const float* in, const Conv2DGeometry& g,
                       parallel::ThreadPool& pool)
{
    // The padded image spans every row and column a window reads:
    // [-pad_top, (out_h - 1) * stride - pad_top + k_h) and likewise
    // across, which covers the image itself.
    const std::int64_t hp =
        std::max(g.in_h + g.pad_top, (g.out_h - 1) * g.stride + g.k_h);
    const std::int64_t wp =
        std::max(g.in_w + g.pad_left, (g.out_w - 1) * g.stride + g.k_w);
    extent_ = g.batch * hp * wp * g.in_c;
    if (extent_ > std::numeric_limits<std::int32_t>::max()) {
        throw std::length_error(
            "Conv2D: padded input exceeds 32-bit gather offsets");
    }
    // No window leaves the image (VALID, or a 1x1 filter whose stride
    // divides the input): read the input itself.
    const bool in_place = hp == g.in_h && wp == g.in_w;
    const std::int64_t padded = in_place ? 0 : extent_;
    const std::int64_t pixels = g.batch * g.out_h * g.out_w;
    const std::int64_t taps = g.k_h * g.k_w * g.in_c;
    block_ = BufferPool::Global().Allocate(
        static_cast<std::size_t>(padded) * sizeof(float) +
        static_cast<std::size_t>(pixels + taps) * sizeof(std::int32_t));
    float* pad = reinterpret_cast<float*>(block_.get());
    auto* tables = reinterpret_cast<std::int32_t*>(pad + padded);
    pixel_off_ = tables;
    tap_off_ = tables + pixels;
    base_ = in_place ? in : pad;

    const std::int64_t in_row = g.in_w * g.in_c;
    const std::int64_t row = wp * g.in_c;
    if (!in_place) {
        // Padded rows: zeros, the image row, zeros; +0.0f, as the
        // out-of-image taps of the im2col view read.
        const std::int64_t left = g.pad_left * g.in_c;
        pool.ParallelFor(
            g.batch * hp, /*grain=*/16, [&](std::int64_t r0, std::int64_t r1) {
                for (std::int64_t r = r0; r < r1; ++r) {
                    float* d = pad + r * row;
                    const std::int64_t ih = r % hp - g.pad_top;
                    if (ih < 0 || ih >= g.in_h) {
                        std::fill(d, d + row, 0.0f);
                        continue;
                    }
                    const float* src =
                        in + ((r / hp) * g.in_h + ih) * in_row;
                    std::fill(d, d + left, 0.0f);
                    std::copy(src, src + in_row, d + left);
                    std::fill(d + left + in_row, d + row, 0.0f);
                }
            });
    }

    // Output pixel (n, oh, ow)'s window starts at padded row oh *
    // stride, column ow * stride; tap (kh, kw, c) sits kh rows, kw
    // columns and c channels into it. Stride and padding live here
    // only.
    std::int32_t* po = tables;
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
            const std::int64_t origin = (n * hp + oh * g.stride) * row;
            for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
                *po++ = static_cast<std::int32_t>(origin +
                                                  ow * g.stride * g.in_c);
            }
        }
    }
    std::int32_t* to = tables + pixels;
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
        for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
            for (std::int64_t c = 0; c < g.in_c; ++c) {
                *to++ = static_cast<std::int32_t>(kh * row + kw * g.in_c + c);
            }
        }
    }
}

Tensor
Conv2D(const Tensor& input, const Tensor& filter, std::int64_t stride,
       Padding padding, parallel::ThreadPool& pool)
{
    const Conv2DGeometry g =
        ResolveConv2D(input.shape(), filter.shape(), stride, padding);
    Tensor out(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.out_c});

    // One whole-batch GEMM: out [M, oc] = P [M, K] * W [K, oc], with P
    // read in place from the padded image.
    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;
    const ConvGather gather(input.data<float>(), g, pool);
    GemmPanels(M, g.out_c, K, gather.Forward(),
               StridedPackB(filter.data<float>(), g.out_c, 1, g.out_c),
               out.data<float>(), /*accumulate=*/false, pool);
    return out;
}

Tensor
Conv2DBackpropInput(const Shape& input_shape, const Tensor& filter,
                    const Tensor& grad_out, std::int64_t stride,
                    Padding padding, parallel::ThreadPool& pool)
{
    const Conv2DGeometry g =
        ResolveConv2D(input_shape, filter.shape(), stride, padding);
    CheckGradOutShape(g, grad_out, "Conv2DBackpropInput");
    Tensor grad_in = Tensor::Zeros(input_shape);

    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;

    // Gcol [M, K] = gOut [M, oc] * W^T [oc, K]; the column buffer is
    // pool-recycled scratch, so steady-state steps reuse one block.
    auto col_block = BufferPool::Global().Allocate(
        static_cast<std::size_t>(M * K) * sizeof(float));
    float* gcol = reinterpret_cast<float*>(col_block.get());
    Gemm(M, K, g.out_c, grad_out.data<float>(), g.out_c, 1,
         filter.data<float>(), 1, g.out_c, gcol, /*accumulate=*/false, pool);

    // col2im: gather each input pixel's contributions from the column
    // buffer. Every (n, ih) row is written by exactly one chunk and
    // the tap loop order is fixed, so no races and no order variance.
    // Which filter rows reach input row ih (and from which output row)
    // depends on ih alone, and likewise for columns, so both are
    // resolved once per call and the gather divides nothing.
    const std::vector<TapSource> rows =
        TapSources(g.in_h, g.k_h, g.pad_top, g.stride, g.out_h);
    const std::vector<TapSource> cols =
        TapSources(g.in_w, g.k_w, g.pad_left, g.stride, g.out_w);
    const float* col = gcol;
    float* gi = grad_in.data<float>();
    const std::int64_t in_row = g.in_w * g.in_c;
    const std::int64_t in_img = g.in_h * in_row;
    pool.ParallelFor(
        g.batch * g.in_h, /*grain=*/1,
        [&](std::int64_t r0, std::int64_t r1) {
            for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t n = r / g.in_h;
                const std::int64_t ih = r % g.in_h;
                const TapSource& rs = rows[ih];
                for (std::int64_t iw = 0; iw < g.in_w; ++iw) {
                    float* gip = gi + n * in_img + ih * in_row + iw * g.in_c;
                    const TapSource& cs = cols[iw];
                    // Ascending kh, then ascending kw: the fixed
                    // summation order.
                    for (std::int64_t i = 0; i < rs.count; ++i) {
                        const std::int64_t kh = rs.k0 + i * g.stride;
                        const std::int64_t oh = rs.o0 - i;
                        for (std::int64_t j = 0; j < cs.count; ++j) {
                            const std::int64_t kw = cs.k0 + j * g.stride;
                            const std::int64_t ow = cs.o0 - j;
                            const float* src =
                                col +
                                ((n * g.out_h + oh) * g.out_w + ow) * K +
                                (kh * g.k_w + kw) * g.in_c;
                            for (std::int64_t c = 0; c < g.in_c; ++c) {
                                gip[c] += src[c];
                            }
                        }
                    }
                }
            }
        });
    return grad_in;
}

Tensor
Conv2DBackpropFilter(const Tensor& input, const Shape& filter_shape,
                     const Tensor& grad_out, std::int64_t stride,
                     Padding padding, parallel::ThreadPool& pool)
{
    const Conv2DGeometry g =
        ResolveConv2D(input.shape(), filter_shape, stride, padding);
    CheckGradOutShape(g, grad_out, "Conv2DBackpropFilter");
    Tensor grad_w(DType::kFloat32, filter_shape);

    // gW [K, oc] = P^T [K, M] * gOut [M, oc]: the whole batch is the
    // reduction dimension of a single GEMM, accumulated in the
    // engine's fixed KC order.
    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;
    const ConvGather gather(input.data<float>(), g, pool);
    GemmPanels(K, g.out_c, M, gather.FilterGrad(),
               StridedPackB(grad_out.data<float>(), g.out_c, 1, g.out_c),
               grad_w.data<float>(), /*accumulate=*/false, pool);
    return grad_w;
}

}  // namespace fathom::kernels
