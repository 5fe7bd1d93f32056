#include "kernels/conv2d.h"

#include <algorithm>
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

/** Zeroes slots [from, to) of the panel row whose slot 0 is @p d. */
void
ZeroPanelRow(float* d, std::int64_t from, std::int64_t to)
{
    for (std::int64_t i = from; i < to; ++i) {
        d[i * kGemmMr] = 0.0f;
    }
}

/** @return ceil(a / b) for b > 0 and any sign of a. */
std::int64_t
CeilDiv(std::int64_t a, std::int64_t b)
{
    return a > 0 ? (a + b - 1) / b : -(-a / b);
}

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

PanelPacker
Im2colPackA(const float* in, const Conv2DGeometry& g)
{
    return [in, g](float* dst, std::int64_t row0, std::int64_t k0,
                   std::int64_t k1) {
        const std::int64_t rows = g.batch * g.out_h * g.out_w;
        const std::int64_t in_row = g.in_w * g.in_c;
        const std::int64_t in_img = g.in_h * in_row;
        // One filter row (fixed kh) is k_w * in_c consecutive taps, and
        // inside the image they are consecutive floats of one NHWC
        // input row. So each (output pixel, kh) pair packs as at most
        // three runs: zeros left of the image, one copy, zeros right.
        const std::int64_t row_taps = g.k_w * g.in_c;
        // The k-range starts at tap t_first of filter row kh_first; the
        // same walk repeats for every panel row.
        const std::int64_t kh_first = k0 / row_taps;
        const std::int64_t t_first = k0 - kh_first * row_taps;
        // Output pixel (n, oh, ow) of row0, stepped across the strip.
        std::int64_t n = row0 / (g.out_h * g.out_w);
        std::int64_t oh = (row0 / g.out_w) % g.out_h;
        std::int64_t ow = row0 % g.out_w;
        for (std::int64_t r = 0; r < kGemmMr; ++r) {
            float* d = dst + r;
            if (row0 + r >= rows) {
                // Dead rows (past M) exist only in the last strip.
                ZeroPanelRow(d, 0, k1 - k0);
                continue;
            }
            const std::int64_t ih0 = oh * g.stride - g.pad_top;
            const std::int64_t iw0 = ow * g.stride - g.pad_left;
            // Taps [lo, hi) of a filter row land inside the image.
            const std::int64_t kw_lo = std::clamp<std::int64_t>(-iw0, 0, g.k_w);
            const std::int64_t kw_hi =
                std::clamp<std::int64_t>(g.in_w - iw0, kw_lo, g.k_w);
            const std::int64_t lo = kw_lo * g.in_c;
            const std::int64_t hi = kw_hi * g.in_c;
            // Filter row kh covers taps [t0, t1) of the k-range; its tap
            // t goes to panel slot at + t.
            std::int64_t t0 = t_first;
            std::int64_t at = -t_first;
            for (std::int64_t kh = kh_first, k = k0; k < k1; ++kh) {
                const std::int64_t t1 = std::min(row_taps, t0 + (k1 - k));
                const std::int64_t ih = ih0 + kh;
                if (ih < 0 || ih >= g.in_h) {
                    ZeroPanelRow(d, at + t0, at + t1);
                } else {
                    const std::int64_t c0 = std::clamp(t0, lo, hi);
                    const std::int64_t c1 = std::clamp(t1, c0, hi);
                    ZeroPanelRow(d, at + t0, at + std::min(t1, lo));
                    if (c0 < c1) {
                        // Tap t reads flat offset iw0 * in_c + t of input
                        // row ih, which is in the image for t >= lo.
                        const float* src = in + (n * in_img + ih * in_row +
                                                 iw0 * g.in_c + c0);
                        for (std::int64_t t = c0; t < c1; ++t) {
                            d[(at + t) * kGemmMr] = src[t - c0];
                        }
                    }
                    ZeroPanelRow(d, at + std::max(t0, hi), at + t1);
                }
                k += t1 - t0;
                at += row_taps;
                t0 = 0;
            }
            if (++ow == g.out_w) {
                ow = 0;
                if (++oh == g.out_h) {
                    oh = 0;
                    ++n;
                }
            }
        }
    };
}

PanelPacker
Im2colPackAT(const float* in, const Conv2DGeometry& g)
{
    return [in, g](float* dst, std::int64_t row0, std::int64_t p0,
                   std::int64_t p1) {
        const std::int64_t taps = g.k_h * g.k_w * g.in_c;
        const std::int64_t in_row = g.in_w * g.in_c;
        const std::int64_t in_img = g.in_h * in_row;
        // Consecutive output columns read input columns `stride` apart.
        const std::int64_t src_step = g.stride * g.in_c;
        // The p-range starts at column w_first of output row
        // (n_first, oh_first); the same walk repeats for every panel
        // row.
        const std::int64_t n_first = p0 / (g.out_h * g.out_w);
        const std::int64_t oh_first = (p0 / g.out_w) % g.out_h;
        const std::int64_t w_first = p0 % g.out_w;
        // Tap (kh, kw, c) of row0, stepped across the strip.
        std::int64_t kh = row0 / (g.k_w * g.in_c);
        std::int64_t kw = (row0 / g.in_c) % g.k_w;
        std::int64_t c = row0 % g.in_c;
        for (std::int64_t r = 0; r < kGemmMr; ++r) {
            float* d = dst + r;
            if (row0 + r >= taps) {
                // Dead rows (past K) exist only in the last strip.
                ZeroPanelRow(d, 0, p1 - p0);
                continue;
            }
            // Output columns [ow_lo, ow_hi) read input column
            // ow * stride + shift inside [0, in_w).
            const std::int64_t shift = kw - g.pad_left;
            const std::int64_t ow_lo =
                std::clamp<std::int64_t>(CeilDiv(-shift, g.stride), 0, g.out_w);
            const std::int64_t ow_hi = std::clamp<std::int64_t>(
                CeilDiv(g.in_w - shift, g.stride), ow_lo, g.out_w);
            // Output row (n, oh) covers columns [w0, w1) of the p-range;
            // its column ow goes to panel slot at + ow.
            std::int64_t n = n_first;
            std::int64_t oh = oh_first;
            std::int64_t w0 = w_first;
            std::int64_t at = -w_first;
            for (std::int64_t p = p0; p < p1;) {
                const std::int64_t w1 = std::min(g.out_w, w0 + (p1 - p));
                const std::int64_t ih = oh * g.stride - g.pad_top + kh;
                if (ih < 0 || ih >= g.in_h) {
                    ZeroPanelRow(d, at + w0, at + w1);
                } else {
                    const std::int64_t c0 = std::clamp(w0, ow_lo, ow_hi);
                    const std::int64_t c1 = std::clamp(w1, c0, ow_hi);
                    ZeroPanelRow(d, at + w0, at + std::min(w1, ow_lo));
                    if (c0 < c1) {
                        const float* src =
                            in + (n * in_img + ih * in_row +
                                  (c0 * g.stride + shift) * g.in_c + c);
                        for (std::int64_t ow = c0; ow < c1; ++ow) {
                            d[(at + ow) * kGemmMr] = src[(ow - c0) * src_step];
                        }
                    }
                    ZeroPanelRow(d, at + std::max(w0, ow_hi), at + w1);
                }
                p += w1 - w0;
                at += g.out_w;
                w0 = 0;
                if (++oh == g.out_h) {
                    oh = 0;
                    ++n;
                }
            }
            if (++c == g.in_c) {
                c = 0;
                if (++kw == g.k_w) {
                    kw = 0;
                    ++kh;
                }
            }
        }
    };
}

Tensor
Conv2D(const Tensor& input, const Tensor& filter, std::int64_t stride,
       Padding padding, parallel::ThreadPool& pool)
{
    const Conv2DGeometry g =
        ResolveConv2D(input.shape(), filter.shape(), stride, padding);
    Tensor out(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.out_c});

    // One whole-batch GEMM: out [M, oc] = P [M, K] * W [K, oc], with P
    // packed straight from the padded image.
    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;
    GemmPanels(M, g.out_c, K, Im2colPackA(input.data<float>(), g),
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
    GemmPanels(K, g.out_c, M, Im2colPackAT(input.data<float>(), g),
               StridedPackB(grad_out.data<float>(), g.out_c, 1, g.out_c),
               grad_w.data<float>(), /*accumulate=*/false, pool);
    return grad_w;
}

}  // namespace fathom::kernels
