/**
 * @file
 * Oracle test for the gathered conv lowering. Conv2D and
 * Conv2DBackpropFilter read their im2col operand in place through
 * ConvGather (a zero-padded image plus pixel and tap offset tables).
 * The per-element im2col packers that operand replaced are kept here
 * as the reference; each visits one panel slot at a time and
 * bounds-tests every element. So is the per-pixel col2im that
 * Conv2DBackpropInput replaced with precomputed tap tables.
 *
 * Three checks per case:
 *  - every live (row, k) element of the forward operand P and the
 *    filter-gradient operand P^T, read as base[row_off[r] + k_off[k]],
 *    equals the per-element im2col value bit for bit, and every
 *    offset sum lies inside the padded block;
 *  - GemmPanels driven by the reference packers, compared with memcmp
 *    against Conv2D and Conv2DBackpropFilter;
 *  - the reference col2im, compared bit for bit against
 *    Conv2DBackpropInput (any NaN matching any NaN).
 *
 * The cases reach what ConvLoweringBattery cannot (its K is at most 75
 * and its M at most 162, so no KC block splits a channel run): a KC
 * boundary inside a channel run, a filter-gradient KC block that ends
 * inside an output row, strips that straddle two images, dead rows in
 * the last strip, stride 2 with SAME padding, 1x1 stride-2
 * projections read in place, VALID padding, 300 output channels,
 * batch 1, and a filter larger than its input. Inputs and filters hold
 * NaN, ±Inf, −0 and denormals, so 0 * Inf at a padded tap gives NaN
 * exactly where the reference packers' zeros do. There is no
 * tolerance anywhere. These tests carry the `kernels` ctest label, so
 * the sanitizer jobs run them.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace fathom::kernels {
namespace {

// ---- the replaced per-element packers ------------------------------------

/** The im2col value P[pixel][tap], bounds-tested per element. */
float
Im2colValue(const float* in, const Conv2DGeometry& g, std::int64_t pixel,
            std::int64_t tap)
{
    const std::int64_t n = pixel / (g.out_h * g.out_w);
    const std::int64_t oh = pixel / g.out_w % g.out_h;
    const std::int64_t ow = pixel % g.out_w;
    const std::int64_t kh = tap / (g.k_w * g.in_c);
    const std::int64_t kw = tap / g.in_c % g.k_w;
    const std::int64_t c = tap % g.in_c;
    const std::int64_t ih = oh * g.stride - g.pad_top + kh;
    const std::int64_t iw = ow * g.stride - g.pad_left + kw;
    if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) {
        return 0.0f;
    }
    return in[((n * g.in_h + ih) * g.in_w + iw) * g.in_c + c];
}

/** Packs P [M, K] one panel slot at a time; dead rows are zero. */
PanelPacker
ElementwisePackA(const float* in, const Conv2DGeometry& g)
{
    return [in, g](float* dst, std::int64_t row0, std::int64_t k0,
                   std::int64_t k1) {
        const std::int64_t rows = g.batch * g.out_h * g.out_w;
        for (std::int64_t p = k0; p < k1; ++p) {
            for (std::int64_t r = 0; r < kGemmMr; ++r) {
                dst[(p - k0) * kGemmMr + r] =
                    row0 + r < rows ? Im2colValue(in, g, row0 + r, p) : 0.0f;
            }
        }
    };
}

/** Packs P^T [K, M] one panel slot at a time; dead rows are zero. */
PanelPacker
ElementwisePackAT(const float* in, const Conv2DGeometry& g)
{
    return [in, g](float* dst, std::int64_t row0, std::int64_t p0,
                   std::int64_t p1) {
        const std::int64_t taps = g.k_h * g.k_w * g.in_c;
        for (std::int64_t p = p0; p < p1; ++p) {
            for (std::int64_t r = 0; r < kGemmMr; ++r) {
                dst[(p - p0) * kGemmMr + r] =
                    row0 + r < taps ? Im2colValue(in, g, p, row0 + r) : 0.0f;
            }
        }
    };
}

/** The replaced col2im of Conv2DBackpropInput: resolves every tap's
 * output pixel per input pixel, with divisions, in (kh, kw) order. */
Tensor
PerPixelBackpropInput(const Shape& input_shape, const Tensor& filter,
                      const Tensor& grad_out, std::int64_t stride,
                      Padding padding, parallel::ThreadPool& pool)
{
    const Conv2DGeometry g =
        ResolveConv2D(input_shape, filter.shape(), stride, padding);
    Tensor grad_in = Tensor::Zeros(input_shape);
    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;
    std::vector<float> col(static_cast<std::size_t>(M * K));
    Gemm(M, K, g.out_c, grad_out.data<float>(), g.out_c, 1,
         filter.data<float>(), 1, g.out_c, col.data(), /*accumulate=*/false,
         pool);
    float* gi = grad_in.data<float>();
    const std::int64_t in_row = g.in_w * g.in_c;
    const std::int64_t in_img = g.in_h * in_row;
    for (std::int64_t r = 0; r < g.batch * g.in_h; ++r) {
        const std::int64_t n = r / g.in_h;
        const std::int64_t ih = r % g.in_h;
        for (std::int64_t iw = 0; iw < g.in_w; ++iw) {
            float* gip = gi + n * in_img + ih * in_row + iw * g.in_c;
            for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
                const std::int64_t oh_num = ih + g.pad_top - kh;
                if (oh_num < 0 || oh_num % g.stride != 0) {
                    continue;
                }
                const std::int64_t oh = oh_num / g.stride;
                if (oh >= g.out_h) {
                    continue;
                }
                for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
                    const std::int64_t ow_num = iw + g.pad_left - kw;
                    if (ow_num < 0 || ow_num % g.stride != 0) {
                        continue;
                    }
                    const std::int64_t ow = ow_num / g.stride;
                    if (ow >= g.out_w) {
                        continue;
                    }
                    const float* src =
                        col.data() + ((n * g.out_h + oh) * g.out_w + ow) * K +
                        (kh * g.k_w + kw) * g.in_c;
                    for (std::int64_t c = 0; c < g.in_c; ++c) {
                        gip[c] += src[c];
                    }
                }
            }
        }
    }
    return grad_in;
}

// ---- helpers --------------------------------------------------------------

/** Normal values mixed with NaN, ±Inf, ±0 and denormals. */
Tensor
EdgeTensor(const Shape& shape, std::uint64_t seed)
{
    static const float kSpecial[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -3.0e-39f,
    };
    Rng rng(seed);
    Tensor t(DType::kFloat32, shape);
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
        // Specials are sparse so that most outputs stay finite and a
        // wrong tap still moves their bits.
        t.data<float>()[i] =
            rng.Uniform() < 0.02
                ? kSpecial[static_cast<std::size_t>(rng.UniformInt(
                      static_cast<std::int64_t>(std::size(kSpecial))))]
                : rng.UniformFloat(-2.0f, 2.0f);
    }
    return t;
}

parallel::ThreadPool&
Pool()
{
    static parallel::ThreadPool pool(1);
    return pool;
}

bool
SameBytes(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data<float>(), b.data<float>(),
                       static_cast<std::size_t>(a.num_elements()) *
                           sizeof(float)) == 0;
}

/**
 * Bit equality, except that any NaN matches any NaN. For x + y with
 * two NaNs, x86 returns the payload of whichever operand the compiler
 * placed first, and that is its choice; the reference col2im is
 * compiled with the test's flags, the kernel with the engine's.
 */
bool
SameBitsOrBothNaN(const Tensor& a, const Tensor& b)
{
    if (a.shape() != b.shape()) {
        return false;
    }
    for (std::int64_t i = 0; i < a.num_elements(); ++i) {
        const float x = a.data<float>()[i];
        const float y = b.data<float>()[i];
        if (!(std::isnan(x) && std::isnan(y)) &&
            std::memcmp(&x, &y, sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

/**
 * Reads every element of the gathered operand @p a [rows, depth] and
 * compares it bit for bit with @p want(r, k); also checks that every
 * offset sum lies inside the block. Fails on the first mismatch.
 */
template <typename Want>
void
ExpectSameOperand(const GatheredA& a, std::int64_t extent, std::int64_t rows,
                  std::int64_t depth, Want want, const std::string& what)
{
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t k = 0; k < depth; ++k) {
            const std::int64_t at = std::int64_t{a.row_off[r]} + a.k_off[k];
            ASSERT_TRUE(at >= 0 && at < extent)
                << what << ": (" << r << ", " << k << ") reads offset " << at
                << " of " << extent;
            const float got = a.base[at];
            const float expected = want(r, k);
            ASSERT_EQ(0, std::memcmp(&got, &expected, sizeof(float)))
                << what << ": (" << r << ", " << k << ") is " << got
                << ", im2col holds " << expected;
        }
    }
}

struct PackCase {
    const char* name;
    Shape input;   // [n, h, w, c]
    Shape filter;  // [kh, kw, c, oc]
    std::int64_t stride;
    Padding padding;
};

void
CheckCase(const PackCase& pc, std::uint64_t seed)
{
    SCOPED_TRACE(pc.name);
    const Conv2DGeometry g =
        ResolveConv2D(pc.input, pc.filter, pc.stride, pc.padding);
    const std::int64_t M = g.batch * g.out_h * g.out_w;
    const std::int64_t K = g.k_h * g.k_w * g.in_c;
    const Tensor x = EdgeTensor(pc.input, seed);
    const Tensor w = EdgeTensor(pc.filter, seed + 1);
    const Tensor gy = EdgeTensor(Shape{g.batch, g.out_h, g.out_w, g.out_c},
                                 seed + 2);
    const float* in = x.data<float>();

    const ConvGather gather(in, g, Pool());
    ExpectSameOperand(
        gather.Forward(), gather.extent(), M, K,
        [&](std::int64_t r, std::int64_t k) {
            return Im2colValue(in, g, r, k);
        },
        "forward operand");
    ExpectSameOperand(
        gather.FilterGrad(), gather.extent(), K, M,
        [&](std::int64_t r, std::int64_t k) {
            return Im2colValue(in, g, k, r);
        },
        "filter-grad operand");

    Tensor want_y(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.out_c});
    GemmPanels(M, g.out_c, K, ElementwisePackA(in, g),
               StridedPackB(w.data<float>(), g.out_c, 1, g.out_c),
               want_y.data<float>(), /*accumulate=*/false, Pool());
    EXPECT_TRUE(SameBytes(want_y, Conv2D(x, w, pc.stride, pc.padding, Pool())))
        << "Conv2D output bits differ";

    Tensor want_gw(DType::kFloat32, pc.filter);
    GemmPanels(K, g.out_c, M, ElementwisePackAT(in, g),
               StridedPackB(gy.data<float>(), g.out_c, 1, g.out_c),
               want_gw.data<float>(), /*accumulate=*/false, Pool());
    EXPECT_TRUE(SameBytes(want_gw,
                          Conv2DBackpropFilter(x, pc.filter, gy, pc.stride,
                                               pc.padding, Pool())))
        << "Conv2DBackpropFilter output bits differ";

    EXPECT_TRUE(SameBitsOrBothNaN(
        PerPixelBackpropInput(pc.input, w, gy, pc.stride, pc.padding, Pool()),
        Conv2DBackpropInput(pc.input, w, gy, pc.stride, pc.padding, Pool())))
        << "Conv2DBackpropInput output bits differ";
}

TEST(ConvLoweringPackOracle, GatheredLoweringMatchesPerElementReference)
{
    const std::vector<PackCase> cases = {
        // K = 360: the first KC block (256 taps) ends inside a 40-wide
        // channel run.
        {"3x3x40 KC split in a channel run", Shape{2, 6, 6, 40},
         Shape{3, 3, 40, 8}, 1, Padding::kSame},
        // out_w 9, M = 4 * 81 = 324 > 256: the filter-gradient KC block
        // ends inside an output row; 81-pixel images also make strips
        // straddle two images.
        {"out_w 9 filter-grad KC split", Shape{4, 9, 9, 3},
         Shape{3, 3, 3, 4}, 1, Padding::kSame},
        // M = 3 * 25 = 75: strips straddle images and the last strip
        // has 3 dead rows; K = 27 leaves 3 dead filter-grad rows.
        {"dead rows, straddling strips", Shape{3, 5, 5, 3},
         Shape{3, 3, 3, 2}, 1, Padding::kSame},
        {"stride 2 SAME, even", Shape{2, 8, 8, 8}, Shape{3, 3, 8, 16}, 2,
         Padding::kSame},
        {"stride 2 SAME, odd", Shape{2, 9, 9, 1}, Shape{3, 3, 1, 4}, 2,
         Padding::kSame},
        {"1x1 stride-2 projection", Shape{2, 8, 8, 8}, Shape{1, 1, 8, 16},
         2, Padding::kSame},
        {"1x1 stride-2 projection, VALID", Shape{2, 7, 7, 8},
         Shape{1, 1, 8, 16}, 2, Padding::kValid},
        {"filter larger than input", Shape{2, 3, 3, 3}, Shape{5, 5, 3, 4},
         1, Padding::kSame},
        {"7x7 filter on a 2x4 input", Shape{3, 2, 4, 1}, Shape{7, 7, 1, 3},
         1, Padding::kSame},
        {"in_c 1, VALID stride 2", Shape{2, 11, 11, 1}, Shape{5, 5, 1, 6}, 2,
         Padding::kValid},
        {"in_c 40, stride 3 SAME", Shape{1, 10, 10, 40}, Shape{3, 3, 40, 5},
         3, Padding::kSame},
        {"non-square filter", Shape{2, 6, 7, 3}, Shape{2, 4, 3, 5}, 2,
         Padding::kSame},
        // K = 360 > KC at both batch sizes.
        {"9x9x40 to 20", Shape{8, 9, 9, 40}, Shape{3, 3, 40, 20}, 1,
         Padding::kSame},
        {"9x9x40 to 20, batch 1", Shape{1, 9, 9, 40}, Shape{3, 3, 40, 20}, 1,
         Padding::kSame},
        // 300 output channels: 19 B strips, the last 12 wide.
        {"7x7x5 to 300, stride 2", Shape{8, 7, 7, 5}, Shape{3, 3, 5, 300}, 2,
         Padding::kSame},
        {"7x7x5 to 300, stride 2, batch 1", Shape{1, 7, 7, 5},
         Shape{3, 3, 5, 300}, 2, Padding::kSame},
        {"stem 32x32x3 to 8, batch 1", Shape{1, 32, 32, 3},
         Shape{3, 3, 3, 8}, 1, Padding::kSame},
        {"3x3 VALID, in_c 3", Shape{2, 8, 9, 3}, Shape{3, 3, 3, 4}, 1,
         Padding::kValid},
    };
    std::uint64_t seed = 9100;
    for (const PackCase& pc : cases) {
        CheckCase(pc, seed += 3);
        if (HasFatalFailure()) {
            return;
        }
    }
}

}  // namespace
}  // namespace fathom::kernels
