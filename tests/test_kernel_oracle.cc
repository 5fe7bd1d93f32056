/**
 * @file
 * Oracle tests for the row-walk kernels: BinaryMap's broadcast path,
 * ReduceToShape, Reduce, Tile and TileGrad must produce exactly the
 * bits of the per-element loops they replaced. Those loops are kept
 * here as the reference: each decodes every element's flat index with
 * one division per dimension and visits elements in flat order. The
 * only change to them is Reduce's max rule, which now propagates NaN
 * (kernels::NanMax) where std::max dropped it.
 *
 * Shapes are random and include empty dimensions and size-1 last
 * dimensions; values include NaN, ±Inf, −0 and denormals. Every input
 * NaN has the same bits, so which operand a NaN result came from never
 * shows in the comparison.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "kernels/elementwise.h"
#include "kernels/reduction.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace fathom::kernels {
namespace {

// ---- the replaced per-element loops ---------------------------------------

std::vector<std::int64_t>
RowMajorStrides(const Shape& s)
{
    std::vector<std::int64_t> strides(static_cast<std::size_t>(s.rank()), 1);
    for (int i = s.rank() - 2; i >= 0; --i) {
        strides[static_cast<std::size_t>(i)] =
            strides[static_cast<std::size_t>(i + 1)] * s.dim(i + 1);
    }
    return strides;
}

/** Flat index -> offset through @p to_strides, by per-dim division. */
std::int64_t
DecodeOffset(std::int64_t flat, const std::vector<std::int64_t>& strides,
             const std::vector<std::int64_t>& to_strides)
{
    std::int64_t rem = flat;
    std::int64_t off = 0;
    for (std::size_t d = 0; d < strides.size(); ++d) {
        const std::int64_t id = rem / strides[d];
        rem -= id * strides[d];
        off += id * to_strides[d];
    }
    return off;
}

Tensor
OracleBinaryMap(const Tensor& a, const Tensor& b, BinaryScalar fn)
{
    const Shape out_shape = BroadcastShape(a.shape(), b.shape());
    Tensor out(DType::kFloat32, out_shape);
    const auto sa = BroadcastStrides(a.shape(), out_shape);
    const auto sb = BroadcastStrides(b.shape(), out_shape);
    const auto so = RowMajorStrides(out_shape);
    for (std::int64_t flat = 0; flat < out_shape.num_elements(); ++flat) {
        out.data<float>()[flat] =
            fn(a.data<float>()[DecodeOffset(flat, so, sa)],
               b.data<float>()[DecodeOffset(flat, so, sb)], nullptr);
    }
    return out;
}

Tensor
OracleReduceToShape(const Tensor& from, const Shape& to)
{
    if (from.shape() == to) {
        return from;
    }
    Tensor out = Tensor::Zeros(to);
    const auto sf = RowMajorStrides(from.shape());
    const auto st = BroadcastStrides(to, from.shape());
    for (std::int64_t flat = 0; flat < from.num_elements(); ++flat) {
        out.data<float>()[DecodeOffset(flat, sf, st)] +=
            from.data<float>()[flat];
    }
    return out;
}

Tensor
OracleReduce(const Tensor& input, ReduceOp op, const std::set<int>& axes,
             bool keep_dims)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();
    std::vector<std::int64_t> out_dims;
    std::vector<std::int64_t> out_strides(static_cast<std::size_t>(rank), 0);
    std::int64_t stride = 1;
    for (int i = rank - 1; i >= 0; --i) {
        if (!axes.count(i)) {
            out_strides[static_cast<std::size_t>(i)] = stride;
            stride *= in_shape.dim(i);
        }
    }
    std::int64_t count = 1;
    for (int i = 0; i < rank; ++i) {
        if (!axes.count(i)) {
            out_dims.push_back(in_shape.dim(i));
        } else {
            count *= in_shape.dim(i);
            if (keep_dims) {
                out_dims.push_back(1);
            }
        }
    }
    Tensor out = Tensor::Full(Shape(out_dims),
                              op == ReduceOp::kMax
                                  ? -std::numeric_limits<float>::infinity()
                                  : 0.0f);
    std::vector<double> acc(static_cast<std::size_t>(out.num_elements()),
                            0.0);
    const auto in_strides = RowMajorStrides(in_shape);
    float* o = out.data<float>();
    for (std::int64_t flat = 0; flat < input.num_elements(); ++flat) {
        const std::int64_t off = DecodeOffset(flat, in_strides, out_strides);
        const float v = input.data<float>()[flat];
        if (op == ReduceOp::kMax) {
            o[off] = NanMax(o[off], v);
        } else {
            acc[static_cast<std::size_t>(off)] += static_cast<double>(v);
        }
    }
    if (op != ReduceOp::kMax) {
        const double scale =
            op == ReduceOp::kMean && count > 0 ? 1.0 / count : 1.0;
        for (std::int64_t i = 0; i < out.num_elements(); ++i) {
            o[i] = static_cast<float>(acc[static_cast<std::size_t>(i)] *
                                      scale);
        }
    }
    return out;
}

/** Output offset -> input offset of Tile, by division and modulo. */
std::int64_t
TileSource(std::int64_t flat, const Shape& in,
           const std::vector<std::int64_t>& in_strides,
           const std::vector<std::int64_t>& out_strides)
{
    std::int64_t rem = flat;
    std::int64_t src = 0;
    for (int d = 0; d < in.rank(); ++d) {
        const std::int64_t od = rem / out_strides[static_cast<std::size_t>(d)];
        rem -= od * out_strides[static_cast<std::size_t>(d)];
        src += (od % in.dim(d)) * in_strides[static_cast<std::size_t>(d)];
    }
    return src;
}

Shape
Tiled(const Shape& in, const std::vector<std::int64_t>& multiples)
{
    std::vector<std::int64_t> dims = in.dims();
    for (std::size_t i = 0; i < dims.size(); ++i) {
        dims[i] *= multiples[i];
    }
    return Shape(dims);
}

Tensor
OracleTile(const Tensor& input, const std::vector<std::int64_t>& multiples)
{
    const Shape out_shape = Tiled(input.shape(), multiples);
    Tensor out(DType::kFloat32, out_shape);
    const auto in_strides = RowMajorStrides(input.shape());
    const auto out_strides = RowMajorStrides(out_shape);
    for (std::int64_t flat = 0; flat < out_shape.num_elements(); ++flat) {
        out.data<float>()[flat] = input.data<float>()[TileSource(
            flat, input.shape(), in_strides, out_strides)];
    }
    return out;
}

Tensor
OracleTileGrad(const Tensor& grad_out, const Shape& input_shape)
{
    Tensor grad_in = Tensor::Zeros(input_shape);
    const auto in_strides = RowMajorStrides(input_shape);
    const auto out_strides = RowMajorStrides(grad_out.shape());
    for (std::int64_t flat = 0; flat < grad_out.num_elements(); ++flat) {
        grad_in.data<float>()[TileSource(flat, input_shape, in_strides,
                                         out_strides)] +=
            grad_out.data<float>()[flat];
    }
    return grad_in;
}

// ---- generators -------------------------------------------------------------

/** Extents biased toward the edge cases: 0, 1 and small odd sizes. */
std::int64_t
RandomExtent(Rng& rng)
{
    static const std::int64_t kExtents[] = {0, 1, 1, 2, 3, 5, 7, 16, 33};
    const auto i = static_cast<std::size_t>(rng.UniformInt(
        static_cast<std::int64_t>(std::size(kExtents))));
    return kExtents[i];
}

/** Redrawn until it holds at most 2^14 elements, so oracles stay fast. */
Shape
RandomShape(Rng& rng, int max_rank)
{
    for (;;) {
        std::vector<std::int64_t> dims(
            static_cast<std::size_t>(rng.UniformInt(max_rank + 1)));
        for (auto& d : dims) {
            d = RandomExtent(rng);
        }
        if (Shape(dims).num_elements() <= (1 << 14)) {
            return Shape(dims);
        }
    }
}

/** Normal values mixed with NaN, ±Inf, ±0 and denormals. */
Tensor
EdgeTensor(const Shape& shape, Rng& rng)
{
    static const float kSpecial[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        0.0f,
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -3.0e-39f,
        1.0e-40f,
    };
    Tensor t(DType::kFloat32, shape);
    for (std::int64_t i = 0; i < t.num_elements(); ++i) {
        const double u = rng.Uniform();
        t.data<float>()[i] =
            u < 0.3 ? kSpecial[static_cast<std::size_t>(rng.UniformInt(
                          static_cast<std::int64_t>(std::size(kSpecial))))]
                    : rng.UniformFloat(-4.0f, 4.0f);
    }
    return t;
}

/** @p s with random dims squashed to 1 and leading dims dropped. */
Shape
BroadcastableTo(const Shape& s, Rng& rng)
{
    std::vector<std::int64_t> dims;
    const int drop = static_cast<int>(rng.UniformInt(s.rank() + 1));
    for (int d = drop; d < s.rank(); ++d) {
        dims.push_back(rng.Uniform() < 0.4 ? 1 : s.dim(d));
    }
    return Shape(dims);
}

/**
 * Bit equality, except that any NaN matches any NaN: IEEE leaves a NaN
 * result's payload and sign open, and on x86 they come from whichever
 * operand the compiler placed first, which is its choice for + and *.
 */
void
ExpectSameBits(const Tensor& expected, const Tensor& actual,
               const std::string& what)
{
    ASSERT_EQ(expected.shape().dims(), actual.shape().dims()) << what;
    for (std::int64_t i = 0; i < expected.num_elements(); ++i) {
        const float want = expected.data<float>()[i];
        const float got = actual.data<float>()[i];
        if (std::isnan(want) && std::isnan(got)) {
            continue;
        }
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
            << what << " at " << i << ": want " << want << ", got " << got;
    }
}

parallel::ThreadPool&
Pool()
{
    // Several workers, so ParallelFor chunks start and end mid-row.
    static parallel::ThreadPool pool(3);
    return pool;
}

constexpr int kTrials = 300;

// ---- the properties -----------------------------------------------------------

TEST(KernelOracleTest, BinaryMapMatchesPerElementLoop)
{
    Rng rng(20260);
    const BinaryScalar fns[] = {AddS, SubS, MulS, DivS, ReluGradS, TanhGradS};
    for (int trial = 0; trial < kTrials; ++trial) {
        Shape big = RandomShape(rng, 4);
        if (trial % 10 == 0) {
            big = Shape{3, 37, 41, 7};  // several ParallelFor chunks.
        }
        Shape small = BroadcastableTo(big, rng);
        if (trial % 7 == 0) {
            small = Shape{};  // rank-0 operand.
        } else if (trial % 7 == 1 && big.rank() >= 1) {
            std::vector<std::int64_t> col = big.dims();  // column broadcast.
            col.back() = 1;
            small = Shape(col);
        }
        const bool swap = trial % 2 == 1;
        const Tensor a = EdgeTensor(swap ? small : big, rng);
        const Tensor b = EdgeTensor(swap ? big : small, rng);
        const BinaryScalar fn = fns[trial % std::size(fns)];
        const std::string what = "trial " + std::to_string(trial) + ": " +
                                 a.shape().ToString() + " op " +
                                 b.shape().ToString();
        const Tensor expected = OracleBinaryMap(a, b, fn);
        const auto bound = [fn](float x, float y) {
            return fn(x, y, nullptr);
        };
        ExpectSameBits(expected, BinaryMap(a, b, bound, Pool()), what);

        // In place on the broadcast path: the output takes over a's
        // buffer when a already has the output's shape.
        if (a.shape() == expected.shape()) {
            const Tensor target = a.Clone();
            const Tensor out =
                BinaryMap(target, b, bound, Pool(), /*may_alias=*/true);
            EXPECT_EQ(out.data<float>(), target.data<float>()) << what;
            ExpectSameBits(expected, out, what + " in place");
        }
    }
}

TEST(KernelOracleTest, RegisteredKernelsMatchPerElementLoop)
{
    // The explicitly instantiated kernels the op registry runs.
    Rng rng(20261);
    for (int trial = 0; trial < kTrials; ++trial) {
        const Shape big = RandomShape(rng, 4);
        const Shape small = BroadcastableTo(big, rng);
        const Tensor a = EdgeTensor(big, rng);
        const Tensor b = EdgeTensor(small, rng);
        const std::string what = "trial " + std::to_string(trial);
        ExpectSameBits(OracleBinaryMap(a, b, AddS),
                       BinaryMap(a, b, BindParams<AddS>{nullptr}, Pool()),
                       what + " Add");
        ExpectSameBits(OracleBinaryMap(b, a, MulS),
                       BinaryMap(b, a, BindParams<MulS>{nullptr}, Pool()),
                       what + " Mul");
        ExpectSameBits(
            OracleBinaryMap(a, b, ReluGradS),
            BinaryMap(a, b, BindParams<ReluGradS>{nullptr}, Pool()),
            what + " ReluGrad");
        const Tensor relu = UnaryMap(a, BindParams<ReluS>{nullptr}, Pool());
        for (std::int64_t i = 0; i < a.num_elements(); ++i) {
            const float want = ReluS(a.data<float>()[i], nullptr);
            EXPECT_EQ(std::memcmp(&want, relu.data<float>() + i, sizeof(float)), 0)
                << what << " Relu at " << i;
        }
    }
}

TEST(KernelOracleTest, ReduceToShapeMatchesPerElementLoop)
{
    Rng rng(20262);
    for (int trial = 0; trial < kTrials; ++trial) {
        const Shape from = RandomShape(rng, 4);
        const Shape to = BroadcastableTo(from, rng);
        const Tensor g = EdgeTensor(from, rng);
        ExpectSameBits(OracleReduceToShape(g, to),
                       ReduceToShape(g, to, Pool()),
                       "trial " + std::to_string(trial) + ": " +
                           from.ToString() + " -> " + to.ToString());
    }
}

TEST(KernelOracleTest, ReduceMatchesPerElementLoop)
{
    Rng rng(20263);
    const ReduceOp ops[] = {ReduceOp::kSum, ReduceOp::kMean, ReduceOp::kMax};
    for (int trial = 0; trial < kTrials; ++trial) {
        const Shape shape = RandomShape(rng, 4);
        std::vector<int> axes;
        std::set<int> axis_set;
        for (int d = 0; d < shape.rank(); ++d) {
            if (rng.Uniform() < 0.5) {
                // Mix positive and negative spellings of an axis.
                axes.push_back(rng.Uniform() < 0.5 ? d : d - shape.rank());
                axis_set.insert(d);
            }
        }
        if (axes.empty()) {
            for (int d = 0; d < shape.rank(); ++d) {
                axis_set.insert(d);
            }
        }
        const bool keep = rng.Uniform() < 0.5;
        const ReduceOp op = ops[trial % 3];
        const Tensor t = EdgeTensor(shape, rng);
        ExpectSameBits(OracleReduce(t, op, axis_set, keep),
                       Reduce(t, op, axes, keep, Pool()),
                       "trial " + std::to_string(trial) + ": " +
                           shape.ToString() + " op " +
                           std::to_string(trial % 3));
    }
}

TEST(KernelOracleTest, TileAndTileGradMatchPerElementLoop)
{
    Rng rng(20264);
    for (int trial = 0; trial < kTrials; ++trial) {
        const Shape shape = RandomShape(rng, 4);
        std::vector<std::int64_t> multiples;
        for (int d = 0; d < shape.rank(); ++d) {
            multiples.push_back(1 + rng.UniformInt(3));
        }
        const std::string what = "trial " + std::to_string(trial) + ": " +
                                 shape.ToString();
        const Tensor x = EdgeTensor(shape, rng);
        ExpectSameBits(OracleTile(x, multiples), Tile(x, multiples, Pool()),
                       what + " Tile");
        const Tensor g = EdgeTensor(Tiled(shape, multiples), rng);
        ExpectSameBits(OracleTileGrad(g, shape),
                       TileGrad(g, shape, multiples, Pool()),
                       what + " TileGrad");
    }
}

}  // namespace
}  // namespace fathom::kernels
