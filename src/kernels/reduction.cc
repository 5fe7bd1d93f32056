#include "kernels/reduction.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/row_walk.h"

namespace fathom::kernels {

Tensor
Reduce(const Tensor& input, ReduceOp op, const std::vector<int>& axes,
       bool keep_dims, parallel::ThreadPool& pool)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();

    std::set<int> reduce_axes;
    if (axes.empty()) {
        for (int i = 0; i < rank; ++i) {
            reduce_axes.insert(i);
        }
    } else {
        for (int a : axes) {
            const int norm = a < 0 ? a + rank : a;
            if (norm < 0 || norm >= rank) {
                throw std::invalid_argument("Reduce: axis out of range");
            }
            reduce_axes.insert(norm);
        }
    }

    // Each input element's output cell, via per-axis strides (stride 0
    // on reduced axes).
    std::vector<std::int64_t> out_dims;
    std::vector<std::int64_t> cell_strides(static_cast<std::size_t>(rank), 0);
    std::int64_t stride = 1;
    std::int64_t count = 1;
    for (int i = rank - 1; i >= 0; --i) {
        if (reduce_axes.count(i) == 0) {
            cell_strides[static_cast<std::size_t>(i)] = stride;
            stride *= in_shape.dim(i);
            out_dims.insert(out_dims.begin(), in_shape.dim(i));
        } else {
            count *= in_shape.dim(i);
            if (keep_dims) {
                out_dims.insert(out_dims.begin(), 1);
            }
        }
    }
    const Shape out_shape(out_dims);
    const float* in = input.data<float>();
    (void)pool;
    if (op == ReduceOp::kMax) {
        Tensor out =
            Tensor::Full(out_shape, -std::numeric_limits<float>::infinity());
        AccumulateRows(in_shape.dims(), cell_strides, in, out.data<float>(),
                       NanMax);
        return out;
    }

    // Sum/mean accumulate in double: a float accumulator loses low
    // bits once the running sum dwarfs the addends, which is routine
    // for the million-element activation reductions in vgg/residual.
    std::vector<double> acc(static_cast<std::size_t>(stride), 0.0);
    AccumulateRows(in_shape.dims(), cell_strides, in, acc.data(),
                   [](double sum, float v) {
                       return sum + static_cast<double>(v);
                   });
    const double scale =
        op == ReduceOp::kMean && count > 0 ? 1.0 / count : 1.0;
    Tensor out(DType::kFloat32, out_shape);
    for (std::size_t i = 0; i < acc.size(); ++i) {
        out.data<float>()[i] = static_cast<float>(acc[i] * scale);
    }
    return out;
}

namespace {

/** @return (rows, cols) flattening all but the last dimension. */
std::pair<std::int64_t, std::int64_t>
RowsCols(const Shape& s)
{
    if (s.rank() < 1) {
        throw std::invalid_argument("softmax-family kernels need rank >= 1");
    }
    const std::int64_t cols = s.dim(-1);
    return {s.num_elements() / std::max<std::int64_t>(cols, 1), cols};
}

}  // namespace

Tensor
Softmax(const Tensor& logits, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(logits.shape());
    Tensor out(DType::kFloat32, logits.shape());
    const float* in = logits.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(rows, /*grain=*/4, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            float* orow = o + r * cols;
            float m = -std::numeric_limits<float>::infinity();
            for (std::int64_t c = 0; c < cols; ++c) {
                m = std::max(m, row[c]);
            }
            // Double accumulator: wide softmax rows (vocabulary-sized
            // logits) otherwise lose precision in the normalizer.
            double sum = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] = std::exp(row[c] - m);
                sum += static_cast<double>(orow[c]);
            }
            const float inv = static_cast<float>(1.0 / sum);
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] *= inv;
            }
        }
    });
    return out;
}

Tensor
LogSoftmax(const Tensor& logits, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(logits.shape());
    Tensor out(DType::kFloat32, logits.shape());
    const float* in = logits.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(rows, /*grain=*/4, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            float* orow = o + r * cols;
            float m = -std::numeric_limits<float>::infinity();
            for (std::int64_t c = 0; c < cols; ++c) {
                m = std::max(m, row[c]);
            }
            double sum = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                sum += static_cast<double>(std::exp(row[c] - m));
            }
            const float log_sum = static_cast<float>(std::log(sum)) + m;
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] = row[c] - log_sum;
            }
        }
    });
    return out;
}

Tensor
ArgMaxLastDim(const Tensor& input, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(input.shape());
    std::vector<std::int64_t> out_dims = input.shape().dims();
    out_dims.pop_back();
    Tensor out(DType::kInt32, Shape(out_dims));
    const float* in = input.data<float>();
    std::int32_t* o = out.data<std::int32_t>();
    pool.ParallelFor(rows, /*grain=*/16,
                     [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            std::int64_t best = 0;
            for (std::int64_t c = 1; c < cols; ++c) {
                if (row[c] > row[best]) {
                    best = c;
                }
            }
            o[r] = static_cast<std::int32_t>(best);
        }
    });
    return out;
}

namespace {

/**
 * Tile's output as the index space [m0, d0, m1, d1, ...] (m a multiple,
 * d an input extent; row-major over it is row-major over the output)
 * and the input's strides over it: 0 along every multiple.
 */
struct TiledView {
    std::vector<std::int64_t> dims;
    std::vector<std::int64_t> strides;
    Shape out;
};

TiledView
ViewTiled(const Shape& in, const std::vector<std::int64_t>& multiples,
          const std::string& who)
{
    if (static_cast<int>(multiples.size()) != in.rank()) {
        throw std::invalid_argument(who + ": multiples rank mismatch");
    }
    TiledView view;
    const auto in_strides = ContiguousStrides(in.dims());
    std::vector<std::int64_t> out_dims;
    for (std::size_t i = 0; i < multiples.size(); ++i) {
        if (multiples[i] < 1) {
            throw std::invalid_argument(who + ": multiples must be >= 1");
        }
        view.dims.insert(view.dims.end(), {multiples[i], in.dims()[i]});
        view.strides.insert(view.strides.end(), {0, in_strides[i]});
        out_dims.push_back(multiples[i] * in.dims()[i]);
    }
    view.out = Shape(out_dims);
    return view;
}

}  // namespace

Tensor
Tile(const Tensor& input, const std::vector<std::int64_t>& multiples,
     parallel::ThreadPool& pool)
{
    const TiledView view = ViewTiled(input.shape(), multiples, "Tile");
    Tensor out(DType::kFloat32, view.out);
    CopyStrided(view.dims, input.data<float>(), view.strides,
                out.data<float>(), ContiguousStrides(view.dims), pool);
    return out;
}

Tensor
TileGrad(const Tensor& grad_out, const Shape& input_shape,
         const std::vector<std::int64_t>& multiples,
         parallel::ThreadPool& pool)
{
    const TiledView view = ViewTiled(input_shape, multiples, "TileGrad");
    if (grad_out.shape() != view.out) {
        throw std::invalid_argument("TileGrad: gradient shape mismatch");
    }
    Tensor grad_in = Tensor::Zeros(input_shape);
    AccumulateRows(view.dims, view.strides, grad_out.data<float>(),
                   grad_in.data<float>(),
                   [](float acc, float v) { return acc + v; });
    (void)pool;
    return grad_in;
}

}  // namespace fathom::kernels
