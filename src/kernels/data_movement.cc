#include "kernels/data_movement.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "kernels/row_walk.h"

namespace fathom::kernels {

Tensor
Transpose(const Tensor& input, const std::vector<int>& perm,
          parallel::ThreadPool& pool)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();
    if (static_cast<int>(perm.size()) != rank) {
        throw std::invalid_argument("Transpose: perm rank mismatch");
    }
    {
        std::vector<int> sorted(perm);
        std::sort(sorted.begin(), sorted.end());
        for (int i = 0; i < rank; ++i) {
            if (sorted[static_cast<std::size_t>(i)] != i) {
                throw std::invalid_argument("Transpose: perm is not a permutation");
            }
        }
    }

    std::vector<std::int64_t> out_dims(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) {
        out_dims[static_cast<std::size_t>(i)] =
            in_shape.dim(perm[static_cast<std::size_t>(i)]);
    }
    const Shape out_shape(out_dims);
    Tensor out(input.dtype(), out_shape);

    // Stride of output dimension d within the *input* buffer.
    const auto in_strides = ContiguousStrides(in_shape.dims());
    std::vector<std::int64_t> src_strides(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) {
        src_strides[static_cast<std::size_t>(d)] =
            in_strides[static_cast<std::size_t>(perm[static_cast<std::size_t>(d)])];
    }
    auto copy = [&](const auto* in, auto* o) {
        CopyStrided(out_dims, in, src_strides, o, ContiguousStrides(out_dims),
                    pool);
    };
    if (input.dtype() == DType::kFloat32) {
        copy(input.data<float>(), out.data<float>());
    } else {
        copy(input.data<std::int32_t>(), out.data<std::int32_t>());
    }
    return out;
}

Tensor
Concat(const std::vector<Tensor>& inputs, int axis, parallel::ThreadPool& pool)
{
    if (inputs.empty()) {
        throw std::invalid_argument("Concat: needs at least one input");
    }
    const Shape& first = inputs[0].shape();
    const int rank = first.rank();
    if (axis < 0) {
        axis += rank;
    }
    if (axis < 0 || axis >= rank) {
        throw std::invalid_argument("Concat: axis out of range");
    }

    std::int64_t concat_dim = 0;
    for (const Tensor& t : inputs) {
        if (t.shape().rank() != rank || t.dtype() != inputs[0].dtype()) {
            throw std::invalid_argument("Concat: rank/dtype mismatch");
        }
        for (int d = 0; d < rank; ++d) {
            if (d != axis && t.shape().dim(d) != first.dim(d)) {
                throw std::invalid_argument(
                    "Concat: non-axis dimension mismatch: " +
                    t.shape().ToString() + " vs " + first.ToString());
            }
        }
        concat_dim += t.shape().dim(axis);
    }

    std::vector<std::int64_t> out_dims = first.dims();
    out_dims[static_cast<std::size_t>(axis)] = concat_dim;
    const Shape out_shape(out_dims);
    Tensor out(inputs[0].dtype(), out_shape);

    // View every tensor as [outer, axis_dim * inner] rows of bytes.
    std::int64_t outer = 1;
    for (int d = 0; d < axis; ++d) {
        outer *= first.dim(d);
    }
    std::int64_t inner = 1;
    for (int d = axis + 1; d < rank; ++d) {
        inner *= first.dim(d);
    }
    const std::size_t elem = DTypeSize(inputs[0].dtype());

    char* obase = out.dtype() == DType::kFloat32
                      ? reinterpret_cast<char*>(out.data<float>())
                      : reinterpret_cast<char*>(out.data<std::int32_t>());
    const std::size_t out_row_bytes =
        static_cast<std::size_t>(concat_dim * inner) * elem;

    std::size_t dest_offset = 0;
    for (const Tensor& t : inputs) {
        const char* ibase =
            t.dtype() == DType::kFloat32
                ? reinterpret_cast<const char*>(t.data<float>())
                : reinterpret_cast<const char*>(t.data<std::int32_t>());
        const std::size_t in_row_bytes =
            static_cast<std::size_t>(t.shape().dim(axis) * inner) * elem;
        for (std::int64_t r = 0; r < outer; ++r) {
            std::memcpy(obase + static_cast<std::size_t>(r) * out_row_bytes +
                            dest_offset,
                        ibase + static_cast<std::size_t>(r) * in_row_bytes,
                        in_row_bytes);
        }
        dest_offset += in_row_bytes;
    }
    (void)pool;
    return out;
}

Tensor
Slice(const Tensor& input, const std::vector<std::int64_t>& begin,
      const std::vector<std::int64_t>& size, parallel::ThreadPool& pool)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();
    if (static_cast<int>(begin.size()) != rank ||
        static_cast<int>(size.size()) != rank) {
        throw std::invalid_argument("Slice: begin/size rank mismatch");
    }
    std::vector<std::int64_t> out_dims(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) {
        const std::int64_t b = begin[static_cast<std::size_t>(d)];
        std::int64_t s = size[static_cast<std::size_t>(d)];
        if (s == -1) {
            s = in_shape.dim(d) - b;
        }
        if (b < 0 || s < 0 || b + s > in_shape.dim(d)) {
            throw std::invalid_argument("Slice: out of bounds on axis " +
                                        std::to_string(d));
        }
        out_dims[static_cast<std::size_t>(d)] = s;
    }
    Tensor out(input.dtype(), Shape(out_dims));
    if (out.num_elements() == 0) {
        return out;
    }
    const auto in_strides = ContiguousStrides(in_shape.dims());
    std::int64_t first = 0;
    for (int d = 0; d < rank; ++d) {
        first += begin[static_cast<std::size_t>(d)] *
                 in_strides[static_cast<std::size_t>(d)];
    }
    auto copy = [&](const auto* in, auto* o) {
        CopyStrided(out_dims, in + first, in_strides, o,
                    ContiguousStrides(out_dims), pool);
    };
    if (input.dtype() == DType::kFloat32) {
        copy(input.data<float>(), out.data<float>());
    } else {
        copy(input.data<std::int32_t>(), out.data<std::int32_t>());
    }
    return out;
}

Tensor
Gather(const Tensor& params, const Tensor& indices, parallel::ThreadPool& pool)
{
    if (params.shape().rank() < 1) {
        throw std::invalid_argument("Gather: params must have rank >= 1");
    }
    if (indices.dtype() != DType::kInt32) {
        throw std::invalid_argument("Gather: indices must be int32");
    }
    const std::int64_t vocab = params.shape().dim(0);
    const std::int64_t inner = params.num_elements() / std::max<std::int64_t>(vocab, 1);

    std::vector<std::int64_t> out_dims = indices.shape().dims();
    for (int d = 1; d < params.shape().rank(); ++d) {
        out_dims.push_back(params.shape().dim(d));
    }
    Tensor out(DType::kFloat32, Shape(out_dims));
    const float* p = params.data<float>();
    const std::int32_t* idx = indices.data<std::int32_t>();
    float* o = out.data<float>();
    const std::int64_t n = indices.num_elements();

    pool.ParallelFor(n, /*grain=*/64, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
            const std::int32_t row = idx[i];
            if (row < 0 || row >= vocab) {
                throw std::out_of_range("Gather: index " + std::to_string(row) +
                                        " out of range [0, " +
                                        std::to_string(vocab) + ")");
            }
            std::memcpy(o + i * inner, p + static_cast<std::int64_t>(row) * inner,
                        static_cast<std::size_t>(inner) * sizeof(float));
        }
    });
    return out;
}

Tensor
GatherGrad(const Shape& params_shape, const Tensor& indices,
           const Tensor& grad_out, parallel::ThreadPool& pool)
{
    Tensor grad = Tensor::Zeros(params_shape);
    const std::int64_t vocab = params_shape.dim(0);
    const std::int64_t inner =
        params_shape.num_elements() / std::max<std::int64_t>(vocab, 1);
    const std::int32_t* idx = indices.data<std::int32_t>();
    const float* go = grad_out.data<float>();
    float* g = grad.data<float>();
    const std::int64_t n = indices.num_elements();
    // Serial scatter-add: duplicate indices are common (shared embeddings).
    for (std::int64_t i = 0; i < n; ++i) {
        const std::int32_t row = idx[i];
        if (row < 0 || row >= vocab) {
            throw std::out_of_range("GatherGrad: index out of range");
        }
        float* dst = g + static_cast<std::int64_t>(row) * inner;
        const float* src = go + i * inner;
        for (std::int64_t k = 0; k < inner; ++k) {
            dst[k] += src[k];
        }
    }
    (void)pool;
    return grad;
}

Tensor
OneHot(const Tensor& indices, std::int64_t depth, float on_value,
       float off_value, parallel::ThreadPool& pool)
{
    if (indices.dtype() != DType::kInt32) {
        throw std::invalid_argument("OneHot: indices must be int32");
    }
    std::vector<std::int64_t> out_dims = indices.shape().dims();
    out_dims.push_back(depth);
    Tensor out = Tensor::Full(Shape(out_dims), off_value);
    const std::int32_t* idx = indices.data<std::int32_t>();
    float* o = out.data<float>();
    const std::int64_t n = indices.num_elements();
    for (std::int64_t i = 0; i < n; ++i) {
        if (idx[i] >= 0 && idx[i] < depth) {
            o[i * depth + idx[i]] = on_value;
        }
    }
    (void)pool;
    return out;
}

Tensor
Pad(const Tensor& input,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& paddings,
    parallel::ThreadPool& pool)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();
    if (static_cast<int>(paddings.size()) != rank) {
        throw std::invalid_argument("Pad: paddings rank mismatch");
    }
    std::vector<std::int64_t> out_dims(static_cast<std::size_t>(rank));
    std::vector<std::int64_t> begin(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) {
        const auto& [before, after] = paddings[static_cast<std::size_t>(d)];
        if (before < 0 || after < 0) {
            throw std::invalid_argument("Pad: negative padding");
        }
        out_dims[static_cast<std::size_t>(d)] = in_shape.dim(d) + before + after;
        begin[static_cast<std::size_t>(d)] = before;
    }
    Tensor out = Tensor::Zeros(Shape(out_dims));
    if (input.num_elements() == 0) {
        return out;
    }
    const auto out_strides = ContiguousStrides(out_dims);
    std::int64_t first = 0;
    for (int d = 0; d < rank; ++d) {
        first += begin[static_cast<std::size_t>(d)] *
                 out_strides[static_cast<std::size_t>(d)];
    }
    CopyStrided(in_shape.dims(), input.data<float>(),
                ContiguousStrides(in_shape.dims()), out.data<float>() + first,
                out_strides, pool);
    return out;
}

Tensor
PadGrad(const Tensor& grad_out,
        const std::vector<std::pair<std::int64_t, std::int64_t>>& paddings,
        parallel::ThreadPool& pool)
{
    const int rank = grad_out.shape().rank();
    std::vector<std::int64_t> begin(static_cast<std::size_t>(rank));
    std::vector<std::int64_t> size(static_cast<std::size_t>(rank));
    for (int d = 0; d < rank; ++d) {
        const auto& [before, after] = paddings[static_cast<std::size_t>(d)];
        begin[static_cast<std::size_t>(d)] = before;
        size[static_cast<std::size_t>(d)] =
            grad_out.shape().dim(d) - before - after;
    }
    return Slice(grad_out, begin, size, pool);
}

}  // namespace fathom::kernels
