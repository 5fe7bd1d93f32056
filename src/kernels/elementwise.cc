#include "kernels/elementwise.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace fathom::kernels {

Shape
BroadcastShape(const Shape& a, const Shape& b)
{
    const int rank = std::max(a.rank(), b.rank());
    std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) {
        // Align trailing dimensions.
        const std::int64_t da =
            (i >= rank - a.rank()) ? a.dim(i - (rank - a.rank())) : 1;
        const std::int64_t db =
            (i >= rank - b.rank()) ? b.dim(i - (rank - b.rank())) : 1;
        if (da != db && da != 1 && db != 1) {
            throw std::invalid_argument("Cannot broadcast " + a.ToString() +
                                        " with " + b.ToString());
        }
        // A 1 stretches to the other extent — including extent 0, so
        // broadcasting against an empty tensor yields an empty result
        // (max() would wrongly produce 1 there).
        dims[static_cast<std::size_t>(i)] = da == 1 ? db : da;
    }
    return Shape(dims);
}

std::vector<std::int64_t>
BroadcastStrides(const Shape& s, const Shape& out)
{
    std::vector<std::int64_t> strides(
        static_cast<std::size_t>(out.rank() - s.rank()), 0);
    const auto own = ContiguousStrides(s.dims());
    for (int i = 0; i < s.rank(); ++i) {
        strides.push_back(s.dim(i) == 1 ? 0 : own[static_cast<std::size_t>(i)]);
    }
    return strides;
}

Tensor
ReduceToShape(const Tensor& from, const Shape& to, parallel::ThreadPool& pool)
{
    if (from.shape() == to) {
        return from;
    }
    const Shape& fs = from.shape();
    if (BroadcastShape(fs, to) != fs) {
        throw std::invalid_argument("ReduceToShape: " + fs.ToString() +
                                    " does not broadcast-reduce to " +
                                    to.ToString());
    }
    // Serial accumulation (scatter pattern); reductions of this kind
    // are small compared to the ops producing their inputs.
    Tensor out = Tensor::Zeros(to);
    AccumulateRows(fs.dims(), BroadcastStrides(to, fs), from.data<float>(),
                   out.data<float>(),
                   [](float acc, float v) { return acc + v; });
    (void)pool;
    return out;
}

FATHOM_UNARY_SCALARS(FATHOM_UNARY_MAP)
FATHOM_BINARY_SCALARS(FATHOM_BINARY_MAP)

}  // namespace fathom::kernels
