/**
 * @file
 * Elementwise unary/binary maps with NumPy-style broadcasting, and the
 * scalar functions of the elementwise ops (docs/internals.md,
 * "Elementwise and reduction kernels"). The paper singles these ops out
 * as the reason seq2seq's profile is heavy on elementwise arithmetic.
 */
#ifndef FATHOM_KERNELS_ELEMENTWISE_H
#define FATHOM_KERNELS_ELEMENTWISE_H

#include <cmath>

#include "kernels/row_walk.h"
#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

namespace fathom::kernels {

/**
 * @return the NumPy broadcast of two shapes.
 * @throws std::invalid_argument if the shapes are incompatible.
 */
Shape BroadcastShape(const Shape& a, const Shape& b);

/** Strides of @p s broadcast to @p out's rank; 0 where it is broadcast. */
std::vector<std::int64_t> BroadcastStrides(const Shape& s, const Shape& out);

/**
 * Applies @p fn elementwise to a float32 tensor.
 *
 * With @p may_alias the output reuses @p input's buffer instead of
 * allocating (caller must have proven the input value dies here). The
 * aliased and non-aliased paths run the identical loop — each element
 * is read before its slot is written — so results are bit-identical.
 */
template <typename Fn>
Tensor
UnaryMap(const Tensor& input, Fn fn, parallel::ThreadPool& pool,
         bool may_alias = false)
{
    Tensor out = (may_alias && input.dtype() == DType::kFloat32)
                     ? input
                     : Tensor(DType::kFloat32, input.shape());
    const float* in = input.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(input.num_elements(), /*grain=*/4096,
                     [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
            o[i] = fn(in[i]);
        }
    });
    return out;
}

/**
 * Applies @p fn elementwise to two float32 tensors with broadcasting,
 * walking the output row by row (see row_walk.h).
 *
 * With @p may_alias the output reuses @p a's buffer when shapes permit
 * (output shape == a's shape, so every element reads a[i] before
 * writing slot i); otherwise the flag is ignored.
 */
template <typename Fn>
Tensor
BinaryMap(const Tensor& a, const Tensor& b, Fn fn,
          parallel::ThreadPool& pool, bool may_alias = false)
{
    const Shape out_shape = BroadcastShape(a.shape(), b.shape());
    Tensor out = (may_alias && a.dtype() == DType::kFloat32 &&
                  b.dtype() == DType::kFloat32 && out_shape == a.shape())
                     ? a
                     : Tensor(DType::kFloat32, out_shape);
    const RowWalk<2> walk(out_shape.dims(),
                          {BroadcastStrides(a.shape(), out_shape),
                           BroadcastStrides(b.shape(), out_shape)});
    const std::int64_t sa = walk.stride(0);
    const std::int64_t sb = walk.stride(1);
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(walk.size(), /*grain=*/4096,
                     [&](std::int64_t i0, std::int64_t i1) {
        walk.ForRange(i0, i1, [&](std::int64_t i, const auto& off,
                                  std::int64_t len) {
            const float* x = pa + off[0];
            const float* y = pb + off[1];
            float* z = o + i;
            if (sa == 1 && sb == 1) {
                for (std::int64_t c = 0; c < len; ++c) {
                    z[c] = fn(x[c], y[c]);
                }
            } else if (sa == 1 && sb == 0) {
                const float yv = *y;
                for (std::int64_t c = 0; c < len; ++c) {
                    z[c] = fn(x[c], yv);
                }
            } else if (sa == 0 && sb == 1) {
                const float xv = *x;
                for (std::int64_t c = 0; c < len; ++c) {
                    z[c] = fn(xv, y[c]);
                }
            } else {
                for (std::int64_t c = 0; c < len; ++c) {
                    z[c] = fn(x[c * sa], y[c * sb]);
                }
            }
        });
    });
    return out;
}

/**
 * Sums a float32 tensor of @p from shape down to @p to shape by
 * reducing over broadcast dimensions — the adjoint of broadcasting,
 * used by gradients of broadcasting binary ops.
 */
Tensor ReduceToShape(const Tensor& from, const Shape& to,
                     parallel::ThreadPool& pool);

/** Scalar kernel signatures: operands, then the op's static params. */
using UnaryScalar = float (*)(float, const float*);
using BinaryScalar = float (*)(float, float, const float*);

// Scalar kernels shared verbatim between the standalone op kernels and
// the FusedElementwise kernel (via the fusion-stage registry): fusion
// replays exactly these functions per element, which is what makes
// fused results bit-identical to the unfused chain. The const float*
// parameter carries static attr values (e.g. Pow's exponent). Being
// inline, they must not be compiled in a file built with -march=native
// (bench_kernels only calls the extern maps): an FMA-contracted copy
// could become the one FusionStage points at.
inline float AddS(float a, float b, const float*) { return a + b; }
inline float SubS(float a, float b, const float*) { return a - b; }
inline float MulS(float a, float b, const float*) { return a * b; }
inline float DivS(float a, float b, const float*) { return a / b; }
inline float NegS(float x, const float*) { return -x; }
inline float ExpS(float x, const float*) { return std::exp(x); }
inline float LogS(float x, const float*) { return std::log(x); }
inline float SqrtS(float x, const float*) { return std::sqrt(x); }
inline float SquareS(float x, const float*) { return x * x; }
inline float ReluS(float x, const float*) { return x > 0.0f ? x : 0.0f; }
inline float SigmoidS(float x, const float*)
{
    return 1.0f / (1.0f + std::exp(-x));
}
inline float TanhS(float x, const float*) { return std::tanh(x); }
inline float PowS(float x, const float* p) { return std::pow(x, p[0]); }
inline float ClipS(float x, const float* p)
{
    return x < p[0] ? p[0] : (x > p[1] ? p[1] : x);
}
inline float ReluGradS(float g, float x, const float*)
{
    return x > 0.0f ? g : 0.0f;
}
inline float SigmoidGradS(float g, float y, const float*)
{
    return g * y * (1.0f - y);
}
inline float TanhGradS(float g, float y, const float*)
{
    return g * (1.0f - y * y);
}
inline float ClipGradS(float g, float x, const float* p)
{
    return (x >= p[0] && x <= p[1]) ? g : 0.0f;
}

/** A scalar function with its static params bound: one type per function. */
template <auto Fn>
struct BindParams {
    const float* params;
    float operator()(auto... x) const { return Fn(x..., params); }
};

// The registered ops' maps: declared here, instantiated once in
// elementwise.cc (built -O3), so every caller runs the same code.
#define FATHOM_UNARY_SCALARS(X)                                              \
    X(NegS) X(ExpS) X(LogS) X(SqrtS) X(SquareS) X(ReluS) X(SigmoidS)         \
    X(TanhS) X(PowS) X(ClipS)
#define FATHOM_BINARY_SCALARS(X)                                             \
    X(AddS) X(SubS) X(MulS) X(DivS) X(ReluGradS) X(SigmoidGradS)             \
    X(TanhGradS) X(ClipGradS)
#define FATHOM_UNARY_MAP(fn)                                                 \
    template Tensor UnaryMap(const Tensor&, BindParams<fn>,                  \
                             parallel::ThreadPool&, bool);
#define FATHOM_BINARY_MAP(fn)                                                \
    template Tensor BinaryMap(const Tensor&, const Tensor&, BindParams<fn>,  \
                              parallel::ThreadPool&, bool);
#define FATHOM_EXTERN_UNARY_MAP(fn) extern FATHOM_UNARY_MAP(fn)
#define FATHOM_EXTERN_BINARY_MAP(fn) extern FATHOM_BINARY_MAP(fn)
FATHOM_UNARY_SCALARS(FATHOM_EXTERN_UNARY_MAP)
FATHOM_BINARY_SCALARS(FATHOM_EXTERN_BINARY_MAP)

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_ELEMENTWISE_H
