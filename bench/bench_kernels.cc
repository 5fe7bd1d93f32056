/**
 * @file
 * google-benchmark microbenchmarks for the primitive kernels — the
 * supporting data behind every figure: these are the "heavy
 * operations" whose costs dominate the workload profiles.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "kernels/conv2d.h"
#include "kernels/ctc.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/matmul.h"
#include "kernels/pooling.h"
#include "kernels/reduction.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace {

using namespace fathom;

Tensor
MakeTensor(const Shape& shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(DType::kFloat32, shape);
    rng.FillNormal(&t, 0.0f, 1.0f);
    return t;
}

// ---- GEMM engine sweep -----------------------------------------------------

/**
 * Measures this machine's single-thread f32 FMA peak with a
 * register-resident loop shaped like the engine's 6x16 micro-kernel
 * step. The GEMM benchmarks report their throughput as a fraction of
 * this, so "good" is machine-relative rather than an absolute number.
 */
double
MeasuredPeakGflops()
{
    static const double peak = [] {
#if defined(__GNUC__) || defined(__clang__)
        // Same vector-extension form as the engine's micro-kernel
        // (src/kernels/gemm.cc): a plain scalar triple loop trips
        // GCC's SLP vectorizer into shuffle-bound code and would
        // under-report peak by an order of magnitude. Eight
        // independent accumulator chains cover FMA latency.
        typedef float Vf16 __attribute__((vector_size(sizeof(float) * 16)));
        constexpr int kAcc = 8;
        constexpr int kLanes = 16;
        Vf16 acc[kAcc] = {};
        Vf16 x;
        float y[kAcc];
        for (int j = 0; j < kLanes; ++j) {
            x[j] = 1.0f + 1e-6f * static_cast<float>(j);
        }
        for (int r = 0; r < kAcc; ++r) {
            y[r] = 1.0f - 1e-6f * static_cast<float>(r);
        }
        const auto start = std::chrono::steady_clock::now();
        std::int64_t reps = 0;
        double seconds = 0.0;
        do {
            for (int rep = 0; rep < 16384; ++rep) {
                for (int r = 0; r < kAcc; ++r) {
                    acc[r] += y[r] * x;
                }
            }
            reps += 16384;
            seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        } while (seconds < 0.05);
        benchmark::DoNotOptimize(acc);
        return 2.0 * kAcc * kLanes * static_cast<double>(reps) / seconds *
               1e-9;
#else
        constexpr int kAcc = 8;
        constexpr int kLanes = 16;
        alignas(64) float acc[kAcc][kLanes] = {};
        alignas(64) float x[kLanes];
        float y[kAcc];
        for (int j = 0; j < kLanes; ++j) {
            x[j] = 1.0f + 1e-6f * static_cast<float>(j);
        }
        for (int r = 0; r < kAcc; ++r) {
            y[r] = 1.0f - 1e-6f * static_cast<float>(r);
        }
        const auto start = std::chrono::steady_clock::now();
        std::int64_t reps = 0;
        double seconds = 0.0;
        do {
            for (int rep = 0; rep < 16384; ++rep) {
                for (int r = 0; r < kAcc; ++r) {
                    for (int j = 0; j < kLanes; ++j) {
                        acc[r][j] += y[r] * x[j];
                    }
                }
            }
            reps += 16384;
            seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        } while (seconds < 0.05);
        benchmark::DoNotOptimize(acc);
        return 2.0 * kAcc * kLanes * static_cast<double>(reps) / seconds *
               1e-9;
#endif
    }();
    return peak;
}

void
SetGemmCounters(benchmark::State& state, double flops_per_iter)
{
    const double total = flops_per_iter * static_cast<double>(state.iterations());
    state.counters["gflops"] =
        benchmark::Counter(total * 1e-9, benchmark::Counter::kIsRate);
    state.counters["frac_peak"] = benchmark::Counter(
        total / (MeasuredPeakGflops() * 1e9), benchmark::Counter::kIsRate);
}

/**
 * The pre-engine MatMul inner loop (i-k-j, row-major, with the
 * since-removed zero-operand skip), retained verbatim as the in-repo
 * baseline that quantifies the engine's speedup.
 */
Tensor
NaiveMatMulBaseline(const Tensor& a, const Tensor& b)
{
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    const std::int64_t n = b.shape().dim(1);
    Tensor c = Tensor::Zeros(Shape{m, n});
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* pc = c.data<float>();
    for (std::int64_t i = 0; i < m; ++i) {
        float* crow = pc + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = pa[i * k + kk];
            if (av == 0.0f) {
                continue;
            }
            const float* brow = pb + kk * n;
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] += av * brow[j];
            }
        }
    }
    return c;
}

void
BM_GemmSquare(benchmark::State& state)
{
    const std::int64_t n = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor a = MakeTensor(Shape{n, n}, 1);
    const Tensor b = MakeTensor(Shape{n, n}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::MatMul(a, b, false, false, pool));
    }
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    SetGemmCounters(state, flops);
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

void
BM_GemmPrePRBaseline(benchmark::State& state)
{
    const std::int64_t n = state.range(0);
    const Tensor a = MakeTensor(Shape{n, n}, 1);
    const Tensor b = MakeTensor(Shape{n, n}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(NaiveMatMulBaseline(a, b));
    }
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    SetGemmCounters(state, flops);
}
BENCHMARK(BM_GemmPrePRBaseline)->Arg(256)->Arg(512);

void
BM_GemmTranspose(benchmark::State& state)
{
    const bool ta = state.range(0) != 0;
    const bool tb = state.range(1) != 0;
    constexpr std::int64_t n = 256;
    parallel::ThreadPool pool(1);
    const Tensor a = MakeTensor(Shape{n, n}, 1);
    const Tensor b = MakeTensor(Shape{n, n}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::MatMul(a, b, ta, tb, pool));
    }
    SetGemmCounters(state, 2.0 * static_cast<double>(n) * n * n);
}
BENCHMARK(BM_GemmTranspose)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void
BM_GemmWorkloadShaped(benchmark::State& state)
{
    // (m, k, n) triples the suite actually runs: a batch-4
    // fully-connected layer (skinny M), its weight-gradient product
    // (skinny N), an im2col conv GEMM (tall M, small N), and a
    // recurrent-cell block.
    const std::int64_t m = state.range(0);
    const std::int64_t k = state.range(1);
    const std::int64_t n = state.range(2);
    parallel::ThreadPool pool(1);
    const Tensor a = MakeTensor(Shape{m, k}, 1);
    const Tensor b = MakeTensor(Shape{k, n}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::MatMul(a, b, false, false, pool));
    }
    SetGemmCounters(state,
                    2.0 * static_cast<double>(m) * static_cast<double>(k) *
                        static_cast<double>(n));
}
BENCHMARK(BM_GemmWorkloadShaped)
    ->Args({4, 1024, 256})
    ->Args({1024, 256, 4})
    ->Args({4096, 288, 48})
    ->Args({256, 512, 512});

void
BM_GemmThreadSweep(benchmark::State& state)
{
    const int threads = static_cast<int>(state.range(0));
    parallel::ThreadPool pool(threads);
    const Tensor a = MakeTensor(Shape{512, 512}, 1);
    const Tensor b = MakeTensor(Shape{512, 512}, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::MatMul(a, b, false, false, pool));
    }
    SetGemmCounters(state, 2.0 * 512.0 * 512.0 * 512.0);
}
BENCHMARK(BM_GemmThreadSweep)->Arg(1)->Arg(2)->Arg(4);

/** 2 * M * K * N for the im2col GEMM of one convolution pass. */
double
ConvFlops(const kernels::Conv2DGeometry& g)
{
    return 2.0 * static_cast<double>(g.batch * g.out_h * g.out_w) *
           static_cast<double>(g.k_h * g.k_w * g.in_c) *
           static_cast<double>(g.out_c);
}

void
BM_Conv2D(benchmark::State& state)
{
    const std::int64_t hw = state.range(0);
    const std::int64_t c = state.range(1);
    parallel::ThreadPool pool(1);
    const Tensor input = MakeTensor(Shape{1, hw, hw, c}, 3);
    const Tensor filter = MakeTensor(Shape{3, 3, c, c}, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::Conv2D(
            input, filter, 1, kernels::Padding::kSame, pool));
    }
    SetGemmCounters(state, ConvFlops(kernels::ResolveConv2D(
                               input.shape(), filter.shape(), 1,
                               kernels::Padding::kSame)));
}
BENCHMARK(BM_Conv2D)->Args({16, 8})->Args({32, 8})->Args({32, 16})->Args({64, 16});

void
BM_Conv2DBackpropFilter(benchmark::State& state)
{
    const std::int64_t hw = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor input = MakeTensor(Shape{1, hw, hw, 8}, 5);
    const Shape filter_shape{3, 3, 8, 8};
    const Tensor grad = MakeTensor(Shape{1, hw, hw, 8}, 6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::Conv2DBackpropFilter(
            input, filter_shape, grad, 1, kernels::Padding::kSame, pool));
    }
    SetGemmCounters(state, ConvFlops(kernels::ResolveConv2D(
                               input.shape(), filter_shape, 1,
                               kernels::Padding::kSame)));
}
BENCHMARK(BM_Conv2DBackpropFilter)->Arg(16)->Arg(32);

/**
 * The conv nets' layer shapes, all 3x3 or 1x1 SAME. At batch 8 (the
 * suite's training batch): residual's stem, the first stride-2 3x3 of
 * stage 2 with its 1x1 stride-2 projection, its 8x8 and 4x4 stages
 * (shared with vgg), and vgg's 16x16x8 -> 16 and 2x2 layers. Each runs
 * as forward, input gradient and filter gradient, registered as
 * BM_Conv2D/<name>, BM_Conv2DBackpropInput/<name> and
 * BM_Conv2DBackpropFilter/<name>. The batch-1 rows (a single serving
 * request) run forward only.
 */
struct ConvLayer {
    const char* name;
    std::int64_t batch, hw, in_c, out_c, k, stride;
};
constexpr ConvLayer kConvLayers[] = {
    {"stem_32x32x3_to_8", 8, 32, 3, 8, 3, 1},
    {"32x32x8_to_16_s2", 8, 32, 8, 16, 3, 2},
    {"proj1x1_32x32x8_to_16_s2", 8, 32, 8, 16, 1, 2},
    {"16x16x8_to_16", 8, 16, 8, 16, 3, 1},
    {"8x8x32_to_32", 8, 8, 32, 32, 3, 1},
    {"4x4x64_to_64", 8, 4, 64, 64, 3, 1},
    {"2x2x64_to_64", 8, 2, 64, 64, 3, 1},
    {"stem_32x32x3_to_8_b1", 1, 32, 3, 8, 3, 1},
    {"32x32x8_to_8_b1", 1, 32, 8, 8, 3, 1},
};

enum class ConvPass { kForward, kBackpropInput, kBackpropFilter };

void
BM_ConvLayer(benchmark::State& state, ConvLayer layer, ConvPass pass)
{
    parallel::ThreadPool pool(1);
    const Shape in_shape{layer.batch, layer.hw, layer.hw, layer.in_c};
    const Shape filter_shape{layer.k, layer.k, layer.in_c, layer.out_c};
    const auto g = kernels::ResolveConv2D(in_shape, filter_shape,
                                          layer.stride,
                                          kernels::Padding::kSame);
    const Tensor input = MakeTensor(in_shape, 7);
    const Tensor filter = MakeTensor(filter_shape, 8);
    const Tensor grad =
        MakeTensor(Shape{g.batch, g.out_h, g.out_w, g.out_c}, 9);
    for (auto _ : state) {
        switch (pass) {
        case ConvPass::kForward:
            benchmark::DoNotOptimize(kernels::Conv2D(
                input, filter, layer.stride, kernels::Padding::kSame, pool));
            break;
        case ConvPass::kBackpropInput:
            benchmark::DoNotOptimize(kernels::Conv2DBackpropInput(
                in_shape, filter, grad, layer.stride, kernels::Padding::kSame,
                pool));
            break;
        case ConvPass::kBackpropFilter:
            benchmark::DoNotOptimize(kernels::Conv2DBackpropFilter(
                input, filter_shape, grad, layer.stride,
                kernels::Padding::kSame, pool));
            break;
        }
    }
    SetGemmCounters(state, ConvFlops(g));
}

const bool kConvLayersRegistered = [] {
    const struct {
        const char* family;
        ConvPass pass;
    } passes[] = {{"BM_Conv2D", ConvPass::kForward},
                  {"BM_Conv2DBackpropInput", ConvPass::kBackpropInput},
                  {"BM_Conv2DBackpropFilter", ConvPass::kBackpropFilter}};
    for (const auto& p : passes) {
        for (const ConvLayer& layer : kConvLayers) {
            if (layer.batch == 1 && p.pass != ConvPass::kForward) {
                continue;
            }
            benchmark::RegisterBenchmark(
                (std::string(p.family) + "/" + layer.name).c_str(),
                BM_ConvLayer, layer, p.pass);
        }
    }
    return true;
}();

void
BM_MaxPool(benchmark::State& state)
{
    parallel::ThreadPool pool(1);
    const Tensor input = MakeTensor(Shape{4, 64, 64, 16}, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::MaxPool(input, 2, 2, kernels::Padding::kValid, pool));
    }
}
BENCHMARK(BM_MaxPool);

void
BM_Softmax(benchmark::State& state)
{
    const std::int64_t rows = state.range(0);
    const std::int64_t cols = state.range(1);
    parallel::ThreadPool pool(1);
    const Tensor logits = MakeTensor(Shape{rows, cols}, 8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::Softmax(logits, pool));
    }
}
BENCHMARK(BM_Softmax)->Args({64, 128})->Args({1024, 128})->Args({64, 10000});

void
BM_ElementwiseMulSameShape(benchmark::State& state)
{
    const std::int64_t n = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor a = MakeTensor(Shape{n}, 9);
    const Tensor b = MakeTensor(Shape{n}, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::BinaryMap(
            a, b, kernels::BindParams<kernels::MulS>{nullptr}, pool));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ElementwiseMulSameShape)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_ElementwiseMulBroadcast(benchmark::State& state)
{
    const std::int64_t n = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor a = MakeTensor(Shape{n, 64}, 11);
    const Tensor b = MakeTensor(Shape{64}, 12);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::BinaryMap(
            a, b, kernels::BindParams<kernels::MulS>{nullptr}, pool));
    }
}
BENCHMARK(BM_ElementwiseMulBroadcast)->Arg(64)->Arg(1024);

// ---- conv-net activation shapes ---------------------------------------------
// The elementwise and reduction ops around each conv layer of residual
// and vgg, at batch 8 on a 32x32 NHWC activation with C channels. The
// maps go through the same explicitly instantiated kernels the ops
// registry runs (BindParams of the registered scalar function), not a
// copy compiled with this file's flags.

/** Bias add [8,32,32,C] + [C], the Add after every conv. */
void
BM_BiasAdd(benchmark::State& state)
{
    const std::int64_t c = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor x = MakeTensor(Shape{8, 32, 32, c}, 21);
    const Tensor bias = MakeTensor(Shape{c}, 22);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::BinaryMap(
            x, bias, kernels::BindParams<kernels::AddS>{nullptr}, pool));
    }
    state.SetItemsProcessed(state.iterations() * x.num_elements());
}
BENCHMARK(BM_BiasAdd)->Arg(8)->Arg(64);

/** The bias gradient: SumToShapeOf [8,32,32,C] down to [C]. */
void
BM_BiasGradSumToShape(benchmark::State& state)
{
    const std::int64_t c = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor g = MakeTensor(Shape{8, 32, 32, c}, 23);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::ReduceToShape(g, Shape{c}, pool));
    }
    state.SetItemsProcessed(state.iterations() * g.num_elements());
}
BENCHMARK(BM_BiasGradSumToShape)->Arg(8)->Arg(64);

void
BM_Relu(benchmark::State& state)
{
    const std::int64_t c = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor x = MakeTensor(Shape{8, 32, 32, c}, 24);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::UnaryMap(
            x, kernels::BindParams<kernels::ReluS>{nullptr}, pool));
    }
    state.SetItemsProcessed(state.iterations() * x.num_elements());
}
BENCHMARK(BM_Relu)->Arg(8)->Arg(64);

void
BM_ReluGrad(benchmark::State& state)
{
    const std::int64_t c = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor g = MakeTensor(Shape{8, 32, 32, c}, 25);
    const Tensor x = MakeTensor(Shape{8, 32, 32, c}, 26);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::BinaryMap(
            g, x, kernels::BindParams<kernels::ReluGradS>{nullptr}, pool));
    }
    state.SetItemsProcessed(state.iterations() * g.num_elements());
}
BENCHMARK(BM_ReluGrad)->Arg(8)->Arg(64);

/**
 * The Tile inside ReduceSumGrad for residual's global average pool:
 * the [8,1,1,C] gradient of ReduceMean over axes {1,2} spread back
 * over an 8x8 feature map.
 */
void
BM_ReduceMeanGradTile(benchmark::State& state)
{
    const std::int64_t c = state.range(0);
    parallel::ThreadPool pool(1);
    const Tensor g = MakeTensor(Shape{8, 1, 1, c}, 27);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::Tile(g, {1, 8, 8, 1}, pool));
    }
    state.SetItemsProcessed(state.iterations() * g.num_elements() * 64);
}
BENCHMARK(BM_ReduceMeanGradTile)->Arg(8)->Arg(64);

void
BM_ReduceSumLastAxis(benchmark::State& state)
{
    parallel::ThreadPool pool(1);
    const Tensor t = MakeTensor(Shape{256, 256}, 13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::Reduce(t, kernels::ReduceOp::kSum, {1}, false, pool));
    }
}
BENCHMARK(BM_ReduceSumLastAxis);

void
BM_CtcLoss(benchmark::State& state)
{
    const std::int64_t time = state.range(0);
    const Tensor logits = MakeTensor(Shape{time, 28}, 14);
    std::vector<std::int32_t> labels;
    for (std::int64_t i = 0; i < time / 3; ++i) {
        labels.push_back(static_cast<std::int32_t>(1 + (i % 27)));
    }
    parallel::ThreadPool pool(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kernels::CtcLoss(logits, labels, 0, pool));
    }
}
BENCHMARK(BM_CtcLoss)->Arg(30)->Arg(60)->Arg(120);

void
BM_MatMulThreadSweep(benchmark::State& state)
{
    const int threads = static_cast<int>(state.range(0));
    parallel::ThreadPool pool(threads);
    const Tensor a = MakeTensor(Shape{256, 256}, 15);
    const Tensor b = MakeTensor(Shape{256, 256}, 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kernels::MatMul(a, b, false, false, pool));
    }
}
BENCHMARK(BM_MatMulThreadSweep)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
