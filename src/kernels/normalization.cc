#include "kernels/normalization.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace fathom::kernels {

namespace {

std::pair<std::int64_t, std::int64_t>
RowsChannels(const Shape& s)
{
    if (s.rank() < 1) {
        throw std::invalid_argument("normalization kernels need rank >= 1");
    }
    const std::int64_t c = s.dim(-1);
    return {s.num_elements() / std::max<std::int64_t>(c, 1), c};
}

/**
 * @return x * pow(d, e), skipping the pow where it cannot move the
 * result: for x == ±0, d >= 1 and e <= 0 the pow lies in [0, 1], so
 * the product is x itself. Post-ReLU inputs and max-pool gradients are
 * mostly zeros, and the pow is the kernels' whole cost.
 */
float
ScaleByPow(float x, float d, float e)
{
    return x == 0.0f && d >= 1.0f && e <= 0.0f ? x : x * std::pow(d, e);
}

}  // namespace

Tensor
Lrn(const Tensor& input, const LrnParams& params, parallel::ThreadPool& pool)
{
    const auto [rows, channels] = RowsChannels(input.shape());
    Tensor out(DType::kFloat32, input.shape());
    const float* in = input.data<float>();
    float* o = out.data<float>();
    const std::int64_t r = params.depth_radius;

    pool.ParallelFor(rows, /*grain=*/8, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
            const float* x = in + row * channels;
            float* y = o + row * channels;
            for (std::int64_t i = 0; i < channels; ++i) {
                const std::int64_t j0 = std::max<std::int64_t>(i - r, 0);
                const std::int64_t j1 =
                    std::min<std::int64_t>(i + r, channels - 1);
                float sq = 0.0f;
                for (std::int64_t j = j0; j <= j1; ++j) {
                    sq += x[j] * x[j];
                }
                y[i] = ScaleByPow(x[i], params.bias + params.alpha * sq,
                                  -params.beta);
            }
        }
    });
    return out;
}

Tensor
LrnGrad(const Tensor& input, const Tensor& grad_out, const LrnParams& params,
        parallel::ThreadPool& pool)
{
    const auto [rows, channels] = RowsChannels(input.shape());
    Tensor grad_in = Tensor::Zeros(input.shape());
    const float* in = input.data<float>();
    const float* go = grad_out.data<float>();
    float* gi = grad_in.data<float>();
    const std::int64_t r = params.depth_radius;

    pool.ParallelFor(rows, /*grain=*/8, [&](std::int64_t r0, std::int64_t r1) {
        std::vector<float> denom(static_cast<std::size_t>(channels));
        // term[i] = dy_i * x_i * d_i^(-beta-1): each is read by 2r+1
        // outputs, so its pow is taken once per row, not per reader.
        std::vector<float> term(static_cast<std::size_t>(channels));
        for (std::int64_t row = r0; row < r1; ++row) {
            const float* x = in + row * channels;
            const float* dy = go + row * channels;
            float* dx = gi + row * channels;
            for (std::int64_t i = 0; i < channels; ++i) {
                const std::int64_t j0 = std::max<std::int64_t>(i - r, 0);
                const std::int64_t j1 =
                    std::min<std::int64_t>(i + r, channels - 1);
                float sq = 0.0f;
                for (std::int64_t j = j0; j <= j1; ++j) {
                    sq += x[j] * x[j];
                }
                const float di = params.bias + params.alpha * sq;
                denom[static_cast<std::size_t>(i)] = di;
                term[static_cast<std::size_t>(i)] =
                    ScaleByPow(dy[i] * x[i], di, -params.beta - 1.0f);
            }
            // dL/dx_j = dy_j * d_j^-beta
            //         - 2*alpha*beta*x_j * sum_{i: |i-j|<=r} term_i
            for (std::int64_t j = 0; j < channels; ++j) {
                const float dj = denom[static_cast<std::size_t>(j)];
                float acc = ScaleByPow(dy[j], dj, -params.beta);
                const std::int64_t i0 = std::max<std::int64_t>(j - r, 0);
                const std::int64_t i1 =
                    std::min<std::int64_t>(j + r, channels - 1);
                float cross = 0.0f;
                for (std::int64_t i = i0; i <= i1; ++i) {
                    cross += term[static_cast<std::size_t>(i)];
                }
                acc -= 2.0f * params.alpha * params.beta * x[j] * cross;
                dx[j] = acc;
            }
        }
    });
    return grad_in;
}

BatchNormResult
BatchNorm(const Tensor& input, const Tensor& gamma, const Tensor& beta,
          float epsilon, parallel::ThreadPool& pool)
{
    const auto [rows, channels] = RowsChannels(input.shape());
    if (gamma.num_elements() != channels || beta.num_elements() != channels) {
        throw std::invalid_argument("BatchNorm: gamma/beta must be [channels]");
    }
    BatchNormResult result;
    result.mean = Tensor::Zeros(Shape{channels});
    result.inv_std = Tensor::Zeros(Shape{channels});
    result.output = Tensor(DType::kFloat32, input.shape());

    const float* in = input.data<float>();
    const float* g = gamma.data<float>();
    const float* b = beta.data<float>();
    float* mu = result.mean.data<float>();
    float* istd = result.inv_std.data<float>();
    float* o = result.output.data<float>();

    // Mean/variance accumulate in double: with float accumulators the
    // batch statistics drift once rows x channels gets large (the
    // residual workload's post-conv activations), skewing every
    // normalized output downstream.
    const double inv_rows = 1.0 / static_cast<double>(rows);
    std::vector<double> mean_acc(static_cast<std::size_t>(channels), 0.0);
    std::vector<double> var_acc(static_cast<std::size_t>(channels), 0.0);
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* x = in + row * channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            mean_acc[static_cast<std::size_t>(c)] +=
                static_cast<double>(x[c]);
        }
    }
    for (std::int64_t c = 0; c < channels; ++c) {
        mu[c] = static_cast<float>(mean_acc[static_cast<std::size_t>(c)] *
                                   inv_rows);
    }
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* x = in + row * channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const double d = static_cast<double>(x[c]) -
                             static_cast<double>(mu[c]);
            var_acc[static_cast<std::size_t>(c)] += d * d;
        }
    }
    for (std::int64_t c = 0; c < channels; ++c) {
        istd[c] = static_cast<float>(
            1.0 / std::sqrt(var_acc[static_cast<std::size_t>(c)] * inv_rows +
                            static_cast<double>(epsilon)));
    }

    pool.ParallelFor(rows, /*grain=*/16,
                     [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
            const float* x = in + row * channels;
            float* y = o + row * channels;
            for (std::int64_t c = 0; c < channels; ++c) {
                y[c] = g[c] * (x[c] - mu[c]) * istd[c] + b[c];
            }
        }
    });
    return result;
}

BatchNormGrads
BatchNormGrad(const Tensor& input, const Tensor& gamma, const Tensor& mean,
              const Tensor& inv_std, const Tensor& grad_out,
              parallel::ThreadPool& pool)
{
    const auto [rows, channels] = RowsChannels(input.shape());
    BatchNormGrads grads;
    grads.grad_input = Tensor::Zeros(input.shape());
    grads.grad_gamma = Tensor::Zeros(Shape{channels});
    grads.grad_beta = Tensor::Zeros(Shape{channels});

    const float* in = input.data<float>();
    const float* g = gamma.data<float>();
    const float* mu = mean.data<float>();
    const float* istd = inv_std.data<float>();
    const float* dy = grad_out.data<float>();
    float* dx = grads.grad_input.data<float>();
    float* dg = grads.grad_gamma.data<float>();
    float* db = grads.grad_beta.data<float>();

    // Accumulate sum(dy) and sum(dy * x_hat) per channel, in double
    // (same large-batch precision concern as the forward statistics).
    std::vector<double> sum_dy_acc(static_cast<std::size_t>(channels), 0.0);
    std::vector<double> sum_dy_xhat_acc(static_cast<std::size_t>(channels),
                                        0.0);
    for (std::int64_t row = 0; row < rows; ++row) {
        const float* x = in + row * channels;
        const float* d = dy + row * channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const float xhat = (x[c] - mu[c]) * istd[c];
            sum_dy_acc[static_cast<std::size_t>(c)] +=
                static_cast<double>(d[c]);
            sum_dy_xhat_acc[static_cast<std::size_t>(c)] +=
                static_cast<double>(d[c]) * static_cast<double>(xhat);
        }
    }
    std::vector<float> sum_dy(static_cast<std::size_t>(channels));
    std::vector<float> sum_dy_xhat(static_cast<std::size_t>(channels));
    for (std::int64_t c = 0; c < channels; ++c) {
        sum_dy[static_cast<std::size_t>(c)] =
            static_cast<float>(sum_dy_acc[static_cast<std::size_t>(c)]);
        sum_dy_xhat[static_cast<std::size_t>(c)] =
            static_cast<float>(sum_dy_xhat_acc[static_cast<std::size_t>(c)]);
        dg[c] = sum_dy_xhat[static_cast<std::size_t>(c)];
        db[c] = sum_dy[static_cast<std::size_t>(c)];
    }

    const float inv_rows = 1.0f / static_cast<float>(rows);
    pool.ParallelFor(rows, /*grain=*/16,
                     [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
            const float* x = in + row * channels;
            const float* d = dy + row * channels;
            float* out = dx + row * channels;
            for (std::int64_t c = 0; c < channels; ++c) {
                const float xhat = (x[c] - mu[c]) * istd[c];
                out[c] = g[c] * istd[c] *
                         (d[c] -
                          inv_rows * sum_dy[static_cast<std::size_t>(c)] -
                          xhat * inv_rows *
                              sum_dy_xhat[static_cast<std::size_t>(c)]);
            }
        }
    });
    return grads;
}

}  // namespace fathom::kernels
