/**
 * @file
 * Loss ops: softmax cross-entropy and CTC.
 *
 * Both are tagged as Optimization-class ops, following the paper's
 * treatment of loss evaluation as part of the training-only
 * optimization machinery (Sec. V-D: "the evaluation of the loss
 * function ... is only computed during the backwards phase").
 */
#include <cmath>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "kernels/ctc.h"
#include "kernels/reduction.h"
#include "ops/common.h"
#include "ops/register.h"

namespace fathom::ops {

using autodiff::GradientRegistry;
using graph::GraphBuilder;
using graph::Node;
using graph::OpClass;
using graph::OpContext;
using graph::OpDef;
using graph::OpRegistry;
using graph::Output;

void
RegisterLossOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    // inputs: (logits [n, c], labels int32 [n]);
    // outputs: (mean loss scalar, d(mean loss)/d(logits) [n, c])
    ops.Register(OpDef{
        "SoftmaxCrossEntropy", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& logits = ctx.input(0);
            const Tensor& labels = ctx.input(1);
            if (logits.shape().rank() != 2) {
                throw std::invalid_argument(
                    "SoftmaxCrossEntropy: logits must be [n, c]");
            }
            const std::int64_t n = logits.shape().dim(0);
            const std::int64_t c = logits.shape().dim(1);
            if (labels.num_elements() != n ||
                labels.dtype() != DType::kInt32) {
                throw std::invalid_argument(
                    "SoftmaxCrossEntropy: labels must be int32 [n]");
            }

            const Tensor log_probs =
                kernels::LogSoftmax(logits, ctx.pool());
            const float* lp = log_probs.data<float>();
            const std::int32_t* y = labels.data<std::int32_t>();

            Tensor grad(DType::kFloat32, logits.shape());
            float* g = grad.data<float>();
            double loss = 0.0;
            const float inv_n = 1.0f / static_cast<float>(n);
            for (std::int64_t i = 0; i < n; ++i) {
                if (y[i] < 0 || y[i] >= c) {
                    throw std::out_of_range(
                        "SoftmaxCrossEntropy: label out of range");
                }
                loss -= static_cast<double>(lp[i * c + y[i]]);
                for (std::int64_t j = 0; j < c; ++j) {
                    // d(mean nll)/d(logit) = (softmax - onehot) / n
                    g[i * c + j] = (std::exp(lp[i * c + j]) -
                                    (j == y[i] ? 1.0f : 0.0f)) *
                                   inv_n;
                }
            }
            ctx.set_output(0, Tensor::Scalar(static_cast<float>(
                                  loss / static_cast<double>(n))));
            ctx.set_output(1, std::move(grad));
        },
        SerialCost(20.0), false});

    grads.Register(
        "SoftmaxCrossEntropy",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            if (g[0].node == -1) {
                // Only the cached-gradient output was consumed; nothing
                // differentiable flows.
                return {std::nullopt, std::nullopt};
            }
            // d loss/d logits = upstream_scalar * cached gradient.
            return {b.Mul(g[0], Output{node.id, 1}), std::nullopt};
        });

    // inputs: (logits [t, c], labels int32 [l]);
    // outputs: (loss scalar, d(loss)/d(logits) [t, c])
    ops.Register(OpDef{
        "CtcLoss", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& labels = ctx.input(1);
            std::vector<std::int32_t> label_vec;
            const std::int32_t* y = labels.data<std::int32_t>();
            for (std::int64_t i = 0; i < labels.num_elements(); ++i) {
                // Negative entries mark padding in fixed-size label
                // tensors and are skipped.
                if (y[i] >= 0) {
                    label_vec.push_back(y[i]);
                }
            }
            auto result = kernels::CtcLoss(
                ctx.input(0), label_vec,
                static_cast<std::int32_t>(ctx.node().attr("blank").AsInt()),
                ctx.pool());
            ctx.set_output(0, Tensor::Scalar(result.loss));
            ctx.set_output(1, std::move(result.grad_logits));
        },
        [](const Node&, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            const std::int64_t t = inputs[0].shape().dim(0);
            const std::int64_t c = inputs[0].shape().dim(1);
            const std::int64_t ext = 2 * inputs[1].num_elements() + 1;
            // log-softmax + two lattice sweeps + posterior accumulation.
            cost.flops = static_cast<double>(t) *
                         (15.0 * static_cast<double>(c) +
                          30.0 * static_cast<double>(ext));
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            cost.parallel_work = 1;  // sequential lattice recursion.
            return cost;
        },
        false});

    grads.Register(
        "CtcLoss",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            if (g[0].node == -1) {
                return {std::nullopt, std::nullopt};
            }
            return {b.Mul(g[0], Output{node.id, 1}), std::nullopt};
        });

    // ---- shape/dtype inference -------------------------------------------

    using graph::verify::InferenceContext;
    using graph::verify::TypeInfo;
    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    shapes.Register("SoftmaxCrossEntropy", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected (logits, labels) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kInt32);
        ctx.ExpectRank(0, 2);
        ctx.set_output(0, TypeInfo::Of(DType::kFloat32, Shape{}));
        TypeInfo grad = TypeInfo::OfDType(DType::kFloat32);
        if (ctx.KnownShape(0)) {
            const Shape& logits = ctx.input(0).shape;
            if (ctx.KnownShape(1) &&
                ctx.input(1).shape.num_elements() != logits.dim(0)) {
                ctx.Fail("labels: expected " +
                         std::to_string(logits.dim(0)) +
                         " elements, got " +
                         std::to_string(ctx.input(1).shape.num_elements()));
            }
            grad.has_shape = true;
            grad.shape = logits;
        }
        ctx.set_output(1, grad);
    });

    shapes.Register("CtcLoss", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected (logits, labels) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kInt32);
        ctx.ExpectRank(0, 2);
        ctx.RequireIntAttr("blank");
        ctx.set_output(0, TypeInfo::Of(DType::kFloat32, Shape{}));
        ctx.set_output(1, ctx.input(0));
    });
}

}  // namespace fathom::ops
