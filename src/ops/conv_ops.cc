/**
 * @file
 * Convolution-class ops: Conv2D (+ both backprops), pooling, LRN, and
 * batch normalization.
 */
#include <cmath>
#include <vector>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/normalization.h"
#include "kernels/pooling.h"
#include "ops/common.h"
#include "ops/register.h"

namespace fathom::ops {

using autodiff::GradientRegistry;
using graph::AttrValue;
using graph::GraphBuilder;
using graph::Node;
using graph::OpClass;
using graph::OpContext;
using graph::OpDef;
using graph::OpRegistry;
using graph::Output;

namespace {

/** FLOPs of one convolution sweep given resolved geometry. */
double
ConvFlops(const kernels::Conv2DGeometry& g)
{
    return 2.0 * static_cast<double>(g.batch) * static_cast<double>(g.out_h) *
           static_cast<double>(g.out_w) * static_cast<double>(g.k_h) *
           static_cast<double>(g.k_w) * static_cast<double>(g.in_c) *
           static_cast<double>(g.out_c);
}

kernels::LrnParams
LrnParamsFromNode(const Node& node)
{
    kernels::LrnParams p;
    p.depth_radius = node.attr_int("depth_radius", 2);
    p.bias = node.attr_float("bias", 1.0f);
    p.alpha = node.attr_float("alpha", 1e-4f);
    p.beta = node.attr_float("beta", 0.75f);
    return p;
}

}  // namespace

void
RegisterConvOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    ops.Register(OpDef{
        "Conv2D", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::Conv2D(
                       ctx.input(0), ctx.input(1),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        [](const Node& node, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            const auto g = kernels::ResolveConv2D(
                inputs[0].shape(), inputs[1].shape(),
                node.attr("stride").AsInt(),
                ParsePadding(node.attr("padding").AsString()));
            graph::OpCost cost;
            cost.flops = ConvFlops(g);
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            // im2col GEMM: [batch*oh*ow, K] x [K, oc] in 2-D tiles.
            cost.parallel_work = kernels::GemmTileCount(
                g.batch * g.out_h * g.out_w, g.out_c);
            return cost;
        },
        false});

    // inputs: (input_ref_for_shape, filter, grad_out)
    ops.Register(OpDef{
        "Conv2DBackpropInput", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::Conv2DBackpropInput(
                       ctx.input(0).shape(), ctx.input(1), ctx.input(2),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        [](const Node& node, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            const auto g = kernels::ResolveConv2D(
                inputs[0].shape(), inputs[1].shape(),
                node.attr("stride").AsInt(),
                ParsePadding(node.attr("padding").AsString()));
            graph::OpCost cost;
            cost.flops = ConvFlops(g);
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            // Dominated by the column GEMM [batch*oh*ow, oc] x [oc, K].
            cost.parallel_work = kernels::GemmTileCount(
                g.batch * g.out_h * g.out_w, g.k_h * g.k_w * g.in_c);
            return cost;
        },
        false});

    // inputs: (input, filter_ref_for_shape, grad_out)
    ops.Register(OpDef{
        "Conv2DBackpropFilter", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::Conv2DBackpropFilter(
                       ctx.input(0), ctx.input(1).shape(), ctx.input(2),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        [](const Node& node, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            const auto g = kernels::ResolveConv2D(
                inputs[0].shape(), inputs[1].shape(),
                node.attr("stride").AsInt(),
                ParsePadding(node.attr("padding").AsString()));
            graph::OpCost cost;
            cost.flops = ConvFlops(g);
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            // One GEMM over the whole batch: [K, batch*oh*ow] x
            // [batch*oh*ow, oc] in 2-D tiles.
            cost.parallel_work = kernels::GemmTileCount(
                g.k_h * g.k_w * g.in_c, g.out_c);
            return cost;
        },
        false});

    grads.Register(
        "Conv2D",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output input = node.inputs[0];
            const Output filter = node.inputs[1];
            std::map<std::string, AttrValue> attrs = {
                {"stride", node.attr("stride")},
                {"padding", node.attr("padding")}};
            const Output gi =
                b.AddOp("conv2d_back_input", "Conv2DBackpropInput",
                        {input, filter, g[0]}, attrs);
            const Output gf =
                b.AddOp("conv2d_back_filter", "Conv2DBackpropFilter",
                        {input, filter, g[0]}, attrs);
            return {gi, gf};
        });

    // ---- pooling ---------------------------------------------------------

    auto pool_cost = [](const Node& node, graph::OpInputs inputs,
                        const std::vector<Tensor>& outputs) {
        const auto g = kernels::ResolvePool(
            inputs[0].shape(), node.attr("window").AsInt(),
            node.attr("stride").AsInt(),
            ParsePadding(node.attr("padding").AsString()));
        graph::OpCost cost;
        cost.flops = static_cast<double>(g.batch * g.out_h * g.out_w *
                                         g.channels * g.window * g.window);
        cost.bytes = BytesOf(inputs) + BytesOf(outputs);
        cost.parallel_work = g.batch * g.out_h;
        return cost;
    };

    ops.Register(OpDef{
        "MaxPool", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::MaxPool(
                       ctx.input(0), ctx.node().attr("window").AsInt(),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        pool_cost, false});

    ops.Register(OpDef{
        "AvgPool", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::AvgPool(
                       ctx.input(0), ctx.node().attr("window").AsInt(),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        pool_cost, false});

    // inputs: (input, grad_out)
    ops.Register(OpDef{
        "MaxPoolGrad", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::MaxPoolGrad(
                       ctx.input(0), ctx.input(1),
                       ctx.node().attr("window").AsInt(),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        SerialCost(2.0), false});

    // inputs: (input_ref_for_shape, grad_out)
    ops.Register(OpDef{
        "AvgPoolGrad", OpClass::kConvolution,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::AvgPoolGrad(
                       ctx.input(0).shape(), ctx.input(1),
                       ctx.node().attr("window").AsInt(),
                       ctx.node().attr("stride").AsInt(),
                       ParsePadding(ctx.node().attr("padding").AsString()),
                       ctx.pool()));
        },
        SerialCost(2.0), false});

    auto pool_grad = [](const char* grad_op) {
        return [grad_op](GraphBuilder& b, const Node& node,
                         const std::vector<Output>& g)
                   -> std::vector<std::optional<Output>> {
            std::map<std::string, AttrValue> attrs = {
                {"window", node.attr("window")},
                {"stride", node.attr("stride")},
                {"padding", node.attr("padding")}};
            return {b.AddOp("pool_grad", grad_op, {node.inputs[0], g[0]},
                            attrs)};
        };
    };
    grads.Register("MaxPool", pool_grad("MaxPoolGrad"));
    grads.Register("AvgPool", pool_grad("AvgPoolGrad"));

    // ---- local response normalization -------------------------------------

    ops.Register(OpDef{
        "Lrn", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::Lrn(ctx.input(0),
                                           LrnParamsFromNode(ctx.node()),
                                           ctx.pool()));
        },
        [](const Node& node, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            const double window =
                2.0 * static_cast<double>(node.attr_int("depth_radius", 2)) +
                1.0;
            cost.flops = (window * 2.0 + 20.0) *
                         static_cast<double>(inputs[0].num_elements());
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            const Shape& s = inputs[0].shape();
            cost.parallel_work = s.num_elements() / s.dim(-1);
            return cost;
        },
        false});

    // inputs: (input, grad_out)
    ops.Register(OpDef{
        "LrnGrad", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::LrnGrad(ctx.input(0), ctx.input(1),
                                               LrnParamsFromNode(ctx.node()),
                                               ctx.pool()));
        },
        SerialCost(40.0), false});

    grads.Register(
        "Lrn",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("lrn_grad", "LrnGrad", {node.inputs[0], g[0]},
                            node.attrs)};
        });

    // ---- batch normalization ----------------------------------------------

    // inputs: (x, gamma, beta); outputs: (y, mean, inv_std)
    ops.Register(OpDef{
        "BatchNorm", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            auto result = kernels::BatchNorm(
                ctx.input(0), ctx.input(1), ctx.input(2),
                ctx.node().attr_float("epsilon", 1e-5f), ctx.pool());
            ctx.set_output(0, std::move(result.output));
            ctx.set_output(1, std::move(result.mean));
            ctx.set_output(2, std::move(result.inv_std));
        },
        [](const Node&, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            cost.flops = 8.0 * static_cast<double>(inputs[0].num_elements());
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            const Shape& s = inputs[0].shape();
            cost.parallel_work = s.num_elements() / s.dim(-1);
            return cost;
        },
        false});

    // inputs: (x, gamma, beta, mean, var); inference-mode normalization
    // with *running* statistics instead of batch statistics.
    ops.Register(OpDef{
        "BatchNormInference", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            const Tensor& x = ctx.input(0);
            const Tensor& gamma = ctx.input(1);
            const Tensor& beta = ctx.input(2);
            const Tensor& mean = ctx.input(3);
            const Tensor& var = ctx.input(4);
            const float eps = ctx.node().attr_float("epsilon", 1e-5f);
            const std::int64_t channels = x.shape().dim(-1);
            if (gamma.num_elements() != channels ||
                beta.num_elements() != channels ||
                mean.num_elements() != channels ||
                var.num_elements() != channels) {
                throw std::invalid_argument(
                    "BatchNormInference: per-channel params must be "
                    "[channels]");
            }
            Tensor out(DType::kFloat32, x.shape());
            const std::int64_t rows = x.num_elements() / channels;
            const float* xp = x.data<float>();
            const float* g = gamma.data<float>();
            const float* bt = beta.data<float>();
            const float* mu = mean.data<float>();
            const float* v = var.data<float>();
            float* o = out.data<float>();
            std::vector<float> scale(static_cast<std::size_t>(channels));
            std::vector<float> shift(static_cast<std::size_t>(channels));
            for (std::int64_t c = 0; c < channels; ++c) {
                const float inv = 1.0f / std::sqrt(v[c] + eps);
                scale[static_cast<std::size_t>(c)] = g[c] * inv;
                shift[static_cast<std::size_t>(c)] =
                    bt[c] - mu[c] * g[c] * inv;
            }
            ctx.pool().ParallelFor(
                rows, /*grain=*/64,
                [&](std::int64_t r0, std::int64_t r1) {
                    for (std::int64_t r = r0; r < r1; ++r) {
                        for (std::int64_t c = 0; c < channels; ++c) {
                            o[r * channels + c] =
                                xp[r * channels + c] *
                                    scale[static_cast<std::size_t>(c)] +
                                shift[static_cast<std::size_t>(c)];
                        }
                    }
                });
            ctx.set_output(0, std::move(out));
        },
        ElementwiseCost(2.0), false});

    // inputs: (x, gamma, mean, inv_std, grad_y);
    // outputs: (grad_x, grad_gamma, grad_beta)
    ops.Register(OpDef{
        "BatchNormGrad", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            auto result = kernels::BatchNormGrad(
                ctx.input(0), ctx.input(1), ctx.input(2), ctx.input(3),
                ctx.input(4), ctx.pool());
            ctx.set_output(0, std::move(result.grad_input));
            ctx.set_output(1, std::move(result.grad_gamma));
            ctx.set_output(2, std::move(result.grad_beta));
        },
        SerialCost(10.0), false});

    grads.Register(
        "BatchNorm",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            if (g[1].node != -1 || g[2].node != -1) {
                throw std::logic_error(
                    "BatchNorm: gradients through batch statistics outputs "
                    "are not supported");
            }
            const graph::NodeId id = b.AddNode(
                "batch_norm_grad", "BatchNormGrad",
                {node.inputs[0], node.inputs[1], Output{node.id, 1},
                 Output{node.id, 2}, g[0]},
                {}, /*num_outputs=*/3);
            return {Output{id, 0}, Output{id, 1}, Output{id, 2}};
        });

    // ---- shape/dtype inference -------------------------------------------

    using graph::verify::InferenceContext;
    using graph::verify::TypeInfo;
    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    // Conv attr schema: stride + padding string, resolved through the
    // same kernels::ResolveConv2D the kernel itself uses, so the static
    // check and the runtime geometry can never disagree.
    auto conv_geometry = [](InferenceContext& ctx, const Shape& input,
                            const Shape& filter) {
        try {
            return kernels::ResolveConv2D(
                input, filter, ctx.RequireIntAttr("stride"),
                ParsePadding(ctx.RequireStringAttr("padding")));
        } catch (const graph::verify::InferenceError&) {
            throw;
        } catch (const std::exception& e) {
            ctx.Fail(e.what());
        }
    };

    shapes.Register("Conv2D", [conv_geometry](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected 2 inputs (input, filter), got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kFloat32);
        ctx.ExpectRank(0, 4);
        ctx.ExpectRank(1, 4);
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
            const auto g = conv_geometry(ctx, ctx.input(0).shape,
                                         ctx.input(1).shape);
            out.has_shape = true;
            out.shape = Shape{g.batch, g.out_h, g.out_w, g.out_c};
        }
        ctx.set_output(0, out);
    });

    shapes.Register(
        "Conv2DBackpropInput", [conv_geometry](InferenceContext& ctx) {
            if (ctx.num_inputs() != 3) {
                ctx.Fail("expected 3 inputs (input ref, filter, grad), "
                         "got " +
                         std::to_string(ctx.num_inputs()));
            }
            for (int i = 0; i < 3; ++i) {
                ctx.ExpectDType(i, DType::kFloat32);
                ctx.ExpectRank(i, 4);
            }
            if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
                const auto g = conv_geometry(ctx, ctx.input(0).shape,
                                             ctx.input(1).shape);
                const Shape expect{g.batch, g.out_h, g.out_w, g.out_c};
                if (ctx.KnownShape(2) && ctx.input(2).shape != expect) {
                    ctx.Fail("grad shape: expected " + expect.ToString() +
                             ", got " + ctx.input(2).shape.ToString());
                }
            }
            ctx.set_output(0, ctx.input(0));
        });

    shapes.Register(
        "Conv2DBackpropFilter", [conv_geometry](InferenceContext& ctx) {
            if (ctx.num_inputs() != 3) {
                ctx.Fail("expected 3 inputs (input, filter ref, grad), "
                         "got " +
                         std::to_string(ctx.num_inputs()));
            }
            for (int i = 0; i < 3; ++i) {
                ctx.ExpectDType(i, DType::kFloat32);
                ctx.ExpectRank(i, 4);
            }
            if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
                conv_geometry(ctx, ctx.input(0).shape, ctx.input(1).shape);
            }
            ctx.set_output(0, ctx.input(1));
        });

    auto pool_geometry = [](InferenceContext& ctx, const Shape& input) {
        try {
            return kernels::ResolvePool(
                input, ctx.RequireIntAttr("window"),
                ctx.RequireIntAttr("stride"),
                ParsePadding(ctx.RequireStringAttr("padding")));
        } catch (const graph::verify::InferenceError&) {
            throw;
        } catch (const std::exception& e) {
            ctx.Fail(e.what());
        }
    };

    auto pool_shape = [pool_geometry](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectRank(0, 4);
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        if (ctx.KnownShape(0)) {
            const auto g = pool_geometry(ctx, ctx.input(0).shape);
            out.has_shape = true;
            out.shape = Shape{g.batch, g.out_h, g.out_w, g.channels};
        }
        ctx.set_output(0, out);
    };
    shapes.Register("MaxPool", pool_shape);
    shapes.Register("AvgPool", pool_shape);

    auto pool_grad_shape = [pool_geometry](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected 2 inputs (input, grad), got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kFloat32);
        ctx.ExpectRank(0, 4);
        if (ctx.KnownShape(0)) {
            const auto g = pool_geometry(ctx, ctx.input(0).shape);
            const Shape expect{g.batch, g.out_h, g.out_w, g.channels};
            if (ctx.KnownShape(1) && ctx.input(1).shape != expect) {
                ctx.Fail("grad shape: expected " + expect.ToString() +
                         ", got " + ctx.input(1).shape.ToString());
            }
        }
        ctx.set_output(0, ctx.input(0));
    };
    shapes.Register("MaxPoolGrad", pool_grad_shape);
    shapes.Register("AvgPoolGrad", pool_grad_shape);

    shapes.Register("Lrn", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.set_output(0, ctx.input(0));
    });
    shapes.Register("LrnGrad", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected 2 inputs (input, grad), got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kFloat32);
        ctx.ExpectSameShape(0, 1);
        ctx.set_output(0, ctx.input(0));
    });

    // Per-channel parameter vectors must hold exactly x.dim(-1) values.
    auto expect_channel_param = [](InferenceContext& ctx, int i,
                                   std::int64_t channels) {
        ctx.ExpectDType(i, DType::kFloat32);
        if (ctx.KnownShape(i) &&
            ctx.input(i).shape.num_elements() != channels) {
            ctx.Fail("input " + std::to_string(i) +
                     " per-channel parameter: expected " +
                     std::to_string(channels) + " elements, got " +
                     std::to_string(ctx.input(i).shape.num_elements()) +
                     " (shape " + ctx.input(i).shape.ToString() + ")");
        }
    };

    shapes.Register(
        "BatchNorm", [expect_channel_param](InferenceContext& ctx) {
            if (ctx.num_inputs() != 3) {
                ctx.Fail("expected 3 inputs (x, gamma, beta), got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            ctx.set_output(0, ctx.input(0));
            if (ctx.KnownShape(0)) {
                if (ctx.input(0).shape.rank() < 1) {
                    ctx.Fail("x must have rank >= 1 (channels-last)");
                }
                const std::int64_t c = ctx.input(0).shape.dim(-1);
                expect_channel_param(ctx, 1, c);
                expect_channel_param(ctx, 2, c);
                ctx.set_output(1, TypeInfo::Of(DType::kFloat32, Shape{c}));
                ctx.set_output(2, TypeInfo::Of(DType::kFloat32, Shape{c}));
            } else {
                ctx.set_output(1, TypeInfo::OfDType(DType::kFloat32));
                ctx.set_output(2, TypeInfo::OfDType(DType::kFloat32));
            }
        });

    shapes.Register(
        "BatchNormInference", [expect_channel_param](InferenceContext& ctx) {
            if (ctx.num_inputs() != 5) {
                ctx.Fail("expected 5 inputs (x, gamma, beta, mean, var), "
                         "got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            if (ctx.KnownShape(0)) {
                if (ctx.input(0).shape.rank() < 1) {
                    ctx.Fail("x must have rank >= 1 (channels-last)");
                }
                const std::int64_t c = ctx.input(0).shape.dim(-1);
                for (int i = 1; i < 5; ++i) {
                    expect_channel_param(ctx, i, c);
                }
            }
            ctx.set_output(0, ctx.input(0));
        });

    shapes.Register(
        "BatchNormGrad", [expect_channel_param](InferenceContext& ctx) {
            if (ctx.num_inputs() != 5) {
                ctx.Fail("expected 5 inputs (x, gamma, mean, inv_std, "
                         "grad_y), got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            ctx.ExpectSameShape(0, 4);
            ctx.set_output(0, ctx.input(0));
            if (ctx.KnownShape(0)) {
                if (ctx.input(0).shape.rank() < 1) {
                    ctx.Fail("x must have rank >= 1 (channels-last)");
                }
                const std::int64_t c = ctx.input(0).shape.dim(-1);
                for (int i = 1; i < 4; ++i) {
                    expect_channel_param(ctx, i, c);
                }
                ctx.set_output(1, TypeInfo::Of(DType::kFloat32, Shape{c}));
                ctx.set_output(2, TypeInfo::Of(DType::kFloat32, Shape{c}));
            } else {
                ctx.set_output(1, TypeInfo::OfDType(DType::kFloat32));
                ctx.set_output(2, TypeInfo::OfDType(DType::kFloat32));
            }
        });
}

}  // namespace fathom::ops
