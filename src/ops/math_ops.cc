/**
 * @file
 * Elementwise arithmetic ops and their gradients.
 */
#include <type_traits>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/rewrite/fusion_stages.h"
#include "graph/verify/shape_inference.h"
#include "kernels/elementwise.h"
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

using graph::rewrite::FusionStage;
using graph::rewrite::FusionStageRegistry;
using graph::verify::InferenceContext;
using graph::verify::ShapeFnRegistry;
using graph::verify::TypeInfo;

/**
 * Shape fn shared by the float elementwise ops: @p arity float32
 * inputs, output their NumPy broadcast (a unary's mirrors its input);
 * @p param_attrs are the required static float attrs (e.g. Pow's
 * exponent).
 */
void
RegisterElementwiseShapeFn(const std::string& name, int arity,
                           std::vector<std::string> param_attrs)
{
    ShapeFnRegistry::Global().Register(
        name, [arity, param_attrs](InferenceContext& ctx) {
            if (ctx.num_inputs() != arity) {
                ctx.Fail("expected " + std::to_string(arity) +
                         (arity == 1 ? " input, got " : " inputs, got ") +
                         std::to_string(ctx.num_inputs()));
            }
            for (const std::string& a : param_attrs) {
                ctx.RequireFloatAttr(a);
            }
            bool known = true;
            for (int i = 0; i < arity; ++i) {
                ctx.ExpectDType(i, DType::kFloat32);
                known = known && ctx.KnownShape(i);
            }
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (known) {
                try {
                    Shape shape = ctx.input(0).shape;
                    for (int i = 1; i < arity; ++i) {
                        shape = graph::verify::BroadcastShapes(
                            shape, ctx.input(i).shape);
                    }
                    out = TypeInfo::Of(DType::kFloat32, shape);
                } catch (const std::exception& e) {
                    ctx.Fail(e.what());
                }
            }
            ctx.set_output(0, out);
        });
}

/** Reads @p attrs off the node into a flat param vector. */
std::vector<float>
AttrParams(OpContext& ctx, const std::vector<std::string>& attrs)
{
    std::vector<float> params;
    params.reserve(attrs.size());
    for (const std::string& a : attrs) {
        params.push_back(ctx.node().attr(a).AsFloat());
    }
    return params;
}

/**
 * Registers an elementwise op on scalar function @p Fn (a unary, or a
 * broadcasting binary) and its fusion stage. All elementwise ops
 * support in-place output into input 0 when granted.
 */
template <auto Fn>
void
RegisterElementwise(const std::string& name, double flops_per_elem,
                    std::vector<std::string> param_attrs = {})
{
    constexpr bool kBinary =
        std::is_same_v<decltype(Fn), kernels::BinaryScalar>;
    OpRegistry::Global().Register(OpDef{
        name, OpClass::kElementwise,
        [param_attrs](OpContext& ctx) {
            const std::vector<float> params = AttrParams(ctx, param_attrs);
            const kernels::BindParams<Fn> fn{params.data()};
            if constexpr (kBinary) {
                ctx.set_output(0, kernels::BinaryMap(
                                      ctx.input(0), ctx.input(1), fn,
                                      ctx.pool(), ctx.may_alias_input()));
            } else {
                ctx.set_output(0, kernels::UnaryMap(ctx.input(0), fn,
                                                    ctx.pool(),
                                                    ctx.may_alias_input()));
            }
        },
        ElementwiseCost(flops_per_elem), false, /*supports_inplace=*/true});
    RegisterElementwiseShapeFn(name, kBinary ? 2 : 1, param_attrs);
    FusionStage stage{kBinary ? 2 : 1, nullptr, nullptr,
                      std::move(param_attrs), flops_per_elem};
    if constexpr (kBinary) {
        stage.binary = Fn;
    } else {
        stage.unary = Fn;
    }
    FusionStageRegistry::Global().Register(name, std::move(stage));
}

/** Reduces @p grad to the broadcast-input's shape. */
Output
SumTo(GraphBuilder& b, Output grad, Output ref)
{
    return b.AddOp("sum_to", "SumToShapeOf", {grad, ref});
}

}  // namespace

void
RegisterMathOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    RegisterElementwise<kernels::AddS>("Add", 1.0);
    RegisterElementwise<kernels::SubS>("Sub", 1.0);
    RegisterElementwise<kernels::MulS>("Mul", 1.0);
    RegisterElementwise<kernels::DivS>("Div", 4.0);

    RegisterElementwise<kernels::NegS>("Neg", 1.0);
    RegisterElementwise<kernels::ExpS>("Exp", 10.0);
    RegisterElementwise<kernels::LogS>("Log", 10.0);
    RegisterElementwise<kernels::SqrtS>("Sqrt", 4.0);
    RegisterElementwise<kernels::SquareS>("Square", 1.0);
    RegisterElementwise<kernels::ReluS>("Relu", 1.0);
    RegisterElementwise<kernels::SigmoidS>("Sigmoid", 12.0);
    RegisterElementwise<kernels::TanhS>("Tanh", 12.0);

    RegisterElementwise<kernels::PowS>("Pow", 20.0, {"exponent"});
    RegisterElementwise<kernels::ClipS>("ClipByValue", 2.0,
                                        {"clip_min", "clip_max"});

    ops.Register(OpDef{
        "AddN", OpClass::kElementwise,
        [](OpContext& ctx) {
            // The sum starts in input 0's buffer when it may be reused
            // (its value dies here), else in a new one; either way the
            // same additions in the same order.
            Tensor acc = ctx.num_inputs() == 1 && !ctx.may_alias_input()
                             ? ctx.input(0).Clone()
                             : ctx.input(0);
            for (int i = 1; i < ctx.num_inputs(); ++i) {
                if (ctx.input(i).shape() != acc.shape()) {
                    throw std::invalid_argument("AddN: shape mismatch");
                }
                acc = kernels::BinaryMap(
                    acc, ctx.input(i), kernels::BindParams<kernels::AddS>{},
                    ctx.pool(), i > 1 || ctx.may_alias_input());
            }
            ctx.set_output(0, std::move(acc));
        },
        ElementwiseCost(1.0), false, /*supports_inplace=*/true});
    ShapeFnRegistry::Global().Register("AddN", [](InferenceContext& ctx) {
        if (ctx.num_inputs() < 1) {
            ctx.Fail("expected at least 1 input");
        }
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        for (int i = 0; i < ctx.num_inputs(); ++i) {
            ctx.ExpectDType(i, DType::kFloat32);
            ctx.ExpectSameShape(0, i);
            if (ctx.KnownShape(i)) {
                out.has_shape = true;
                out.shape = ctx.input(i).shape;
            }
        }
        ctx.set_output(0, out);
    });

    // Gradient helper ops (elementwise, appear in backward profiles).
    // inputs: (grad, x) / (grad, y = forward output).
    RegisterElementwise<kernels::ReluGradS>("ReluGrad", 1.0);
    RegisterElementwise<kernels::SigmoidGradS>("SigmoidGrad", 3.0);
    RegisterElementwise<kernels::TanhGradS>("TanhGrad", 3.0);
    RegisterElementwise<kernels::ClipGradS>("ClipByValueGrad", 2.0,
                                            {"clip_min", "clip_max"});

    // The adjoint of broadcasting: reduce grad down to ref's shape.
    ops.Register(OpDef{
        "SumToShapeOf", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::ReduceToShape(
                                  ctx.input(0), ctx.input(1).shape(),
                                  ctx.pool()));
        },
        SerialCost(1.0), false});
    ShapeFnRegistry::Global().Register(
        "SumToShapeOf", [](InferenceContext& ctx) {
            if (ctx.num_inputs() != 2) {
                ctx.Fail("expected 2 inputs (grad, shape ref), got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (ctx.KnownShape(1)) {
                out.has_shape = true;
                out.shape = ctx.input(1).shape;
            }
            ctx.set_output(0, out);
        });

    // ---- gradients -------------------------------------------------------

    grads.Register(
        "Add",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {SumTo(b, g[0], node.inputs[0]),
                    SumTo(b, g[0], node.inputs[1])};
        });

    grads.Register(
        "Sub",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {SumTo(b, g[0], node.inputs[0]),
                    SumTo(b, b.Neg(g[0]), node.inputs[1])};
        });

    grads.Register(
        "Mul",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output a = node.inputs[0];
            const Output bb = node.inputs[1];
            return {SumTo(b, b.Mul(g[0], bb), a),
                    SumTo(b, b.Mul(g[0], a), bb)};
        });

    grads.Register(
        "Div",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output a = node.inputs[0];
            const Output bb = node.inputs[1];
            const Output ga = b.Div(g[0], bb);
            const Output gb =
                b.Neg(b.Div(b.Mul(g[0], a), b.Mul(bb, bb)));
            return {SumTo(b, ga, a), SumTo(b, gb, bb)};
        });

    grads.Register(
        "AddN",
        [](GraphBuilder&, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return std::vector<std::optional<Output>>(node.inputs.size(),
                                                      g[0]);
        });

    grads.Register(
        "Neg",
        [](GraphBuilder& b, const Node&, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> { return {b.Neg(g[0])}; });

    grads.Register(
        "Exp",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.Mul(g[0], Output{node.id, 0})};
        });

    grads.Register(
        "Log",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.Div(g[0], node.inputs[0])};
        });

    grads.Register(
        "Sqrt",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // d sqrt(x) = 0.5 / sqrt(x)
            const Output half = b.ScalarConst(0.5f, "half");
            return {b.Div(b.Mul(g[0], half), Output{node.id, 0})};
        });

    grads.Register(
        "Square",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output two = b.ScalarConst(2.0f, "two");
            return {b.Mul(b.Mul(g[0], two), node.inputs[0])};
        });

    grads.Register(
        "Pow",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const float p = node.attr("exponent").AsFloat();
            const Output coeff = b.ScalarConst(p, "pow_coeff");
            return {b.Mul(b.Mul(g[0], coeff),
                          b.Pow(node.inputs[0], p - 1.0f))};
        });

    grads.Register(
        "Relu",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("relu_grad", "ReluGrad", {g[0], node.inputs[0]})};
        });

    grads.Register(
        "Sigmoid",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("sigmoid_grad", "SigmoidGrad",
                            {g[0], Output{node.id, 0}})};
        });

    grads.Register(
        "Tanh",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("tanh_grad", "TanhGrad",
                            {g[0], Output{node.id, 0}})};
        });

    grads.Register(
        "ClipByValue",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("clip_grad", "ClipByValueGrad",
                            {g[0], node.inputs[0]},
                            {{"clip_min", node.attr("clip_min")},
                             {"clip_max", node.attr("clip_max")}})};
        });

    grads.Register(
        "ReluGrad",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // Second-order term for x is zero a.e.; propagate through
            // the grad operand only.
            return {b.AddOp("relu_grad", "ReluGrad", {g[0], node.inputs[1]}),
                    std::nullopt};
        });
}

}  // namespace fathom::ops
