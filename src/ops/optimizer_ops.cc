/**
 * @file
 * Parameter-update ops (the paper's Optimization class): SGD, momentum,
 * RMSProp (deep Q networks), and Adam (variational autoencoders).
 *
 * Update kernels run serially over the parameter vector: in the paper's
 * Fig. 6 the optimizer is exactly the kind of data-dependent work whose
 * relative share *grows* as convolution/matmul parallelize.
 */
#include <cmath>

#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "ops/common.h"
#include "ops/register.h"

namespace fathom::ops {

using graph::Node;
using graph::OpClass;
using graph::OpContext;
using graph::OpDef;
using graph::OpRegistry;

namespace {

/** Fetches (or lazily creates, zero-filled) an optimizer slot tensor. */
Tensor&
Slot(OpContext& ctx, const std::string& var_name, const std::string& slot,
     const Shape& shape)
{
    const std::string key = var_name + "/" + slot;
    if (!ctx.variables().Contains(key)) {
        ctx.variables().Set(key, Tensor::Zeros(shape));
    }
    return ctx.variables().Get(key);
}

/** Checks grad/var compatibility and returns the variable. */
Tensor&
CheckedVar(OpContext& ctx, const Tensor& grad)
{
    Tensor& var =
        ctx.variables().Get(ctx.node().attr("var_name").AsString());
    if (var.num_elements() != grad.num_elements()) {
        throw std::invalid_argument(
            "optimizer op '" + ctx.node().name + "': grad has " +
            std::to_string(grad.num_elements()) + " elements, variable has " +
            std::to_string(var.num_elements()));
    }
    return var;
}

graph::CostFn
UpdateCost(double flops_per_elem)
{
    return [flops_per_elem](const Node&, graph::OpInputs inputs,
                            const std::vector<Tensor>&) {
        graph::OpCost cost;
        const double n = static_cast<double>(inputs[0].num_elements());
        cost.flops = flops_per_elem * n;
        cost.bytes = 3.0 * 4.0 * n;  // read var + grad, write var.
        cost.parallel_work = 1;      // serial update loop.
        return cost;
    };
}

}  // namespace

void
RegisterOptimizerOps()
{
    OpRegistry& ops = OpRegistry::Global();

    // input: (grad); var -= lr * grad
    ops.Register(OpDef{
        "ApplyGradientDescent", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& grad = ctx.input(0);
            Tensor& var = CheckedVar(ctx, grad);
            const float lr = ctx.node().attr("lr").AsFloat();
            float* v = var.data<float>();
            const float* g = grad.data<float>();
            const std::int64_t n = var.num_elements();
            for (std::int64_t i = 0; i < n; ++i) {
                v[i] -= lr * g[i];
            }
        },
        UpdateCost(2.0), true});

    // input: (grad); m = mu*m + grad; var -= lr * m
    ops.Register(OpDef{
        "ApplyMomentum", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& grad = ctx.input(0);
            Tensor& var = CheckedVar(ctx, grad);
            const std::string var_name =
                ctx.node().attr("var_name").AsString();
            Tensor& mom = Slot(ctx, var_name, "momentum", var.shape());
            const float lr = ctx.node().attr("lr").AsFloat();
            const float mu = ctx.node().attr("momentum").AsFloat();
            float* v = var.data<float>();
            float* m = mom.data<float>();
            const float* g = grad.data<float>();
            const std::int64_t n = var.num_elements();
            for (std::int64_t i = 0; i < n; ++i) {
                m[i] = mu * m[i] + g[i];
                v[i] -= lr * m[i];
            }
        },
        UpdateCost(4.0), true});

    // input: (grad); ms = rho*ms + (1-rho)*g^2; var -= lr*g/sqrt(ms+eps)
    ops.Register(OpDef{
        "ApplyRMSProp", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& grad = ctx.input(0);
            Tensor& var = CheckedVar(ctx, grad);
            const std::string var_name =
                ctx.node().attr("var_name").AsString();
            Tensor& ms = Slot(ctx, var_name, "rms", var.shape());
            const float lr = ctx.node().attr("lr").AsFloat();
            const float rho = ctx.node().attr("decay").AsFloat();
            const float eps = ctx.node().attr("epsilon").AsFloat();
            float* v = var.data<float>();
            float* s = ms.data<float>();
            const float* g = grad.data<float>();
            const std::int64_t n = var.num_elements();
            for (std::int64_t i = 0; i < n; ++i) {
                s[i] = rho * s[i] + (1.0f - rho) * g[i] * g[i];
                v[i] -= lr * g[i] / std::sqrt(s[i] + eps);
            }
        },
        UpdateCost(8.0), true});

    // input: (grad); standard bias-corrected Adam.
    ops.Register(OpDef{
        "ApplyAdam", OpClass::kOptimization,
        [](OpContext& ctx) {
            const Tensor& grad = ctx.input(0);
            Tensor& var = CheckedVar(ctx, grad);
            const std::string var_name =
                ctx.node().attr("var_name").AsString();
            Tensor& m = Slot(ctx, var_name, "adam_m", var.shape());
            Tensor& s = Slot(ctx, var_name, "adam_v", var.shape());
            Tensor& t_slot = Slot(ctx, var_name, "adam_t", Shape{});
            const float lr = ctx.node().attr("lr").AsFloat();
            const float b1 = ctx.node().attr("beta1").AsFloat();
            const float b2 = ctx.node().attr("beta2").AsFloat();
            const float eps = ctx.node().attr("epsilon").AsFloat();

            float& t = t_slot.data<float>()[0];
            t += 1.0f;
            const float correction = std::sqrt(1.0f - std::pow(b2, t)) /
                                     (1.0f - std::pow(b1, t));

            float* v = var.data<float>();
            float* mp = m.data<float>();
            float* sp = s.data<float>();
            const float* g = grad.data<float>();
            const std::int64_t n = var.num_elements();
            for (std::int64_t i = 0; i < n; ++i) {
                mp[i] = b1 * mp[i] + (1.0f - b1) * g[i];
                sp[i] = b2 * sp[i] + (1.0f - b2) * g[i] * g[i];
                v[i] -= lr * correction * mp[i] / (std::sqrt(sp[i]) + eps);
            }
        },
        UpdateCost(12.0), true});

    // input: (value); var = value
    ops.Register(OpDef{
        "Assign", OpClass::kControl,
        [](OpContext& ctx) {
            ctx.variables().Set(ctx.node().attr("var_name").AsString(),
                                ctx.input(0).Clone());
        },
        MovedBytesCost(), true});

    // ---- shape/dtype inference -------------------------------------------

    using graph::verify::InferenceContext;
    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    // All Apply* updates take one (grad) input, name their variable via
    // the "var_name" attr, and produce no tensor output — they are pure
    // side-effect barriers in the plan.
    auto apply_update = [](InferenceContext& ctx,
                           const std::vector<std::string>& float_attrs) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected (grad) input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        const std::string& key = ctx.RequireStringAttr("var_name");
        for (const std::string& attr : float_attrs) {
            ctx.RequireFloatAttr(attr);
        }
        if (ctx.variables() != nullptr) {
            if (!ctx.variables()->Contains(key)) {
                ctx.Fail("variable '" + key + "' is not in the store");
            }
            const Tensor& var = ctx.variables()->Get(key);
            if (ctx.KnownShape(0) &&
                ctx.input(0).shape.num_elements() != var.num_elements()) {
                ctx.Fail("grad has " +
                         std::to_string(ctx.input(0).shape.num_elements()) +
                         " elements, variable '" + key + "' has " +
                         std::to_string(var.num_elements()));
            }
        }
        ctx.MarkProducesNoOutput();
    };
    shapes.Register("ApplyGradientDescent",
                    [apply_update](InferenceContext& ctx) {
                        apply_update(ctx, {"lr"});
                    });
    shapes.Register("ApplyMomentum", [apply_update](InferenceContext& ctx) {
        apply_update(ctx, {"lr", "momentum"});
    });
    shapes.Register("ApplyRMSProp", [apply_update](InferenceContext& ctx) {
        apply_update(ctx, {"lr", "decay", "epsilon"});
    });
    shapes.Register("ApplyAdam", [apply_update](InferenceContext& ctx) {
        apply_update(ctx, {"lr", "beta1", "beta2", "epsilon"});
    });

    shapes.Register("Assign", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected (value) input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.RequireStringAttr("var_name");
        ctx.MarkProducesNoOutput();
    });
}

}  // namespace fathom::ops
