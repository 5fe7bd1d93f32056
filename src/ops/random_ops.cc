/**
 * @file
 * Random-sampling ops: RandomNormal, RandomUniform, DropoutMask.
 *
 * These form the paper's RandomSampling class, visible in autoenc
 * (the VAE's reparameterized sampling during both inference and
 * training) and in dropout-regularized training (alexnet).
 */
#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
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

namespace {

/** Sampling cost: transcendental-heavy and serial (one RNG stream). */
graph::CostFn
SamplingCost()
{
    return [](const Node&, graph::OpInputs,
              const std::vector<Tensor>& outputs) {
        graph::OpCost cost;
        cost.flops = 30.0 * static_cast<double>(outputs[0].num_elements());
        cost.bytes = BytesOf(outputs);
        cost.parallel_work = 1;
        return cost;
    };
}

}  // namespace

void
RegisterRandomOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    ops.Register(OpDef{
        "RandomNormal", OpClass::kRandomSampling,
        [](OpContext& ctx) {
            Tensor out(DType::kFloat32,
                       Shape(ctx.node().attr("shape").AsIntList()));
            ctx.rng().FillNormal(&out, ctx.node().attr_float("mean", 0.0f),
                                 ctx.node().attr_float("stddev", 1.0f));
            ctx.set_output(0, std::move(out));
        },
        SamplingCost(), true});

    ops.Register(OpDef{
        "RandomUniform", OpClass::kRandomSampling,
        [](OpContext& ctx) {
            Tensor out(DType::kFloat32,
                       Shape(ctx.node().attr("shape").AsIntList()));
            ctx.rng().FillUniform(&out, ctx.node().attr_float("lo", 0.0f),
                                  ctx.node().attr_float("hi", 1.0f));
            ctx.set_output(0, std::move(out));
        },
        SamplingCost(), true});

    // input: (like); output: mask with E[mask] = 1 elementwise.
    ops.Register(OpDef{
        "DropoutMask", OpClass::kRandomSampling,
        [](OpContext& ctx) {
            const float keep = ctx.node().attr_float("keep_prob", 0.5f);
            if (keep <= 0.0f || keep > 1.0f) {
                throw std::invalid_argument(
                    "DropoutMask: keep_prob must be in (0, 1]");
            }
            Tensor mask(DType::kFloat32, ctx.input(0).shape());
            float* m = mask.data<float>();
            const float inv_keep = 1.0f / keep;
            const std::int64_t n = mask.num_elements();
            for (std::int64_t i = 0; i < n; ++i) {
                m[i] = ctx.rng().Uniform() < keep ? inv_keep : 0.0f;
            }
            ctx.set_output(0, std::move(mask));
        },
        SamplingCost(), true});

    // The mask is treated as a constant w.r.t. differentiation.
    grads.Register(
        "DropoutMask",
        [](GraphBuilder&, const Node&, const std::vector<Output>&)
            -> std::vector<std::optional<Output>> { return {std::nullopt}; });

    // ---- shape/dtype inference -------------------------------------------

    using graph::verify::InferenceContext;
    using graph::verify::TypeInfo;
    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    // Samplers draw a fresh float32 tensor of the "shape" attr.
    auto sampled = [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 0) {
            ctx.Fail("expected 0 inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& dims = ctx.RequireIntListAttr("shape");
        for (std::size_t i = 0; i < dims.size(); ++i) {
            if (dims[i] < 0) {
                ctx.Fail("shape attr dim " + std::to_string(i) +
                         " is negative (" + std::to_string(dims[i]) + ")");
            }
        }
        ctx.set_output(0, TypeInfo::Of(DType::kFloat32, Shape(dims)));
    };
    shapes.Register("RandomNormal", sampled);
    shapes.Register("RandomUniform", sampled);

    shapes.Register("DropoutMask", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const float keep = ctx.node().attr_float("keep_prob", 0.5f);
        if (keep <= 0.0f || keep > 1.0f) {
            ctx.Fail("keep_prob must be in (0, 1], got " +
                     std::to_string(keep));
        }
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        if (ctx.KnownShape(0)) {
            out.has_shape = true;
            out.shape = ctx.input(0).shape;
        }
        ctx.set_output(0, out);
    });
}

}  // namespace fathom::ops
