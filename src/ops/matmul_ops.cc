/**
 * @file
 * Matrix multiplication op and gradient.
 */
#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "kernels/gemm.h"
#include "kernels/matmul.h"
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
RegisterMatMulOps()
{
    OpRegistry::Global().Register(OpDef{
        "MatMul", OpClass::kMatrixOps,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::MatMul(ctx.input(0), ctx.input(1),
                                   ctx.node().attr_bool("transpose_a", false),
                                   ctx.node().attr_bool("transpose_b", false),
                                   ctx.pool()));
        },
        [](const Node& node, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            const bool ta = node.attr_bool("transpose_a", false);
            const std::int64_t m = outputs[0].shape().dim(0);
            const std::int64_t n = outputs[0].shape().dim(1);
            const std::int64_t k =
                ta ? inputs[0].shape().dim(0) : inputs[0].shape().dim(1);
            cost.flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            // The GEMM engine parallelizes over 2-D output tiles, not
            // rows; the tile grid is the kernel's real trip count.
            cost.parallel_work = kernels::GemmTileCount(m, n);
            return cost;
        },
        false});

    GradientRegistry::Global().Register(
        "MatMul",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output a = node.inputs[0];
            const Output bb = node.inputs[1];
            const bool ta = node.attr_bool("transpose_a", false);
            const bool tb = node.attr_bool("transpose_b", false);
            Output ga, gb;
            if (!ta && !tb) {
                ga = b.MatMul(g[0], bb, false, true);
                gb = b.MatMul(a, g[0], true, false);
            } else if (ta && !tb) {
                ga = b.MatMul(bb, g[0], false, true);
                gb = b.MatMul(a, g[0], false, false);
            } else if (!ta && tb) {
                ga = b.MatMul(g[0], bb, false, false);
                gb = b.MatMul(g[0], a, true, false);
            } else {
                ga = b.MatMul(bb, g[0], true, true);
                gb = b.MatMul(g[0], a, true, true);
            }
            return {ga, gb};
        });

    graph::verify::ShapeFnRegistry::Global().Register(
        "MatMul", [](graph::verify::InferenceContext& ctx) {
            using graph::verify::TypeInfo;
            if (ctx.num_inputs() != 2) {
                ctx.Fail("expected 2 inputs, got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            ctx.ExpectDType(1, DType::kFloat32);
            ctx.ExpectRank(0, 2);
            ctx.ExpectRank(1, 2);
            const bool ta = ctx.node().attr_bool("transpose_a", false);
            const bool tb = ctx.node().attr_bool("transpose_b", false);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            // Effective [m, k] x [k, n]: the inner dims must agree.
            if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
                const Shape& a = ctx.input(0).shape;
                const Shape& b = ctx.input(1).shape;
                const std::int64_t m = ta ? a.dim(1) : a.dim(0);
                const std::int64_t ka = ta ? a.dim(0) : a.dim(1);
                const std::int64_t kb = tb ? b.dim(1) : b.dim(0);
                const std::int64_t n = tb ? b.dim(0) : b.dim(1);
                if (ka != kb) {
                    ctx.Fail("inner dimensions: expected equal, got " +
                             std::to_string(ka) + " vs " +
                             std::to_string(kb) + " (" + a.ToString() +
                             (ta ? "^T" : "") + " x " + b.ToString() +
                             (tb ? "^T" : "") + ")");
                }
                out.has_shape = true;
                out.shape = Shape{m, n};
            }
            ctx.set_output(0, out);
        });
}

}  // namespace fathom::ops
