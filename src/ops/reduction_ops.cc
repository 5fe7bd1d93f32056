/**
 * @file
 * Reduction/expansion ops: ReduceSum/Mean/Max, Softmax, LogSoftmax,
 * ArgMax, Tile.
 */
#include <set>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "kernels/elementwise.h"
#include "kernels/reduction.h"
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

std::vector<int>
AxesFromNode(const Node& node)
{
    std::vector<int> axes;
    for (std::int64_t a : node.attr("axes").AsIntList()) {
        axes.push_back(static_cast<int>(a));
    }
    return axes;
}

using graph::verify::InferenceContext;
using graph::verify::TypeInfo;

/**
 * Normalizes the "axes" int-list attr against @p rank (negative axes
 * count from the end; an empty list means all axes), failing the
 * inference on out-of-range entries. Mirrors kernels::Reduce.
 */
std::set<int>
NormalizedAxes(InferenceContext& ctx, int rank)
{
    std::set<int> axes;
    for (std::int64_t raw : ctx.RequireIntListAttr("axes")) {
        const std::int64_t a = raw < 0 ? raw + rank : raw;
        if (a < 0 || a >= rank) {
            ctx.Fail("reduction axis " + std::to_string(raw) +
                     " out of range for rank " + std::to_string(rank));
        }
        axes.insert(static_cast<int>(a));
    }
    if (axes.empty()) {
        for (int i = 0; i < rank; ++i) {
            axes.insert(i);
        }
    }
    return axes;
}

/** The post-reduction shape of @p in under (axes, keep_dims). */
Shape
ReducedShape(const Shape& in, const std::set<int>& axes, bool keep_dims)
{
    std::vector<std::int64_t> dims;
    for (int i = 0; i < in.rank(); ++i) {
        if (axes.count(i) > 0) {
            if (keep_dims) {
                dims.push_back(1);
            }
        } else {
            dims.push_back(in.dim(i));
        }
    }
    return Shape(std::move(dims));
}

void
RegisterReduce(const std::string& name, kernels::ReduceOp op)
{
    OpRegistry::Global().Register(OpDef{
        name, OpClass::kReductionExpansion,
        [op](OpContext& ctx) {
            ctx.set_output(0, kernels::Reduce(
                                  ctx.input(0), op, AxesFromNode(ctx.node()),
                                  ctx.node().attr_bool("keep_dims", false),
                                  ctx.pool()));
        },
        SerialCost(1.0), false});
    graph::verify::ShapeFnRegistry::Global().Register(
        name, [](InferenceContext& ctx) {
            if (ctx.num_inputs() != 1) {
                ctx.Fail("expected 1 input, got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            ctx.RequireIntListAttr("axes");
            const bool keep = ctx.node().attr_bool("keep_dims", false);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (ctx.KnownShape(0)) {
                const Shape& in = ctx.input(0).shape;
                out.has_shape = true;
                out.shape =
                    ReducedShape(in, NormalizedAxes(ctx, in.rank()), keep);
            }
            ctx.set_output(0, out);
        });
}

}  // namespace

void
RegisterReductionOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    RegisterReduce("ReduceSum", kernels::ReduceOp::kSum);
    RegisterReduce("ReduceMean", kernels::ReduceOp::kMean);
    RegisterReduce("ReduceMax", kernels::ReduceOp::kMax);

    // Broadcasts a reduced gradient back to the pre-reduction shape.
    // inputs: (grad, ref); attrs: axes, keep_dims, mean (scale by 1/n).
    ops.Register(OpDef{
        "ReduceSumGrad", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            const Shape& ref = ctx.input(1).shape();
            const int rank = ref.rank();
            std::set<int> axes;
            for (int a : AxesFromNode(ctx.node())) {
                axes.insert(a < 0 ? a + rank : a);
            }
            if (axes.empty()) {
                for (int i = 0; i < rank; ++i) {
                    axes.insert(i);
                }
            }
            // Restore reduced axes as extent-1 dims, then tile out.
            std::vector<std::int64_t> keep_shape;
            std::vector<std::int64_t> multiples;
            std::int64_t count = 1;
            for (int i = 0; i < rank; ++i) {
                if (axes.count(i)) {
                    keep_shape.push_back(1);
                    multiples.push_back(ref.dim(i));
                    count *= ref.dim(i);
                } else {
                    keep_shape.push_back(ref.dim(i));
                    multiples.push_back(1);
                }
            }
            Tensor grad = ctx.input(0).Reshape(Shape(keep_shape));
            Tensor expanded = kernels::Tile(grad, multiples, ctx.pool());
            if (ctx.node().attr_bool("mean", false) && count > 0) {
                const float inv = 1.0f / static_cast<float>(count);
                expanded = kernels::UnaryMap(
                    expanded, [inv](float x) { return x * inv; }, ctx.pool());
            }
            ctx.set_output(0, std::move(expanded));
        },
        SerialCost(1.0), false});

    auto reduce_grad = [](bool mean) {
        return [mean](GraphBuilder& b, const Node& node,
                      const std::vector<Output>& g)
                   -> std::vector<std::optional<Output>> {
            std::map<std::string, AttrValue> attrs = {
                {"axes", node.attr("axes")},
                {"keep_dims", node.attr("keep_dims")},
                {"mean", AttrValue(mean)}};
            return {b.AddOp("reduce_grad", "ReduceSumGrad",
                            {g[0], node.inputs[0]}, attrs)};
        };
    };
    grads.Register("ReduceSum", reduce_grad(false));
    grads.Register("ReduceMean", reduce_grad(true));

    // ---- softmax family ----------------------------------------------------

    ops.Register(OpDef{
        "Softmax", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::Softmax(ctx.input(0), ctx.pool()));
        },
        [](const Node&, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            cost.flops = 15.0 * static_cast<double>(inputs[0].num_elements());
            cost.bytes = BytesOf(inputs) + BytesOf(outputs);
            const Shape& s = inputs[0].shape();
            cost.parallel_work = s.num_elements() / s.dim(-1);
            return cost;
        },
        false});

    ops.Register(OpDef{
        "LogSoftmax", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::LogSoftmax(ctx.input(0), ctx.pool()));
        },
        SerialCost(15.0), false});

    grads.Register(
        "Softmax",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // dx = (g - sum(g * y, -1, keep)) * y
            const Output y = Output{node.id, 0};
            const Output inner =
                b.ReduceSum(b.Mul(g[0], y), {-1}, /*keep_dims=*/true);
            return {b.Mul(b.Sub(g[0], inner), y)};
        });

    grads.Register(
        "LogSoftmax",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // dx = g - softmax(x) * sum(g, -1, keep)
            const Output sm = b.Softmax(node.inputs[0]);
            const Output total = b.ReduceSum(g[0], {-1}, /*keep_dims=*/true);
            return {b.Sub(g[0], b.Mul(sm, total))};
        });

    ops.Register(OpDef{
        "ArgMax", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::ArgMaxLastDim(ctx.input(0),
                                                     ctx.pool()));
        },
        SerialCost(1.0), false});

    // ---- tile ---------------------------------------------------------------

    ops.Register(OpDef{
        "Tile", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::Tile(ctx.input(0),
                                            ctx.node().attr("multiples")
                                                .AsIntList(),
                                            ctx.pool()));
        },
        ElementwiseCost(0.0), false});

    // inputs: (grad, ref)
    ops.Register(OpDef{
        "TileGrad", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::TileGrad(
                                  ctx.input(0), ctx.input(1).shape(),
                                  ctx.node().attr("multiples").AsIntList(),
                                  ctx.pool()));
        },
        SerialCost(1.0), false});

    grads.Register(
        "Tile",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("tile_grad", "TileGrad", {g[0], node.inputs[0]},
                            {{"multiples", node.attr("multiples")}})};
        });

    // ---- shape/dtype inference -------------------------------------------

    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    shapes.Register("ReduceSumGrad", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected 2 inputs (grad, ref), got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.ExpectDType(1, DType::kFloat32);
        ctx.RequireIntListAttr("axes");
        if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
            const Shape& ref = ctx.input(1).shape;
            const Shape expect =
                ReducedShape(ref, NormalizedAxes(ctx, ref.rank()),
                             ctx.node().attr_bool("keep_dims", false));
            if (ctx.input(0).shape.num_elements() != expect.num_elements()) {
                ctx.Fail("grad shape: expected " + expect.ToString() +
                         " (reduction of " + ref.ToString() + "), got " +
                         ctx.input(0).shape.ToString());
            }
        }
        ctx.set_output(0, ctx.input(1));
    });

    auto softmax_shape = [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        if (ctx.KnownShape(0) && ctx.input(0).shape.rank() < 1) {
            ctx.Fail("input must have rank >= 1 (softmax over last dim)");
        }
        ctx.set_output(0, ctx.input(0));
    };
    shapes.Register("Softmax", softmax_shape);
    shapes.Register("LogSoftmax", softmax_shape);

    shapes.Register("ArgMax", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        TypeInfo out = TypeInfo::OfDType(DType::kInt32);
        if (ctx.KnownShape(0)) {
            const Shape& in = ctx.input(0).shape;
            if (in.rank() < 1) {
                ctx.Fail("input must have rank >= 1 (argmax over last dim)");
            }
            std::vector<std::int64_t> dims(in.dims().begin(),
                                           in.dims().end() - 1);
            out.has_shape = true;
            out.shape = Shape(std::move(dims));
        }
        ctx.set_output(0, out);
    });

    // Tile/TileGrad share the multiples schema: one non-negative factor
    // per input dimension.
    auto tiled_shape = [](InferenceContext& ctx, const Shape& in) {
        const auto& multiples = ctx.RequireIntListAttr("multiples");
        if (static_cast<int>(multiples.size()) != in.rank()) {
            ctx.Fail("multiples: expected " + std::to_string(in.rank()) +
                     " entries (input rank), got " +
                     std::to_string(multiples.size()));
        }
        std::vector<std::int64_t> dims = in.dims();
        for (std::size_t i = 0; i < dims.size(); ++i) {
            if (multiples[i] < 1) {
                ctx.Fail("multiples[" + std::to_string(i) +
                         "] must be >= 1, got " +
                         std::to_string(multiples[i]));
            }
            dims[i] *= multiples[i];
        }
        return Shape(std::move(dims));
    };

    shapes.Register("Tile", [tiled_shape](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.RequireIntListAttr("multiples");
        TypeInfo out = ctx.input(0);
        if (ctx.KnownShape(0)) {
            out.shape = tiled_shape(ctx, ctx.input(0).shape);
        }
        ctx.set_output(0, out);
    });

    shapes.Register("TileGrad", [tiled_shape](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected 2 inputs (grad, ref), got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kFloat32);
        ctx.RequireIntListAttr("multiples");
        if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
            const Shape expect = tiled_shape(ctx, ctx.input(1).shape);
            if (ctx.input(0).shape != expect) {
                ctx.Fail("grad shape: expected " + expect.ToString() +
                         " (ref tiled by multiples), got " +
                         ctx.input(0).shape.ToString());
            }
        }
        ctx.set_output(0, ctx.input(1));
    });
}

}  // namespace fathom::ops
