/**
 * @file
 * Data-movement ops: Reshape, Transpose, Concat, Slice, Gather, OneHot,
 * Pad, and their gradient helper ops.
 */
#include <stdexcept>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/verify/shape_inference.h"
#include "kernels/data_movement.h"
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

/** Resolves a reshape target allowing a single -1 wildcard. */
Shape
ResolveReshape(const Shape& input, const std::vector<std::int64_t>& target)
{
    std::int64_t known = 1;
    int wildcard = -1;
    for (std::size_t i = 0; i < target.size(); ++i) {
        if (target[i] == -1) {
            if (wildcard != -1) {
                throw std::invalid_argument("Reshape: multiple -1 dims");
            }
            wildcard = static_cast<int>(i);
        } else {
            known *= target[i];
        }
    }
    std::vector<std::int64_t> dims = target;
    if (wildcard >= 0) {
        if (known == 0 || input.num_elements() % known != 0) {
            throw std::invalid_argument("Reshape: cannot infer -1 dim");
        }
        dims[static_cast<std::size_t>(wildcard)] =
            input.num_elements() / known;
    }
    return Shape(dims);
}

std::vector<std::pair<std::int64_t, std::int64_t>>
PaddingsFromAttr(const std::vector<std::int64_t>& flat)
{
    if (flat.size() % 2 != 0) {
        throw std::invalid_argument("paddings attr must have even length");
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> paddings;
    for (std::size_t i = 0; i < flat.size(); i += 2) {
        paddings.emplace_back(flat[i], flat[i + 1]);
    }
    return paddings;
}

graph::CostFn
MovementCost()
{
    return [](const Node&, graph::OpInputs inputs,
              const std::vector<Tensor>& outputs) {
        graph::OpCost cost;
        cost.flops = 0.0;
        cost.bytes = BytesOf(inputs) + BytesOf(outputs);
        cost.parallel_work = 1;
        return cost;
    };
}

}  // namespace

void
RegisterMovementOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    ops.Register(OpDef{
        "Reshape", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(0, ctx.input(0).Reshape(ResolveReshape(
                                  ctx.input(0).shape(),
                                  ctx.node().attr("shape").AsIntList())));
        },
        MovementCost(), false});

    // inputs: (x, ref): reshape x to ref's shape (dynamic Reshape).
    ops.Register(OpDef{
        "ReshapeLike", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(0, ctx.input(0).Reshape(ctx.input(1).shape()));
        },
        MovementCost(), false});

    auto reshape_grad = [](GraphBuilder& b, const Node& node,
                           const std::vector<Output>& g)
        -> std::vector<std::optional<Output>> {
        std::vector<std::optional<Output>> result;
        result.push_back(b.AddOp("reshape_grad", "ReshapeLike",
                                 {g[0], node.inputs[0]}));
        for (std::size_t i = 1; i < node.inputs.size(); ++i) {
            result.push_back(std::nullopt);
        }
        return result;
    };
    grads.Register("Reshape", reshape_grad);
    grads.Register("ReshapeLike", reshape_grad);

    ops.Register(OpDef{
        "Transpose", OpClass::kDataMovement,
        [](OpContext& ctx) {
            std::vector<int> perm;
            for (std::int64_t p : ctx.node().attr("perm").AsIntList()) {
                perm.push_back(static_cast<int>(p));
            }
            ctx.set_output(0,
                           kernels::Transpose(ctx.input(0), perm, ctx.pool()));
        },
        MovementCost(), false});

    grads.Register(
        "Transpose",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const auto& perm = node.attr("perm").AsIntList();
            std::vector<std::int64_t> inverse(perm.size());
            for (std::size_t i = 0; i < perm.size(); ++i) {
                inverse[static_cast<std::size_t>(perm[i])] =
                    static_cast<std::int64_t>(i);
            }
            return {b.Transpose(g[0], inverse)};
        });

    ops.Register(OpDef{
        "Concat", OpClass::kDataMovement,
        [](OpContext& ctx) {
            std::vector<Tensor> inputs;
            for (int i = 0; i < ctx.num_inputs(); ++i) {
                inputs.push_back(ctx.input(i));
            }
            ctx.set_output(
                0, kernels::Concat(inputs,
                                   static_cast<int>(
                                       ctx.node().attr("axis").AsInt()),
                                   ctx.pool()));
        },
        MovementCost(), false});

    // inputs: (grad, ref_0, ..., ref_{n-1}); n outputs, one per ref.
    ops.Register(OpDef{
        "ConcatGrad", OpClass::kDataMovement,
        [](OpContext& ctx) {
            const Tensor& g = ctx.input(0);
            int axis = static_cast<int>(ctx.node().attr("axis").AsInt());
            if (axis < 0) {
                axis += g.shape().rank();
            }
            std::int64_t offset = 0;
            for (int i = 1; i < ctx.num_inputs(); ++i) {
                const Shape& ref = ctx.input(i).shape();
                std::vector<std::int64_t> begin(
                    static_cast<std::size_t>(g.shape().rank()), 0);
                std::vector<std::int64_t> size = g.shape().dims();
                begin[static_cast<std::size_t>(axis)] = offset;
                size[static_cast<std::size_t>(axis)] = ref.dim(axis);
                ctx.set_output(i - 1,
                               kernels::Slice(g, begin, size, ctx.pool()));
                offset += ref.dim(axis);
            }
        },
        MovementCost(), false});

    grads.Register(
        "Concat",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            std::vector<Output> inputs = {g[0]};
            for (const Output& in : node.inputs) {
                inputs.push_back(in);
            }
            const graph::NodeId id = b.AddNode(
                "concat_grad", "ConcatGrad", inputs,
                {{"axis", node.attr("axis")}},
                static_cast<int>(node.inputs.size()));
            std::vector<std::optional<Output>> result;
            for (int i = 0; i < static_cast<int>(node.inputs.size()); ++i) {
                result.push_back(Output{id, i});
            }
            return result;
        });

    // attrs: axis, num_splits; N equal outputs along the axis.
    ops.Register(OpDef{
        "Split", OpClass::kDataMovement,
        [](OpContext& ctx) {
            const Tensor& x = ctx.input(0);
            int axis = static_cast<int>(ctx.node().attr("axis").AsInt());
            if (axis < 0) {
                axis += x.shape().rank();
            }
            const std::int64_t n = ctx.node().attr("num_splits").AsInt();
            const std::int64_t extent = x.shape().dim(axis);
            if (n < 1 || extent % n != 0) {
                throw std::invalid_argument(
                    "Split: axis extent " + std::to_string(extent) +
                    " not divisible into " + std::to_string(n) + " parts");
            }
            const std::int64_t part = extent / n;
            for (std::int64_t i = 0; i < n; ++i) {
                std::vector<std::int64_t> begin(
                    static_cast<std::size_t>(x.shape().rank()), 0);
                std::vector<std::int64_t> size = x.shape().dims();
                begin[static_cast<std::size_t>(axis)] = i * part;
                size[static_cast<std::size_t>(axis)] = part;
                ctx.set_output(static_cast<int>(i),
                               kernels::Slice(x, begin, size, ctx.pool()));
            }
        },
        MovementCost(), false});

    grads.Register(
        "Split",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // All output grads must exist (or be zero-filled); a Split
            // whose outputs feed a loss normally uses every part, as in
            // the LSTM gate computation. Missing grads are replaced by
            // zeros of the corresponding part.
            std::vector<Output> parts;
            for (std::size_t i = 0; i < g.size(); ++i) {
                if (g[i].node != -1) {
                    parts.push_back(g[i]);
                } else {
                    parts.push_back(b.AddOp(
                        "split_zero", "ZerosLike",
                        {Output{node.id, static_cast<int>(i)}}));
                }
            }
            return {b.Concat(parts, static_cast<int>(
                                        node.attr("axis").AsInt()))};
        });

    ops.Register(OpDef{
        "Slice", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::Slice(ctx.input(0),
                                  ctx.node().attr("begin").AsIntList(),
                                  ctx.node().attr("size").AsIntList(),
                                  ctx.pool()));
        },
        MovementCost(), false});

    // inputs: (grad, ref); scatter grad into zeros of ref's shape.
    ops.Register(OpDef{
        "SliceGrad", OpClass::kDataMovement,
        [](OpContext& ctx) {
            const Tensor& g = ctx.input(0);
            const Shape& ref = ctx.input(1).shape();
            const auto& begin = ctx.node().attr("begin").AsIntList();
            std::vector<std::pair<std::int64_t, std::int64_t>> paddings;
            for (int d = 0; d < ref.rank(); ++d) {
                const std::int64_t before = begin[static_cast<std::size_t>(d)];
                paddings.emplace_back(
                    before, ref.dim(d) - before - g.shape().dim(d));
            }
            ctx.set_output(0, kernels::Pad(g, paddings, ctx.pool()));
        },
        MovementCost(), false});

    grads.Register(
        "Slice",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("slice_grad", "SliceGrad", {g[0], node.inputs[0]},
                            {{"begin", node.attr("begin")}})};
        });

    ops.Register(OpDef{
        "Gather", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::Gather(ctx.input(0), ctx.input(1),
                                              ctx.pool()));
        },
        [](const Node&, graph::OpInputs inputs,
           const std::vector<Tensor>& outputs) {
            graph::OpCost cost;
            cost.bytes = BytesOf(outputs) * 2.0 +
                         static_cast<double>(inputs[1].byte_size());
            cost.parallel_work = inputs[1].num_elements();
            return cost;
        },
        false});

    // inputs: (params_ref, indices, grad)
    ops.Register(OpDef{
        "GatherGrad", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::GatherGrad(ctx.input(0).shape(),
                                                  ctx.input(1), ctx.input(2),
                                                  ctx.pool()));
        },
        MovementCost(), false});

    grads.Register(
        "Gather",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("gather_grad", "GatherGrad",
                            {node.inputs[0], node.inputs[1], g[0]}),
                    std::nullopt};
        });

    ops.Register(OpDef{
        "OneHot", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::OneHot(ctx.input(0),
                                   ctx.node().attr("depth").AsInt(),
                                   ctx.node().attr_float("on_value", 1.0f),
                                   ctx.node().attr_float("off_value", 0.0f),
                                   ctx.pool()));
        },
        MovementCost(), false});
    grads.Register(
        "OneHot",
        [](GraphBuilder&, const Node&, const std::vector<Output>&)
            -> std::vector<std::optional<Output>> { return {std::nullopt}; });

    ops.Register(OpDef{
        "Pad", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::Pad(ctx.input(0),
                                PaddingsFromAttr(
                                    ctx.node().attr("paddings").AsIntList()),
                                ctx.pool()));
        },
        MovementCost(), false});

    ops.Register(OpDef{
        "PadGrad", OpClass::kDataMovement,
        [](OpContext& ctx) {
            ctx.set_output(
                0, kernels::PadGrad(ctx.input(0),
                                    PaddingsFromAttr(
                                        ctx.node().attr("paddings")
                                            .AsIntList()),
                                    ctx.pool()));
        },
        MovementCost(), false});

    grads.Register(
        "Pad",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("pad_grad", "PadGrad", {g[0]},
                            {{"paddings", node.attr("paddings")}})};
        });

    // ---- shape/dtype inference -------------------------------------------

    using graph::verify::InferenceContext;
    using graph::verify::TypeInfo;
    auto& shapes = graph::verify::ShapeFnRegistry::Global();

    // Normalizes a (possibly negative) axis attr against a rank.
    auto norm_axis = [](InferenceContext& ctx, std::int64_t axis,
                        int rank) -> int {
        std::int64_t a = axis;
        if (a < 0) {
            a += rank;
        }
        if (a < 0 || a >= rank) {
            ctx.Fail("axis " + std::to_string(axis) +
                     " out of range for rank " + std::to_string(rank));
        }
        return static_cast<int>(a);
    };

    shapes.Register("Reshape", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& target = ctx.RequireIntListAttr("shape");
        bool wildcard = false;
        for (std::int64_t d : target) {
            if (d == -1) {
                wildcard = true;
            }
        }
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (!wildcard) {
            out.has_shape = true;
            out.shape = Shape(target);
            if (ctx.KnownShape(0) &&
                out.shape.num_elements() !=
                    ctx.input(0).shape.num_elements()) {
                ctx.Fail("cannot reshape " + ctx.input(0).shape.ToString() +
                         " to " + out.shape.ToString());
            }
        } else if (ctx.KnownShape(0)) {
            try {
                out.has_shape = true;
                out.shape = ResolveReshape(ctx.input(0).shape, target);
            } catch (const graph::verify::InferenceError&) {
                throw;
            } catch (const std::exception& e) {
                ctx.Fail(e.what());
            }
        }
        ctx.set_output(0, out);
    });

    shapes.Register("ReshapeLike", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected (x, ref) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(1)) {
            out.has_shape = true;
            out.shape = ctx.input(1).shape;
        }
        if (ctx.KnownShape(0) && ctx.KnownShape(1) &&
            ctx.input(0).shape.num_elements() !=
                ctx.input(1).shape.num_elements()) {
            ctx.Fail("cannot reshape " + ctx.input(0).shape.ToString() +
                     " like " + ctx.input(1).shape.ToString() +
                     ": element counts differ");
        }
        ctx.set_output(0, out);
    });

    shapes.Register("Transpose", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& perm = ctx.RequireIntListAttr("perm");
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(0)) {
            const Shape& in = ctx.input(0).shape;
            if (static_cast<int>(perm.size()) != in.rank()) {
                ctx.Fail("perm has " + std::to_string(perm.size()) +
                         " entries for rank " + std::to_string(in.rank()));
            }
            std::vector<bool> seen(perm.size(), false);
            std::vector<std::int64_t> dims(perm.size());
            for (std::size_t i = 0; i < perm.size(); ++i) {
                const std::int64_t p = perm[i];
                if (p < 0 || p >= in.rank() ||
                    seen[static_cast<std::size_t>(p)]) {
                    ctx.Fail("perm is not a permutation of [0, " +
                             std::to_string(in.rank()) + ")");
                }
                seen[static_cast<std::size_t>(p)] = true;
                dims[i] = in.dim(static_cast<int>(p));
            }
            out.has_shape = true;
            out.shape = Shape(dims);
        }
        ctx.set_output(0, out);
    });

    shapes.Register("Concat", [norm_axis](InferenceContext& ctx) {
        if (ctx.num_inputs() < 1) {
            ctx.Fail("expected at least 1 input");
        }
        const std::int64_t axis_attr = ctx.RequireIntAttr("axis");
        TypeInfo out;
        for (int i = 0; i < ctx.num_inputs(); ++i) {
            if (!ctx.KnownDType(i)) {
                continue;
            }
            if (!out.has_dtype) {
                out.has_dtype = true;
                out.dtype = ctx.input(i).dtype;
            } else if (out.dtype != ctx.input(i).dtype) {
                ctx.Fail("input dtypes differ: expected " +
                         std::string(DTypeName(out.dtype)) + ", got " +
                         std::string(DTypeName(ctx.input(i).dtype)) +
                         " (input " + std::to_string(i) + ")");
            }
        }
        bool all_known = true;
        for (int i = 0; i < ctx.num_inputs(); ++i) {
            if (!ctx.KnownShape(i)) {
                all_known = false;
            }
        }
        if (all_known) {
            const Shape& first = ctx.input(0).shape;
            const int axis = norm_axis(ctx, axis_attr, first.rank());
            std::vector<std::int64_t> dims = first.dims();
            for (int i = 1; i < ctx.num_inputs(); ++i) {
                const Shape& s = ctx.input(i).shape;
                if (s.rank() != first.rank()) {
                    ctx.Fail("rank mismatch: expected " +
                             std::to_string(first.rank()) + ", got " +
                             std::to_string(s.rank()) + " (input " +
                             std::to_string(i) + ")");
                }
                for (int d = 0; d < first.rank(); ++d) {
                    if (d != axis && s.dim(d) != first.dim(d)) {
                        ctx.Fail("dim " + std::to_string(d) +
                                 ": expected " +
                                 std::to_string(first.dim(d)) + ", got " +
                                 std::to_string(s.dim(d)) + " (input " +
                                 std::to_string(i) + ")");
                    }
                }
                dims[static_cast<std::size_t>(axis)] += s.dim(axis);
            }
            out.has_shape = true;
            out.shape = Shape(dims);
        }
        ctx.set_output(0, out);
    });

    shapes.Register("ConcatGrad", [norm_axis](InferenceContext& ctx) {
        if (ctx.num_inputs() < 2) {
            ctx.Fail("expected (grad, ref...) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        if (ctx.num_outputs() != ctx.num_inputs() - 1) {
            ctx.Fail("expected " + std::to_string(ctx.num_inputs() - 1) +
                     " outputs, got " + std::to_string(ctx.num_outputs()));
        }
        const std::int64_t axis_attr = ctx.RequireIntAttr("axis");
        for (int i = 1; i < ctx.num_inputs(); ++i) {
            ctx.set_output(i - 1, ctx.input(i));
        }
        if (!ctx.KnownShape(0)) {
            return;
        }
        const Shape& grad = ctx.input(0).shape;
        const int axis = norm_axis(ctx, axis_attr, grad.rank());
        bool all_known = true;
        std::int64_t total = 0;
        for (int i = 1; i < ctx.num_inputs(); ++i) {
            if (!ctx.KnownShape(i)) {
                all_known = false;
                continue;
            }
            const Shape& ref = ctx.input(i).shape;
            if (ref.rank() != grad.rank()) {
                ctx.Fail("rank mismatch: expected " +
                         std::to_string(grad.rank()) + ", got " +
                         std::to_string(ref.rank()) + " (input " +
                         std::to_string(i) + ")");
            }
            total += ref.dim(axis);
        }
        if (all_known && total != grad.dim(axis)) {
            ctx.Fail("concat axis extents: expected " +
                     std::to_string(grad.dim(axis)) + ", got " +
                     std::to_string(total));
        }
    });

    shapes.Register("Split", [norm_axis](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const std::int64_t n = ctx.RequireIntAttr("num_splits");
        const std::int64_t axis_attr = ctx.RequireIntAttr("axis");
        if (n < 1) {
            ctx.Fail("num_splits must be >= 1, got " + std::to_string(n));
        }
        if (ctx.num_outputs() != static_cast<int>(n)) {
            ctx.Fail("expected " + std::to_string(n) + " outputs, got " +
                     std::to_string(ctx.num_outputs()));
        }
        TypeInfo part;
        if (ctx.KnownDType(0)) {
            part.has_dtype = true;
            part.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(0)) {
            const Shape& in = ctx.input(0).shape;
            const int axis = norm_axis(ctx, axis_attr, in.rank());
            if (in.dim(axis) % n != 0) {
                ctx.Fail("axis extent " + std::to_string(in.dim(axis)) +
                         " not divisible into " + std::to_string(n) +
                         " parts");
            }
            std::vector<std::int64_t> dims = in.dims();
            dims[static_cast<std::size_t>(axis)] /= n;
            part.has_shape = true;
            part.shape = Shape(dims);
        }
        for (int i = 0; i < ctx.num_outputs(); ++i) {
            ctx.set_output(i, part);
        }
    });

    shapes.Register("Slice", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& begin = ctx.RequireIntListAttr("begin");
        const auto& size = ctx.RequireIntListAttr("size");
        if (begin.size() != size.size()) {
            ctx.Fail("begin has " + std::to_string(begin.size()) +
                     " entries, size has " + std::to_string(size.size()));
        }
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(0)) {
            const Shape& in = ctx.input(0).shape;
            if (static_cast<int>(begin.size()) != in.rank()) {
                ctx.Fail("begin has " + std::to_string(begin.size()) +
                         " entries for rank " + std::to_string(in.rank()));
            }
            std::vector<std::int64_t> dims(begin.size());
            for (int d = 0; d < in.rank(); ++d) {
                const std::int64_t b = begin[static_cast<std::size_t>(d)];
                // -1 = "to the end of the axis", as the kernel resolves.
                const std::int64_t s =
                    size[static_cast<std::size_t>(d)] == -1
                        ? in.dim(d) - b
                        : size[static_cast<std::size_t>(d)];
                if (b < 0 || s < 0 || b + s > in.dim(d)) {
                    ctx.Fail("dim " + std::to_string(d) + ": slice [" +
                             std::to_string(b) + ", " +
                             std::to_string(b + s) +
                             ") out of range [0, " +
                             std::to_string(in.dim(d)) + ")");
                }
                dims[static_cast<std::size_t>(d)] = s;
            }
            out.has_shape = true;
            out.shape = Shape(dims);
        } else {
            bool sizes_known = true;
            for (std::int64_t s : size) {
                if (s < 0) {
                    sizes_known = false;
                }
            }
            if (sizes_known) {
                out.has_shape = true;
                out.shape = Shape(size);
            }
        }
        ctx.set_output(0, out);
    });

    shapes.Register("SliceGrad", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected (grad, ref) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& begin = ctx.RequireIntListAttr("begin");
        if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
            const Shape& grad = ctx.input(0).shape;
            const Shape& ref = ctx.input(1).shape;
            if (grad.rank() != ref.rank() ||
                static_cast<int>(begin.size()) != ref.rank()) {
                ctx.Fail("rank mismatch between grad " + grad.ToString() +
                         ", ref " + ref.ToString() + ", and begin of " +
                         std::to_string(begin.size()) + " entries");
            }
            for (int d = 0; d < ref.rank(); ++d) {
                const std::int64_t b = begin[static_cast<std::size_t>(d)];
                if (b < 0 || b + grad.dim(d) > ref.dim(d)) {
                    ctx.Fail("dim " + std::to_string(d) +
                             ": scattered slice [" + std::to_string(b) +
                             ", " + std::to_string(b + grad.dim(d)) +
                             ") out of range [0, " +
                             std::to_string(ref.dim(d)) + ")");
                }
            }
        }
        ctx.set_output(0, ctx.input(1));
    });

    shapes.Register("Gather", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 2) {
            ctx.Fail("expected (params, indices) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(1, DType::kInt32);
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
            const Shape& params = ctx.input(0).shape;
            if (params.rank() < 1) {
                ctx.Fail("params must have rank >= 1, got " +
                         params.ToString());
            }
            std::vector<std::int64_t> dims = ctx.input(1).shape.dims();
            for (int d = 1; d < params.rank(); ++d) {
                dims.push_back(params.dim(d));
            }
            out.has_shape = true;
            out.shape = Shape(dims);
        }
        ctx.set_output(0, out);
    });

    shapes.Register("GatherGrad", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 3) {
            ctx.Fail("expected (params_ref, indices, grad) inputs, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(1, DType::kInt32);
        if (ctx.KnownShape(0) && ctx.KnownShape(1) && ctx.KnownShape(2)) {
            const Shape& params = ctx.input(0).shape;
            std::vector<std::int64_t> dims = ctx.input(1).shape.dims();
            for (int d = 1; d < params.rank(); ++d) {
                dims.push_back(params.dim(d));
            }
            const Shape expected(dims);
            if (!(ctx.input(2).shape == expected)) {
                ctx.Fail("grad shape: expected " + expected.ToString() +
                         ", got " + ctx.input(2).shape.ToString());
            }
        }
        ctx.set_output(0, ctx.input(0));
    });

    shapes.Register("OneHot", [](InferenceContext& ctx) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        ctx.ExpectDType(0, DType::kInt32);
        const std::int64_t depth = ctx.RequireIntAttr("depth");
        if (depth < 1) {
            ctx.Fail("depth must be >= 1, got " + std::to_string(depth));
        }
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        if (ctx.KnownShape(0)) {
            std::vector<std::int64_t> dims = ctx.input(0).shape.dims();
            dims.push_back(depth);
            out.has_shape = true;
            out.shape = Shape(dims);
        }
        ctx.set_output(0, out);
    });

    // Pad adds (before + after) to each dim; PadGrad removes it.
    auto pad_shape = [](InferenceContext& ctx, std::int64_t sign) {
        if (ctx.num_inputs() != 1) {
            ctx.Fail("expected 1 input, got " +
                     std::to_string(ctx.num_inputs()));
        }
        const auto& flat = ctx.RequireIntListAttr("paddings");
        if (flat.size() % 2 != 0) {
            ctx.Fail("paddings attr must have even length, got " +
                     std::to_string(flat.size()));
        }
        TypeInfo out;
        if (ctx.KnownDType(0)) {
            out.has_dtype = true;
            out.dtype = ctx.input(0).dtype;
        }
        if (ctx.KnownShape(0)) {
            const Shape& in = ctx.input(0).shape;
            if (static_cast<int>(flat.size()) != 2 * in.rank()) {
                ctx.Fail("paddings has " + std::to_string(flat.size()) +
                         " entries for rank " + std::to_string(in.rank()));
            }
            std::vector<std::int64_t> dims(
                static_cast<std::size_t>(in.rank()));
            for (int d = 0; d < in.rank(); ++d) {
                const std::int64_t v =
                    in.dim(d) +
                    sign * (flat[static_cast<std::size_t>(2 * d)] +
                            flat[static_cast<std::size_t>(2 * d + 1)]);
                if (v < 0) {
                    ctx.Fail("dim " + std::to_string(d) +
                             ": padded extent is negative (" +
                             std::to_string(v) + ")");
                }
                dims[static_cast<std::size_t>(d)] = v;
            }
            out.has_shape = true;
            out.shape = Shape(dims);
        }
        ctx.set_output(0, out);
    };
    shapes.Register("Pad",
                    [pad_shape](InferenceContext& ctx) { pad_shape(ctx, 1); });
    shapes.Register("PadGrad", [pad_shape](InferenceContext& ctx) {
        pad_shape(ctx, -1);
    });
}

}  // namespace fathom::ops
