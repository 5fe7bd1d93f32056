/**
 * @file
 * FusedElementwise: one kernel replaying a fused elementwise chain.
 *
 * Created exclusively by the elementwise-chain fusion rewrite. Node
 * attrs encode the chain: "ops" (comma-joined op types, in execution
 * order), "kinds" (per-stage int: 0 unary, 1 binary with the chain
 * value as lhs, 2 binary with the chain value as rhs), and "p<i>_<j>"
 * (stage i's j-th captured float attr, e.g. Pow's exponent). Input 0 is
 * the chain's start value; each binary stage appends its side operand
 * as the next input, in stage order.
 *
 * Bit identity with the unfused chain is structural: every stage calls
 * the exact scalar function the standalone op kernel calls (shared via
 * FusionStageRegistry), and each element's value depends only on its
 * own index, so making one pass instead of N cannot change any bit.
 */
#include <stdexcept>
#include <vector>

#include "graph/op_registry.h"
#include "graph/rewrite/fusion_stages.h"
#include "graph/verify/shape_inference.h"
#include "kernels/elementwise.h"
#include "ops/common.h"
#include "ops/register.h"

namespace fathom::ops {

using graph::Node;
using graph::OpClass;
using graph::OpContext;
using graph::OpCost;
using graph::OpDef;
using graph::OpRegistry;
using graph::rewrite::FusionStage;
using graph::rewrite::FusionStageRegistry;

namespace {

/** One decoded stage of the chain. */
struct DecodedStage {
    const FusionStage* stage = nullptr;
    int kind = 0;             ///< 0 unary, 1 chain-lhs, 2 chain-rhs.
    int side_input = -1;      ///< ctx input index of the side operand.
    std::vector<float> params;
};

std::vector<DecodedStage>
DecodeStages(const Node& node)
{
    const FusionStageRegistry& registry = FusionStageRegistry::Global();
    const std::string ops = node.attr("ops").AsString();
    const std::vector<std::int64_t> kinds = node.attr("kinds").AsIntList();

    std::vector<DecodedStage> stages;
    int side_input = 1;
    std::size_t start = 0;
    while (start <= ops.size()) {
        std::size_t end = ops.find(',', start);
        if (end == std::string::npos) {
            end = ops.size();
        }
        const std::string op_type = ops.substr(start, end - start);
        DecodedStage decoded;
        decoded.stage = registry.Find(op_type);
        if (decoded.stage == nullptr) {
            throw std::logic_error("FusedElementwise: unknown stage '" +
                                   op_type + "'");
        }
        const std::size_t i = stages.size();
        if (i >= kinds.size()) {
            throw std::logic_error("FusedElementwise: ops/kinds mismatch");
        }
        decoded.kind = static_cast<int>(kinds[i]);
        if (decoded.kind != 0) {
            decoded.side_input = side_input++;
        }
        decoded.params.reserve(decoded.stage->param_attrs.size());
        for (std::size_t j = 0; j < decoded.stage->param_attrs.size(); ++j) {
            decoded.params.push_back(
                node.attr("p" + std::to_string(i) + "_" + std::to_string(j))
                    .AsFloat());
        }
        stages.push_back(std::move(decoded));
        start = end + 1;
    }
    return stages;
}

void
FusedElementwiseKernel(OpContext& ctx)
{
    const std::vector<DecodedStage> stages = DecodeStages(ctx.node());
    const Tensor& chain0 = ctx.input(0);

    // Fast path: every side operand has the chain's shape or a single
    // element, so the whole chain is one loop over elements. Otherwise
    // (a broadcast changes the chain's shape mid-way) fall back to
    // stage-by-stage maps — the same calls the unfused ops would make.
    bool fast = chain0.dtype() == DType::kFloat32;
    for (const DecodedStage& s : stages) {
        if (s.kind == 0) {
            continue;
        }
        const Tensor& side = ctx.input(s.side_input);
        if (side.dtype() != DType::kFloat32 ||
            (side.shape() != chain0.shape() && side.num_elements() != 1)) {
            fast = false;
        }
    }

    if (fast) {
        Tensor out = ctx.may_alias_input()
                         ? chain0
                         : Tensor(DType::kFloat32, chain0.shape());
        struct Step {
            float (*unary)(float, const float*);
            float (*binary)(float, float, const float*);
            int kind;
            const float* side;
            std::int64_t side_stride;  ///< 0 for single-element sides.
            const float* params;
        };
        std::vector<Step> steps;
        steps.reserve(stages.size());
        for (const DecodedStage& s : stages) {
            Step step{s.stage->unary, s.stage->binary, s.kind, nullptr, 0,
                      s.params.data()};
            if (s.kind != 0) {
                const Tensor& side = ctx.input(s.side_input);
                step.side = side.data<float>();
                step.side_stride = side.num_elements() == 1 ? 0 : 1;
            }
            steps.push_back(step);
        }
        const float* in = chain0.data<float>();
        float* o = out.data<float>();
        ctx.pool().ParallelFor(
            chain0.num_elements(), /*grain=*/4096,
            [&](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t i = i0; i < i1; ++i) {
                    float v = in[i];
                    for (const Step& s : steps) {
                        if (s.kind == 0) {
                            v = s.unary(v, s.params);
                        } else {
                            const float side = s.side[i * s.side_stride];
                            v = s.kind == 1 ? s.binary(v, side, s.params)
                                            : s.binary(side, v, s.params);
                        }
                    }
                    o[i] = v;
                }
            });
        ctx.set_output(0, std::move(out));
        return;
    }

    Tensor cur = chain0;
    bool first = true;
    for (const DecodedStage& s : stages) {
        // Intermediates are private to this kernel, so later stages may
        // always write in place; the first stage touches the caller's
        // input and needs the executor's grant.
        const bool alias = first ? ctx.may_alias_input() : true;
        const float* p = s.params.data();
        if (s.kind == 0) {
            auto fn = s.stage->unary;
            cur = kernels::UnaryMap(
                cur, [fn, p](float x) { return fn(x, p); }, ctx.pool(),
                alias);
        } else {
            const Tensor& side = ctx.input(s.side_input);
            auto fn = s.stage->binary;
            // Always pass the chain value as BinaryMap's first operand
            // (the alias target); kind 2 flips the arguments at the
            // scalar level, which computes identical bits because each
            // tensor's broadcast offsets depend only on its own shape.
            cur = s.kind == 1
                      ? kernels::BinaryMap(
                            cur, side,
                            [fn, p](float a, float b) { return fn(a, b, p); },
                            ctx.pool(), alias)
                      : kernels::BinaryMap(
                            cur, side,
                            [fn, p](float a, float b) { return fn(b, a, p); },
                            ctx.pool(), alias);
        }
        first = false;
    }
    ctx.set_output(0, std::move(cur));
}

OpCost
FusedElementwiseCost(const Node& node, graph::OpInputs inputs,
                     const std::vector<Tensor>& outputs)
{
    double flops_per_elem = 0.0;
    const std::vector<DecodedStage> stages = DecodeStages(node);
    for (const DecodedStage& s : stages) {
        flops_per_elem += s.stage->flops_per_elem;
    }
    const std::int64_t n =
        outputs.empty() || !outputs[0].initialized()
            ? 0
            : outputs[0].num_elements();
    OpCost cost;
    cost.flops = flops_per_elem * static_cast<double>(n);
    cost.bytes = BytesOf(inputs) + BytesOf(outputs);
    cost.parallel_work = n;
    return cost;
}

}  // namespace

void
RegisterFusedOps()
{
    OpRegistry::Global().Register(OpDef{
        "FusedElementwise", OpClass::kElementwise, FusedElementwiseKernel,
        FusedElementwiseCost, false, /*supports_inplace=*/true});

    // Attr-schema check: the encoded chain must decode against the
    // FusionStageRegistry (every stage known, kinds parallel to ops,
    // every captured param attr present) and the input count must match
    // the number of binary stages.
    graph::verify::ShapeFnRegistry::Global().Register(
        "FusedElementwise", [](graph::verify::InferenceContext& ctx) {
            using graph::verify::TypeInfo;
            if (ctx.num_inputs() < 1) {
                ctx.Fail("expected at least 1 input");
            }
            std::vector<DecodedStage> stages;
            try {
                stages = DecodeStages(ctx.node());
            } catch (const std::exception& e) {
                ctx.Fail(e.what());
            }
            int expected = 1;
            for (const DecodedStage& s : stages) {
                if (s.kind < 0 || s.kind > 2) {
                    ctx.Fail("kinds attr entry out of range: " +
                             std::to_string(s.kind));
                }
                if (s.kind != 0) {
                    ++expected;
                }
            }
            if (ctx.num_inputs() != expected) {
                ctx.Fail("encoded chain needs " + std::to_string(expected) +
                         " inputs, got " + std::to_string(ctx.num_inputs()));
            }
            bool all_known = true;
            for (int i = 0; i < ctx.num_inputs(); ++i) {
                ctx.ExpectDType(i, DType::kFloat32);
                if (!ctx.KnownShape(i)) {
                    all_known = false;
                }
            }
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (all_known) {
                Shape chain = ctx.input(0).shape;
                for (const DecodedStage& s : stages) {
                    if (s.kind == 0) {
                        continue;
                    }
                    try {
                        chain = graph::verify::BroadcastShapes(
                            chain, ctx.input(s.side_input).shape);
                    } catch (const std::exception& e) {
                        ctx.Fail(e.what());
                    }
                }
                out.has_shape = true;
                out.shape = chain;
            }
            ctx.set_output(0, out);
        });
}

}  // namespace fathom::ops
