#include "graph/rewrite/rewrite.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "graph/rewrite/fusion_stages.h"
#include "graph/verify/verifier.h"
#include "parallel/thread_pool.h"
#include "telemetry/metrics.h"
#include "tensor/rng.h"

namespace fathom::graph::rewrite {

namespace {

std::string
AttrsSignatureOf(const std::map<std::string, AttrValue>& attrs)
{
    std::ostringstream out;
    for (const auto& [key, value] : attrs) {
        out << key << "=";
        // AttrValue intentionally has no general introspection; probe
        // the variant through its typed accessors.
        try {
            out << "i" << value.AsInt();
            continue;
        } catch (const std::logic_error&) {
        }
        try {
            // Encode the exact bit pattern: streaming the float with
            // default ostream precision made attrs differing below six
            // significant digits produce identical signatures, wrongly
            // merging non-equivalent nodes. This also keeps
            // +0.0f/-0.0f and NaN payloads distinct.
            const float f = value.AsFloat();
            std::uint32_t bits = 0;
            static_assert(sizeof(bits) == sizeof(f));
            std::memcpy(&bits, &f, sizeof(bits));
            out << "f" << bits;
            continue;
        } catch (const std::logic_error&) {
        }
        try {
            out << "b" << value.AsBool();
            continue;
        } catch (const std::logic_error&) {
        }
        try {
            out << "s" << value.AsString();
            continue;
        } catch (const std::logic_error&) {
        }
        try {
            out << "l";
            for (std::int64_t v : value.AsIntList()) {
                out << v << ",";
            }
            continue;
        } catch (const std::logic_error&) {
        }
        out << "?";
    }
    return out.str();
}

std::uint64_t
Fnv1a64(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
HexDigest(std::uint64_t h)
{
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

std::uint64_t
EdgeKey(const Output& edge)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(edge.node))
            << 32) |
           static_cast<std::uint32_t>(edge.index);
}

}  // namespace

std::string
AttrsSignature(const Node& node)
{
    return AttrsSignatureOf(node.attrs);
}

std::string
RewriteOptions::CacheKey() const
{
    std::string key = "f0c0t0e0i0v0m";
    key[1] = constant_folding ? '1' : '0';
    key[3] = common_subexpression ? '1' : '0';
    key[5] = transpose_folding ? '1' : '0';
    key[7] = elementwise_fusion ? '1' : '0';
    key[9] = inplace ? '1' : '0';
    key[11] = variables_as_constants ? '1' : '0';
    return key + std::to_string(max_passes) + (verify ? "y1" : "y0");
}

// ---------------------------------------------------------------------------
// RewriteState
// ---------------------------------------------------------------------------

RewriteState::RewriteState(Graph& graph, VariableStore& variables,
                           const RewriteOptions& options,
                           std::vector<NodeId> initial_order,
                           const std::vector<NodeId>& protected_roots)
    : graph_(&graph), variables_(&variables), options_(options),
      order_(std::move(initial_order))
{
    live_.reserve(order_.size());
    for (NodeId id : order_) {
        live_.insert(id);
    }
    for (NodeId root : protected_roots) {
        protected_.insert(root);
    }
}

NodeId
RewriteState::Resolve(NodeId id) const
{
    // Replacements are pre-compressed at insertion, so chains are
    // short; the loop guards against patterns stacking replacements.
    std::size_t hops = 0;
    auto it = replacements_.find(id);
    while (it != replacements_.end()) {
        id = it->second;
        it = replacements_.find(id);
        if (++hops > replacements_.size()) {
            throw std::logic_error("RewriteState::Resolve: replacement cycle");
        }
    }
    return id;
}

const OpDef*
RewriteState::Lookup(const std::string& op_type) const
{
    const OpRegistry& registry = OpRegistry::Global();
    return registry.Contains(op_type) ? &registry.Lookup(op_type) : nullptr;
}

bool
RewriteState::IsPure(const Node& node) const
{
    const OpDef* def = Lookup(node.op_type);
    return def != nullptr && !def->stateful && !IsPinned(node.op_type);
}

bool
RewriteState::IsPinned(const std::string& op_type)
{
    return op_type == "Placeholder" || op_type == "Variable" ||
           op_type == "Assign" || op_type == "NoOp" ||
           op_type.rfind("Apply", 0) == 0;
}

bool
RewriteState::IsViewOp(const std::string& op_type)
{
    // Kernels whose output tensor shares the input's buffer: mutating
    // their output would mutate a value the rewrite cannot see dying.
    return op_type == "Identity" || op_type == "StopGradient" ||
           op_type == "Reshape" || op_type == "ReshapeLike";
}

const std::vector<Tensor>*
RewriteState::FoldedValue(NodeId id) const
{
    auto it = folded_.find(id);
    return it == folded_.end() ? nullptr : &it->second;
}

void
RewriteState::RebuildConsumers() const
{
    edge_uses_.clear();
    data_consumers_.clear();
    sole_consumer_.clear();
    control_consumers_.clear();
    for (NodeId id : order_) {
        const Node& node = graph_->node(id);
        for (const Output& in : node.inputs) {
            const Output re = ResolveEdge(in);
            ++edge_uses_[EdgeKey(re)];
            auto [it, inserted] = data_consumers_.emplace(re.node, 1);
            if (!inserted) {
                ++it->second;
            }
            auto [sc, fresh] = sole_consumer_.emplace(re.node, id);
            if (!fresh && sc->second != id) {
                sc->second = -1;  // more than one distinct consumer.
            }
        }
        for (NodeId c : node.control_inputs) {
            ++control_consumers_[Resolve(c)];
        }
    }
    consumers_dirty_ = false;
}

int
RewriteState::EdgeUseCount(const Output& edge) const
{
    if (consumers_dirty_) {
        RebuildConsumers();
    }
    auto it = edge_uses_.find(EdgeKey(edge));
    return it == edge_uses_.end() ? 0 : it->second;
}

int
RewriteState::NumDataConsumers(NodeId producer) const
{
    if (consumers_dirty_) {
        RebuildConsumers();
    }
    auto it = data_consumers_.find(producer);
    return it == data_consumers_.end() ? 0 : it->second;
}

NodeId
RewriteState::SoleDataConsumer(NodeId producer) const
{
    if (consumers_dirty_) {
        RebuildConsumers();
    }
    auto uses = data_consumers_.find(producer);
    if (uses == data_consumers_.end() || uses->second != 1) {
        return -1;
    }
    auto it = sole_consumer_.find(producer);
    return it == sole_consumer_.end() ? -1 : it->second;
}

int
RewriteState::NumControlConsumers(NodeId id) const
{
    if (consumers_dirty_) {
        RebuildConsumers();
    }
    auto it = control_consumers_.find(id);
    return it == control_consumers_.end() ? 0 : it->second;
}

void
RewriteState::RemoveFromOrder(NodeId id)
{
    auto it = std::find(order_.begin(), order_.end(), id);
    if (it != order_.end()) {
        order_.erase(it);
    }
    live_.erase(id);
}

NodeId
RewriteState::AddOrReuseNode(const std::string& stem,
                             const std::string& op_type,
                             std::vector<Output> inputs,
                             std::map<std::string, AttrValue> attrs,
                             int num_outputs)
{
    std::ostringstream sig;
    sig << op_type << "|" << num_outputs << "|";
    for (const Output& in : inputs) {
        sig << in.node << ":" << in.index << ",";
    }
    sig << "|" << AttrsSignatureOf(attrs);
    const std::string name =
        "__rw/" + stem + "/" + HexDigest(Fnv1a64(sig.str()));

    for (int salt = 0;; ++salt) {
        const std::string candidate =
            salt == 0 ? name : name + "." + std::to_string(salt);
        const NodeId found = graph_->FindNode(candidate);
        if (found < 0) {
            return graph_->AddNode(candidate, op_type, std::move(inputs),
                                   std::move(attrs), num_outputs);
        }
        const Node& existing = graph_->node(found);
        if (existing.op_type == op_type && existing.inputs == inputs &&
            existing.num_outputs == num_outputs &&
            AttrsSignatureOf(existing.attrs) == AttrsSignatureOf(attrs)) {
            return found;  // deterministic replan converged on this node.
        }
        // Hash collision with different content: salt and retry.
    }
}

void
RewriteState::ReplaceNode(NodeId old_node, NodeId with)
{
    const NodeId target = Resolve(with);
    if (target == old_node) {
        return;  // self-replacement is a no-op.
    }
    replacements_[old_node] = target;
    if (protected_.count(old_node) > 0) {
        protected_.insert(target);
    }
    if (!IsLive(target) && !IsFoldedConstant(target)) {
        // A freshly created node: it takes old_node's schedule slot
        // (its inputs all precede that slot, so the order stays
        // topological and barrier positions are unchanged).
        auto it = std::find(order_.begin(), order_.end(), old_node);
        if (it == order_.end()) {
            throw std::logic_error(
                "RewriteState::ReplaceNode: anchor not live");
        }
        *it = target;
        live_.insert(target);
        live_.erase(old_node);
    } else {
        RemoveFromOrder(old_node);
    }
    InvalidateConsumers();
}

void
RewriteState::FoldNode(NodeId id, std::vector<Tensor> outputs)
{
    folded_[id] = std::move(outputs);
    RemoveFromOrder(id);
    InvalidateConsumers();
}

void
RewriteState::FuseChain(const std::vector<NodeId>& members, NodeId fused)
{
    const NodeId tail = members.back();
    auto it = std::find(order_.begin(), order_.end(), tail);
    if (it == order_.end()) {
        throw std::logic_error("RewriteState::FuseChain: tail not live");
    }
    *it = fused;
    live_.insert(fused);
    for (NodeId m : members) {
        replacements_[m] = fused;
        if (protected_.count(m) > 0) {
            protected_.insert(fused);
        }
        if (m != tail) {
            RemoveFromOrder(m);
        } else {
            live_.erase(m);
        }
    }
    InvalidateConsumers();
}

int
RewriteState::RunDeadCodeElimination()
{
    // Rewrites orphan nodes (an absorbed Transpose, a CSE'd duplicate's
    // private Const) rather than deleting them; sweep the order for
    // pure nodes nothing reads or orders on. The original order only
    // contains root-reachable nodes, so on an untouched graph this
    // removes nothing.
    int removed = 0;
    for (;;) {
        std::vector<NodeId> victims;
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
            const NodeId id = *it;
            if (IsProtected(id)) {
                continue;
            }
            const Node& node = graph_->node(id);
            if (!IsPure(node)) {
                continue;
            }
            if (NumDataConsumers(id) > 0 || NumControlConsumers(id) > 0) {
                continue;
            }
            victims.push_back(id);
        }
        if (victims.empty()) {
            return removed;
        }
        for (NodeId v : victims) {
            RemoveFromOrder(v);
        }
        removed += static_cast<int>(victims.size());
        InvalidateConsumers();
    }
}

int
RewriteState::MarkInPlaceSteps(std::vector<char>* inplace) const
{
    inplace->assign(order_.size(), 0);
    int marked = 0;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const Node& node = graph_->node(order_[i]);
        const OpDef* def = Lookup(node.op_type);
        if (def == nullptr || !def->supports_inplace ||
            node.inputs.empty()) {
            continue;
        }
        const Output e0 = ResolveEdge(node.inputs[0]);
        if (e0.index != 0) {
            continue;  // replacement maps are per-node, index 0 only.
        }
        const NodeId p = e0.node;
        // The producer's output must provably die at this consumer:
        // a live, pure, single-output, unfetched step whose only
        // reading edge in the whole plan is this node's input 0, and
        // whose kernel allocated a private buffer (not a view). The
        // executor additionally checks the runtime refcount, which
        // rejects folded/prebound values and cross-step sharing the
        // static proof cannot see.
        if (!IsLive(p) || IsProtected(p)) {
            continue;
        }
        const Node& pn = graph_->node(p);
        if (pn.num_outputs != 1 || IsPinned(pn.op_type) ||
            pn.op_type == "Const" || IsViewOp(pn.op_type)) {
            continue;
        }
        const OpDef* pdef = Lookup(pn.op_type);
        if (pdef == nullptr || pdef->stateful) {
            continue;
        }
        if (EdgeUseCount(e0) != 1) {
            continue;
        }
        (*inplace)[i] = 1;
        ++marked;
    }
    return marked;
}

RewriteResult
RewriteState::Finalize(std::map<std::string, int> fire_counts, int passes,
                       bool clipped)
{
    RewriteResult result;
    result.order = std::move(order_);
    result.folded = std::move(folded_);
    result.fire_counts = std::move(fire_counts);
    result.passes = passes;
    result.clipped = clipped;
    result.replacements.reserve(replacements_.size());
    for (const auto& [id, unused] : replacements_) {
        (void)unused;
        result.replacements[id] = Resolve(id);
    }
    return result;
}

// ---------------------------------------------------------------------------
// Production patterns
// ---------------------------------------------------------------------------

namespace {

/**
 * Compile-time constant folding: a pure node whose inputs are all
 * folded constants is evaluated once, through its real registered
 * kernel — identical arithmetic (including NaN/Inf propagation) to
 * runtime execution — and its outputs enter the folded-value table.
 * Const nodes (and Variables, in variables_as_constants mode) are the
 * folding leaves.
 */
class ConstantFoldingPattern : public Pattern {
  public:
    std::string name() const override { return "constant_folding"; }

    bool
    Apply(RewriteState& state, NodeId anchor) override
    {
        const Node& node = state.graph().node(anchor);
        if (node.num_outputs <= 0) {
            return false;
        }
        if (node.op_type == "Const") {
            state.FoldNode(anchor,
                           {state.variables().Get(
                               node.attr("var_name").AsString())});
            return true;
        }
        if (node.op_type == "Variable" &&
            state.options().variables_as_constants) {
            // Freeze mode: the caller snapshotted variables into the
            // store, so a Variable read is a constant (no Clone — the
            // snapshot is immutable by construction).
            state.FoldNode(anchor,
                           {state.variables().Get(
                               node.attr("var_name").AsString())});
            return true;
        }
        if (!state.IsPure(node) || !node.control_inputs.empty()) {
            return false;
        }
        std::vector<Tensor> inputs;
        inputs.reserve(node.inputs.size());
        for (const Output& in : node.inputs) {
            const Output re = state.ResolveEdge(in);
            const std::vector<Tensor>* value = state.FoldedValue(re.node);
            if (value == nullptr ||
                static_cast<std::size_t>(re.index) >= value->size()) {
                return false;
            }
            inputs.push_back((*value)[static_cast<std::size_t>(re.index)]);
        }
        std::vector<const Tensor*> input_ptrs;
        input_ptrs.reserve(inputs.size());
        for (const Tensor& in : inputs) {
            input_ptrs.push_back(&in);
        }
        const OpDef* def = state.Lookup(node.op_type);
        parallel::ThreadPool fold_pool(1);
        Rng fold_rng(0);  // never drawn from: stateful ops are not pure.
        OpContext ctx(node, graph::OpInputs(input_ptrs), fold_pool, fold_rng,
                      state.variables());
        def->kernel(ctx);
        state.FoldNode(anchor, std::move(ctx.outputs()));
        return true;
    }
};

/**
 * Common-subexpression elimination: pure nodes with identical op type,
 * attrs, resolved data inputs, and resolved control inputs merge into
 * the first occurrence. Control inputs are part of the signature — two
 * otherwise-identical nodes ordered after different events are NOT the
 * same computation (merging them would silently drop an ordering
 * constraint).
 */
class CsePattern : public Pattern {
  public:
    std::string name() const override { return "common_subexpression"; }

    void
    BeginSweep(RewriteState& state) override
    {
        (void)state;
        seen_.clear();
    }

    bool
    Apply(RewriteState& state, NodeId anchor) override
    {
        const Node& node = state.graph().node(anchor);
        if (!state.IsPure(node)) {
            return false;
        }
        std::ostringstream sig;
        sig << node.op_type << "|" << AttrsSignature(node) << "|";
        for (const Output& in : node.inputs) {
            const Output re = state.ResolveEdge(in);
            sig << re.node << ":" << re.index << ",";
        }
        sig << "|";
        std::vector<NodeId> ctrl;
        ctrl.reserve(node.control_inputs.size());
        for (NodeId c : node.control_inputs) {
            ctrl.push_back(state.Resolve(c));
        }
        std::sort(ctrl.begin(), ctrl.end());
        ctrl.erase(std::unique(ctrl.begin(), ctrl.end()), ctrl.end());
        for (NodeId c : ctrl) {
            sig << c << ",";
        }
        auto [it, inserted] = seen_.emplace(sig.str(), anchor);
        if (inserted || it->second == anchor ||
            !state.IsLive(it->second)) {
            return false;
        }
        state.ReplaceNode(anchor, it->second);
        return true;
    }

  private:
    std::unordered_map<std::string, NodeId> seen_;
};

/**
 * Transpose/Reshape folding:
 *  - a rank-2 Transpose feeding a MatMul operand becomes the operand's
 *    transpose flag (the GEMM engine reads transposition as a stride
 *    swap, so accumulation order and result bits are unchanged);
 *  - Transpose-of-Transpose composes into one permutation;
 *  - an identity-permutation Transpose is elided entirely;
 *  - Reshape-of-Reshape collapses to the outer Reshape (the element
 *    count is preserved by both, so a -1 wildcard resolves the same).
 */
class TransposeFoldingPattern : public Pattern {
  public:
    std::string name() const override { return "transpose_folding"; }

    bool
    Apply(RewriteState& state, NodeId anchor) override
    {
        const Node& node = state.graph().node(anchor);
        if (node.op_type == "MatMul") {
            return FoldIntoMatMul(state, anchor);
        }
        if (node.op_type == "Transpose") {
            return SimplifyTranspose(state, anchor);
        }
        if (node.op_type == "Reshape") {
            return ComposeReshape(state, anchor);
        }
        return false;
    }

  private:
    static bool
    IsSwapPerm(const std::vector<std::int64_t>& perm)
    {
        return perm.size() == 2 && perm[0] == 1 && perm[1] == 0;
    }

    static bool
    IsIdentityPerm(const std::vector<std::int64_t>& perm)
    {
        for (std::size_t i = 0; i < perm.size(); ++i) {
            if (perm[i] != static_cast<std::int64_t>(i)) {
                return false;
            }
        }
        return true;
    }

    /** Copies @p from's control deps onto @p to (deduplicated). */
    static void
    InheritControl(RewriteState& state, const Node& from, NodeId to)
    {
        Node& dst = state.graph().mutable_node(to);
        for (NodeId c : from.control_inputs) {
            const NodeId rc = state.Resolve(c);
            if (std::find(dst.control_inputs.begin(),
                          dst.control_inputs.end(),
                          rc) == dst.control_inputs.end()) {
                state.graph().AddControlEdge(rc, to);
            }
        }
    }

    bool
    FoldIntoMatMul(RewriteState& state, NodeId anchor)
    {
        const Node& node = state.graph().node(anchor);
        if (node.inputs.size() != 2) {
            return false;
        }
        bool flags[2] = {node.attr_bool("transpose_a", false),
                         node.attr_bool("transpose_b", false)};
        Output operands[2] = {state.ResolveEdge(node.inputs[0]),
                              state.ResolveEdge(node.inputs[1])};
        bool absorbed = false;
        for (int side = 0; side < 2; ++side) {
            const Output& e = operands[side];
            if (!state.IsLive(e.node) || e.index != 0) {
                continue;
            }
            const Node& p = state.graph().node(e.node);
            if (p.op_type != "Transpose" ||
                !IsSwapPerm(p.attr("perm").AsIntList())) {
                continue;
            }
            operands[side] = state.ResolveEdge(p.inputs[0]);
            flags[side] = !flags[side];
            absorbed = true;
        }
        if (!absorbed) {
            return false;
        }
        const NodeId merged = state.AddOrReuseNode(
            "matmul@" + std::to_string(anchor), "MatMul",
            {operands[0], operands[1]},
            {{"transpose_a", flags[0]}, {"transpose_b", flags[1]}});
        InheritControl(state, node, merged);
        state.ReplaceNode(anchor, merged);
        return true;
    }

    bool
    SimplifyTranspose(RewriteState& state, NodeId anchor)
    {
        const Node& node = state.graph().node(anchor);
        const std::vector<std::int64_t>& perm = node.attr("perm").AsIntList();
        const Output e = state.ResolveEdge(node.inputs[0]);
        if (IsIdentityPerm(perm)) {
            // Elide: consumers read the input directly. Needs index-0
            // producers (replacements preserve the edge index) and no
            // control deps to lose.
            if (e.index != 0 || !node.control_inputs.empty()) {
                return false;
            }
            state.ReplaceNode(anchor, e.node);
            return true;
        }
        if (!state.IsLive(e.node) || e.index != 0) {
            return false;
        }
        const Node& p = state.graph().node(e.node);
        if (p.op_type != "Transpose") {
            return false;
        }
        const std::vector<std::int64_t>& inner = p.attr("perm").AsIntList();
        if (inner.size() != perm.size()) {
            return false;
        }
        std::vector<std::int64_t> composed(perm.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
            composed[i] = inner[static_cast<std::size_t>(perm[i])];
        }
        const NodeId merged = state.AddOrReuseNode(
            "transpose@" + std::to_string(anchor), "Transpose",
            {state.ResolveEdge(p.inputs[0])}, {{"perm", composed}});
        InheritControl(state, node, merged);
        state.ReplaceNode(anchor, merged);
        return true;
    }

    bool
    ComposeReshape(RewriteState& state, NodeId anchor)
    {
        const Node& node = state.graph().node(anchor);
        const Output e = state.ResolveEdge(node.inputs[0]);
        if (!state.IsLive(e.node) || e.index != 0) {
            return false;
        }
        const Node& p = state.graph().node(e.node);
        if (p.op_type != "Reshape") {
            return false;
        }
        // Both reshapes preserve the element count, so the outer shape
        // attr (-1 wildcard included) resolves identically against the
        // inner reshape's own input.
        const NodeId merged = state.AddOrReuseNode(
            "reshape@" + std::to_string(anchor), "Reshape",
            {state.ResolveEdge(p.inputs[0])},
            {{"shape", node.attr("shape").AsIntList()}});
        InheritControl(state, node, merged);
        state.ReplaceNode(anchor, merged);
        return true;
    }
};

/**
 * Elementwise-chain fusion: a maximal chain of fusable elementwise ops
 * where every interior value has exactly one reader collapses into one
 * FusedElementwise node that replays the identical scalar sequence in
 * a single pass over memory. Interior members must be unprotected,
 * control-free, single-output pure ops; the tail may be fetched (the
 * fused node replaces it value-identically).
 */
class ElementwiseFusionPattern : public Pattern {
  public:
    std::string name() const override { return "elementwise_fusion"; }

    bool
    Apply(RewriteState& state, NodeId anchor) override
    {
        if (!IsFusable(state, anchor)) {
            return false;
        }
        // Head check: no live fusable producer may absorb the anchor.
        const Node& node = state.graph().node(anchor);
        for (const Output& in : node.inputs) {
            const Output re = state.ResolveEdge(in);
            if (state.IsLive(re.node) && CanLink(state, re.node, anchor)) {
                return false;  // the true head's sweep will fuse us.
            }
        }

        std::vector<NodeId> members{anchor};
        while (true) {
            const NodeId next = state.SoleDataConsumer(members.back());
            if (next < 0 || !CanLink(state, members.back(), next)) {
                break;
            }
            members.push_back(next);
        }
        if (members.size() < 2) {
            return false;
        }

        // Stage encoding: "ops" names, per-stage kind (0 unary,
        // 1 binary with the chain value on the lhs, 2 on the rhs),
        // per-stage float params as exact-bit float attrs, side
        // operands appended as extra inputs in stage order.
        const FusionStageRegistry& stages = FusionStageRegistry::Global();
        std::string ops;
        std::vector<std::int64_t> kinds;
        std::map<std::string, AttrValue> attrs;
        std::vector<Output> inputs;
        inputs.push_back(
            state.ResolveEdge(state.graph().node(anchor).inputs[0]));
        for (std::size_t i = 0; i < members.size(); ++i) {
            const Node& m = state.graph().node(members[i]);
            const FusionStage* stage = stages.Find(m.op_type);
            if (!ops.empty()) {
                ops += ",";
            }
            ops += m.op_type;
            if (stage->arity == 1) {
                kinds.push_back(0);
            } else if (i == 0) {
                kinds.push_back(1);  // head: chain = input 0 by choice.
                inputs.push_back(state.ResolveEdge(m.inputs[1]));
            } else {
                const Output prev = {members[i - 1], 0};
                if (state.ResolveEdge(m.inputs[0]) == prev) {
                    kinds.push_back(1);
                    inputs.push_back(state.ResolveEdge(m.inputs[1]));
                } else {
                    kinds.push_back(2);
                    inputs.push_back(state.ResolveEdge(m.inputs[0]));
                }
            }
            for (std::size_t j = 0; j < stage->param_attrs.size(); ++j) {
                attrs.emplace("p" + std::to_string(i) + "_" +
                                  std::to_string(j),
                              m.attr(stage->param_attrs[j]).AsFloat());
            }
        }
        attrs.emplace("ops", ops);
        attrs.emplace("kinds", kinds);

        const NodeId tail = members.back();
        const NodeId fused = state.AddOrReuseNode(
            "fused@" + std::to_string(tail), "FusedElementwise",
            std::move(inputs), std::move(attrs));
        // The fused node replaces the tail, so it inherits the tail's
        // ordering constraints (interiors are control-free by check).
        {
            const Node& tn = state.graph().node(tail);
            Node& dst = state.graph().mutable_node(fused);
            for (NodeId c : tn.control_inputs) {
                const NodeId rc = state.Resolve(c);
                if (std::find(dst.control_inputs.begin(),
                              dst.control_inputs.end(),
                              rc) == dst.control_inputs.end()) {
                    state.graph().AddControlEdge(rc, fused);
                }
            }
        }
        state.FuseChain(members, fused);
        return true;
    }

  private:
    /** Basic stage eligibility (either chain position). */
    static bool
    IsFusable(RewriteState& state, NodeId id)
    {
        if (!state.IsLive(id)) {
            return false;
        }
        const Node& node = state.graph().node(id);
        if (node.num_outputs != 1 || !state.IsPure(node)) {
            return false;
        }
        const FusionStage* stage =
            FusionStageRegistry::Global().Find(node.op_type);
        if (stage == nullptr) {
            return false;
        }
        return node.inputs.size() == static_cast<std::size_t>(stage->arity);
    }

    /**
     * @return true if @p m may become a chain interior feeding @p s:
     * m's value must die at s (sole reading edge), m must carry no
     * control deps or protection, and s must consume m at exactly one
     * operand slot.
     */
    static bool
    CanLink(RewriteState& state, NodeId m, NodeId s)
    {
        if (!IsFusable(state, m) || !IsFusable(state, s) ||
            state.IsProtected(m)) {
            return false;
        }
        const Node& mn = state.graph().node(m);
        if (!mn.control_inputs.empty()) {
            return false;
        }
        if (state.SoleDataConsumer(m) != s ||
            state.EdgeUseCount({m, 0}) != 1) {
            return false;
        }
        const Node& sn = state.graph().node(s);
        int reads = 0;
        for (const Output& in : sn.inputs) {
            if (state.ResolveEdge(in) == Output{m, 0}) {
                ++reads;
            }
        }
        return reads == 1;
    }
};

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

RewriteResult
RunPatterns(Graph& graph, const std::vector<Output>& fetches,
            const std::vector<NodeId>& targets, VariableStore& variables,
            const std::vector<Pattern*>& patterns,
            const RewriteOptions& options)
{
    std::vector<NodeId> roots;
    roots.reserve(fetches.size() + targets.size());
    for (const Output& f : fetches) {
        roots.push_back(f.node);
    }
    for (NodeId t : targets) {
        roots.push_back(t);
    }

    RewriteState state(graph, variables, options,
                       graph.TopologicalOrder(roots), roots);
    std::map<std::string, int> fires;
    for (const Pattern* p : patterns) {
        fires[p->name()] = 0;  // report zeros for enabled patterns.
    }

    int passes = 0;
    bool clipped = false;
    while (true) {
        if (passes >= options.max_passes) {
            clipped = true;
            break;
        }
        ++passes;
        int fired = 0;
        for (Pattern* p : patterns) {
            p->BeginSweep(state);
            // Snapshot: patterns edit the order mid-sweep.
            const std::vector<NodeId> anchors = state.order();
            int pattern_fires = 0;
            for (NodeId anchor : anchors) {
                if (state.IsLive(anchor) && p->Apply(state, anchor)) {
                    ++pattern_fires;
                }
            }
            fires[p->name()] += pattern_fires;
            fired += pattern_fires;
        }
        const int removed = state.RunDeadCodeElimination();
        if (removed > 0) {
            fires["dce"] += removed;
        }
        if (fired + removed == 0) {
            break;
        }
    }

    std::vector<char> inplace;
    int inplace_marks = 0;
    if (options.inplace) {
        inplace_marks = state.MarkInPlaceSteps(&inplace);
        fires["inplace"] += inplace_marks;
    } else {
        inplace.assign(state.order().size(), 0);
    }

    RewriteResult result = state.Finalize(std::move(fires), passes, clipped);
    result.inplace = std::move(inplace);

    // Post-condition on the fixed point: the produced order must verify
    // (structure, type inference without feed seeds, and the aliasing/
    // determinism lints). Catches a broken pattern before a single
    // kernel runs on its output.
    if (options.verify) {
        verify::VerifyOptions vopts;
        vopts.variables = &variables;
        verify::PlanFacts facts;
        facts.order = &result.order;
        facts.replacements = &result.replacements;
        facts.folded = &result.folded;
        facts.inplace = result.inplace.empty() ? nullptr : &result.inplace;
        verify::VerifyOrThrow(graph, fetches, targets, vopts, &facts);
    }

    if (telemetry::MetricsEnabled()) {
        auto& registry = telemetry::MetricsRegistry::Global();
        registry.GetCounter("rewrite.runs").Add(1);
        registry.GetCounter("rewrite.passes").Add(
            static_cast<std::uint64_t>(result.passes));
        if (result.clipped) {
            registry.GetCounter("rewrite.fixed_point_clipped").Add(1);
        }
        for (const auto& [name, count] : result.fire_counts) {
            if (count > 0) {
                registry.GetCounter("rewrite.fire." + name)
                    .Add(static_cast<std::uint64_t>(count));
            }
        }
    }
    return result;
}

RewriteResult
Rewrite(Graph& graph, const std::vector<Output>& fetches,
        const std::vector<NodeId>& targets, VariableStore& variables,
        const RewriteOptions& options)
{
    ConstantFoldingPattern folding;
    CsePattern cse;
    TransposeFoldingPattern transpose;
    ElementwiseFusionPattern fusion;
    std::vector<Pattern*> patterns;
    if (options.constant_folding) {
        patterns.push_back(&folding);
    }
    if (options.common_subexpression) {
        patterns.push_back(&cse);
    }
    if (options.transpose_folding) {
        patterns.push_back(&transpose);
    }
    if (options.elementwise_fusion) {
        patterns.push_back(&fusion);
    }
    return RunPatterns(graph, fetches, targets, variables, patterns,
                       options);
}

}  // namespace fathom::graph::rewrite
