#include "graph/verify/verifier.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_set>

#include "graph/op_registry.h"
#include "graph/rewrite/rewrite.h"
#include "telemetry/metrics.h"

namespace fathom::graph::verify {

namespace {

/** Verifier metrics, resolved once (same pattern as SessionMetrics). */
struct VerifyMetrics {
    telemetry::Counter& runs;
    telemetry::Counter& violations;

    static VerifyMetrics&
    Get()
    {
        static VerifyMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new VerifyMetrics{
                r.GetCounter("verify.runs"),
                r.GetCounter("verify.violations"),
            };
        }();
        return *m;
    }
};

/** Edge key for use-count maps: (node id, output index). */
std::uint64_t
EdgeKey(const Output& edge)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(edge.node))
            << 32) |
           static_cast<std::uint32_t>(edge.index);
}

bool
IsRewriteProduced(const std::string& name)
{
    return name.rfind("__rw/", 0) == 0;
}

/** The whole Verify() pass as a class so the walk state is shared. */
class Verifier {
  public:
    Verifier(const Graph& graph, const std::vector<Output>& fetches,
             const std::vector<NodeId>& targets, const VerifyOptions& options,
             const PlanFacts* plan)
        : graph_(graph), fetches_(fetches), targets_(targets),
          options_(options), plan_(plan)
    {
    }

    VerifyReport
    Run()
    {
        CollectRoots();
        CollectClosure();
        TopologicalSort();
        InferTypes();
        CheckFetches();
        LintDeterminism();
        if (plan_ != nullptr && plan_->order != nullptr &&
            plan_->inplace != nullptr) {
            LintInPlace();
        }
        if (plan_ != nullptr && plan_->order != nullptr) {
            LintLiveness();
        }
        report_.nodes_checked = static_cast<int>(order_.size());
        return std::move(report_);
    }

  private:
    void
    Diag(std::string check, NodeId node, std::string message)
    {
        report_.diagnostics.push_back(
            {std::move(check),
             ValidId(node) ? graph_.node(node).name : std::string(),
             std::move(message)});
    }

    bool ValidId(NodeId id) const
    {
        return id >= 0 && id < graph_.num_nodes();
    }

    NodeId
    Resolve(NodeId id) const
    {
        if (plan_ == nullptr || plan_->replacements == nullptr) {
            return id;
        }
        auto it = plan_->replacements->find(id);
        return it == plan_->replacements->end() ? id : it->second;
    }

    /**
     * Registry lookups memoized per op type: the lints resolve every
     * node's OpDef (and InferTypes its ShapeFn), and both registries
     * key by string — one map walk per distinct op type instead of per
     * node keeps large-graph verification ~O(nodes).
     */
    struct OpHooks {
        const OpDef* def = nullptr;
        const ShapeFn* shape_fn = nullptr;
    };

    const OpHooks&
    LookupHooks(const std::string& op_type)
    {
        auto it = op_cache_.find(op_type);
        if (it == op_cache_.end()) {
            const OpRegistry& registry = OpRegistry::Global();
            OpHooks hooks;
            hooks.def = registry.Contains(op_type) ? &registry.Lookup(op_type)
                                                   : nullptr;
            hooks.shape_fn = ShapeFnRegistry::Global().Find(op_type);
            it = op_cache_.emplace(op_type, hooks).first;
        }
        return it->second;
    }

    const OpDef*
    LookupDef(const std::string& op_type)
    {
        return LookupHooks(op_type).def;
    }

    void
    CollectRoots()
    {
        for (const Output& f : fetches_) {
            if (!ValidId(f.node)) {
                Diag("bad-fetch", -1,
                     "fetch references node id " + std::to_string(f.node) +
                         " outside the graph (" +
                         std::to_string(graph_.num_nodes()) + " nodes)");
                continue;
            }
            roots_.push_back(f.node);
        }
        for (NodeId t : targets_) {
            if (!ValidId(t)) {
                Diag("bad-fetch", -1,
                     "target references node id " + std::to_string(t) +
                         " outside the graph (" +
                         std::to_string(graph_.num_nodes()) + " nodes)");
                continue;
            }
            roots_.push_back(t);
        }
    }

    /**
     * BFS over data+control edges from the roots, validating every
     * edge as it is crossed. Invalid edges are diagnosed and skipped so
     * the walk (and later phases) can continue past them.
     */
    void
    CollectClosure()
    {
        std::deque<NodeId> frontier;
        for (NodeId r : roots_) {
            if (closure_.insert(r).second) {
                frontier.push_back(r);
            }
        }
        while (!frontier.empty()) {
            const NodeId id = frontier.front();
            frontier.pop_front();
            const Node& node = graph_.node(id);
            for (std::size_t k = 0; k < node.inputs.size(); ++k) {
                const Output& in = node.inputs[k];
                if (!ValidId(in.node)) {
                    Diag("dangling-input", id,
                         "input " + std::to_string(k) +
                             " references node id " +
                             std::to_string(in.node) + " outside the graph");
                    continue;
                }
                const Node& producer = graph_.node(in.node);
                if (in.index < 0 || in.index >= producer.num_outputs) {
                    Diag("dangling-input", id,
                         "input " + std::to_string(k) + " reads output " +
                             std::to_string(in.index) + " of '" +
                             producer.name + "', which has " +
                             std::to_string(producer.num_outputs) +
                             " outputs");
                    continue;
                }
                if (closure_.insert(in.node).second) {
                    frontier.push_back(in.node);
                }
            }
            for (NodeId c : node.control_inputs) {
                if (!ValidId(c)) {
                    Diag("dangling-control", id,
                         "control input references node id " +
                             std::to_string(c) + " outside the graph");
                    continue;
                }
                if (c == id) {
                    Diag("dangling-control", id,
                         "control input references the node itself");
                    continue;
                }
                if (closure_.insert(c).second) {
                    frontier.push_back(c);
                }
            }
        }
    }

    /**
     * Kahn's algorithm over the closure (valid edges only), smallest
     * node id first so the order — and any cycle diagnostic — is
     * deterministic. Unlike Graph::TopologicalOrder, a cycle here
     * produces a named diagnostic instead of a thrown logic_error.
     */
    void
    TopologicalSort()
    {
        // Node ids are dense, so plain id-indexed vectors beat hash
        // maps here; -1 marks ids outside the closure.
        const std::size_t n = static_cast<std::size_t>(graph_.num_nodes());
        std::vector<int> indegree(n, -1);
        std::vector<std::vector<NodeId>> dependents(n);
        for (NodeId id : closure_) {
            indegree[static_cast<std::size_t>(id)] = 0;
        }
        auto add_edge = [&](NodeId from, NodeId to) {
            if (indegree[static_cast<std::size_t>(from)] < 0) {
                return;  // edge out of an invalid/unwalked reference.
            }
            dependents[static_cast<std::size_t>(from)].push_back(to);
            ++indegree[static_cast<std::size_t>(to)];
        };
        for (NodeId id : closure_) {
            const Node& node = graph_.node(id);
            for (const Output& in : node.inputs) {
                if (ValidId(in.node)) {
                    add_edge(in.node, id);
                }
            }
            for (NodeId c : node.control_inputs) {
                if (ValidId(c) && c != id) {
                    add_edge(c, id);
                }
            }
        }
        // Min-heap over ready ids (std::set doubles as one).
        std::set<NodeId> ready;
        for (std::size_t id = 0; id < n; ++id) {
            if (indegree[id] == 0) {
                ready.insert(static_cast<NodeId>(id));
            }
        }
        order_.reserve(closure_.size());
        while (!ready.empty()) {
            const NodeId id = *ready.begin();
            ready.erase(ready.begin());
            order_.push_back(id);
            for (NodeId d : dependents[static_cast<std::size_t>(id)]) {
                if (--indegree[static_cast<std::size_t>(d)] == 0) {
                    ready.insert(d);
                }
            }
        }
        if (order_.size() < closure_.size()) {
            // Name the smallest-id node stuck in the cycle.
            NodeId stuck = -1;
            for (std::size_t id = 0; id < n; ++id) {
                if (indegree[id] > 0) {
                    stuck = static_cast<NodeId>(id);
                    break;
                }
            }
            Diag("cycle", stuck,
                 "node is part of a dependency cycle (" +
                     std::to_string(closure_.size() - order_.size()) +
                     " nodes unresolvable)");
        }
    }

    /**
     * Folds the per-op shape fns over the topological order. A node
     * whose op is unregistered or shape-fn-less, or whose fn throws,
     * is diagnosed and left with unknown outputs so inference
     * continues downstream.
     */
    void
    InferTypes()
    {
        // Id-indexed view into report_.types (whose node-based storage
        // keeps the pointers stable), so each input edge resolves its
        // producer's types in O(1) instead of a hash walk.
        std::vector<const std::vector<TypeInfo>*> typed(
            static_cast<std::size_t>(graph_.num_nodes()), nullptr);
        report_.types.reserve(order_.size());
        for (NodeId id : order_) {
            const Node& node = graph_.node(id);
            std::vector<TypeInfo>& out = report_.types[id];
            out.assign(static_cast<std::size_t>(std::max(node.num_outputs, 0)),
                       TypeInfo::Unknown());
            typed[static_cast<std::size_t>(id)] = &out;

            const OpHooks& hooks = LookupHooks(node.op_type);
            if (hooks.def == nullptr) {
                Diag("unknown-op", id,
                     "op type '" + node.op_type + "' is not registered");
                continue;
            }
            const ShapeFn* fn = hooks.shape_fn;
            if (fn == nullptr) {
                Diag("missing-shape-fn", id,
                     "op type '" + node.op_type +
                         "' has no shape/dtype inference function");
                continue;
            }

            std::vector<TypeInfo> inputs;
            inputs.reserve(node.inputs.size());
            for (const Output& in : node.inputs) {
                TypeInfo t = TypeInfo::Unknown();
                if (ValidId(in.node)) {
                    const std::vector<TypeInfo>* produced =
                        typed[static_cast<std::size_t>(in.node)];
                    if (produced != nullptr && in.index >= 0 &&
                        static_cast<std::size_t>(in.index) <
                            produced->size()) {
                        t = (*produced)[static_cast<std::size_t>(in.index)];
                    }
                }
                inputs.push_back(std::move(t));
            }

            InferenceContext ctx(node, std::move(inputs), options_.variables);
            try {
                (*fn)(ctx);
                out = ctx.outputs();
            } catch (const std::exception& e) {
                Diag("shape-inference", id, e.what());
            }
            if (ctx.produces_no_output()) {
                no_output_.insert(id);
            }
            // Feed seeds override whatever the Placeholder fn left.
            if (node.op_type == "Placeholder") {
                auto seed = options_.feed_types.find(id);
                if (seed != options_.feed_types.end() && !out.empty()) {
                    out[0] = seed->second;
                }
            }
        }
    }

    void
    CheckFetches()
    {
        for (const Output& f : fetches_) {
            if (!ValidId(f.node)) {
                continue;  // already diagnosed in CollectRoots.
            }
            const Node& node = graph_.node(f.node);
            if (f.index < 0 || f.index >= node.num_outputs) {
                Diag("bad-fetch", f.node,
                     "fetch reads output " + std::to_string(f.index) +
                         " but the node has " +
                         std::to_string(node.num_outputs) + " outputs");
                continue;
            }
            const NodeId producer = Resolve(f.node);
            if (no_output_.count(producer) > 0) {
                const Node& p = graph_.node(producer);
                Diag("bad-fetch", f.node,
                     "fetch reads '" + p.name + "' (" + p.op_type +
                         "), whose kernel produces no output value — "
                         "run it as a target instead");
            }
        }
    }

    /**
     * Determinism lint: rewrite-produced nodes must be pure; in frozen
     * mode nothing may be stateful; and with plan facts, no reachable
     * stateful op may have been folded, replaced, or dropped from the
     * plan order (the barrier sequence must survive rewriting intact).
     */
    void
    LintDeterminism()
    {
        std::unordered_set<NodeId> live;
        if (plan_ != nullptr && plan_->order != nullptr) {
            live.insert(plan_->order->begin(), plan_->order->end());
        }
        for (NodeId id : order_) {
            const Node& node = graph_.node(id);
            const OpDef* def = LookupDef(node.op_type);
            if (def == nullptr || !def->stateful) {
                if (def != nullptr && IsRewriteProduced(node.name) &&
                    rewrite::RewriteState::IsPinned(node.op_type)) {
                    Diag("determinism", id,
                         "rewrite-produced node has pinned op type '" +
                             node.op_type + "'");
                }
                continue;
            }
            if (IsRewriteProduced(node.name)) {
                Diag("determinism", id,
                     "rewrite-produced node has a stateful kernel ('" +
                         node.op_type + "' is not registered pure)");
            }
            if (options_.frozen) {
                Diag("determinism", id,
                     "stateful op '" + node.op_type +
                         "' in a frozen (reentrant, side-effect-free) plan");
            }
            if (plan_ == nullptr || plan_->order == nullptr) {
                continue;
            }
            if (plan_->folded != nullptr && plan_->folded->count(id) > 0) {
                Diag("determinism", id,
                     "stateful op '" + node.op_type +
                         "' was constant-folded by a rewrite");
            } else if (plan_->replacements != nullptr &&
                       plan_->replacements->count(id) > 0) {
                Diag("determinism", id,
                     "stateful op '" + node.op_type +
                         "' was replaced by a rewrite");
            } else if (live.count(id) == 0) {
                Diag("determinism", id,
                     "stateful op '" + node.op_type +
                         "' reachable from the roots is missing from the "
                         "plan order (barrier dropped)");
            }
        }
    }

    /**
     * Aliasing lint: re-derives, for every step the rewriter marked
     * in-place, the full static proof that the step's first input dies
     * there — mirroring RewriteState::MarkInPlaceSteps condition for
     * condition. Any marked step failing a condition is unsafe: the
     * kernel could overwrite a buffer another step still reads.
     */
    void
    LintInPlace()
    {
        const std::vector<NodeId>& order = *plan_->order;
        const std::vector<char>& inplace = *plan_->inplace;
        if (inplace.size() != order.size()) {
            Diag("inplace", -1,
                 "inplace vector size: expected " +
                     std::to_string(order.size()) + " (plan steps), got " +
                     std::to_string(inplace.size()));
            return;
        }
        std::unordered_set<NodeId> live(order.begin(), order.end());
        std::unordered_set<NodeId> protected_nodes;
        for (const Output& f : fetches_) {
            if (ValidId(f.node)) {
                protected_nodes.insert(Resolve(f.node));
            }
        }
        for (NodeId t : targets_) {
            if (ValidId(t)) {
                protected_nodes.insert(Resolve(t));
            }
        }
        // Use count per resolved edge over the live plan's data reads.
        std::unordered_map<std::uint64_t, int> edge_uses;
        for (NodeId id : order) {
            for (const Output& in : graph_.node(id).inputs) {
                if (ValidId(in.node)) {
                    ++edge_uses[EdgeKey({Resolve(in.node), in.index})];
                }
            }
        }

        for (std::size_t i = 0; i < order.size(); ++i) {
            if (!inplace[i]) {
                continue;
            }
            const NodeId id = order[i];
            const Node& node = graph_.node(id);
            const OpDef* def = LookupDef(node.op_type);
            if (def == nullptr || !def->supports_inplace) {
                Diag("inplace", id,
                     "step marked in-place but kernel '" + node.op_type +
                         "' does not support in-place execution");
                continue;
            }
            if (node.inputs.empty()) {
                Diag("inplace", id,
                     "step marked in-place but the node has no inputs");
                continue;
            }
            if (!ValidId(node.inputs[0].node)) {
                continue;  // dangling input, already diagnosed.
            }
            const Output e0 = {Resolve(node.inputs[0].node),
                               node.inputs[0].index};
            if (e0.index != 0) {
                Diag("inplace", id,
                     "step marked in-place but input 0 reads output " +
                         std::to_string(e0.index) +
                         " (only output 0 aliasing is provable)");
                continue;
            }
            const Node& producer = graph_.node(e0.node);
            if (live.count(e0.node) == 0) {
                Diag("inplace", id,
                     "in-place input producer '" + producer.name +
                         "' is not a live plan step");
                continue;
            }
            if (protected_nodes.count(e0.node) > 0) {
                Diag("inplace", id,
                     "in-place input producer '" + producer.name +
                         "' is a fetched/target value and must survive "
                         "the step");
                continue;
            }
            if (producer.num_outputs != 1 ||
                rewrite::RewriteState::IsPinned(producer.op_type) ||
                producer.op_type == "Const" ||
                rewrite::RewriteState::IsViewOp(producer.op_type)) {
                Diag("inplace", id,
                     "in-place input producer '" + producer.name + "' (" +
                         producer.op_type +
                         ") does not own a private single-output buffer");
                continue;
            }
            const OpDef* pdef = LookupDef(producer.op_type);
            if (pdef == nullptr || pdef->stateful) {
                Diag("inplace", id,
                     "in-place input producer '" + producer.name +
                         "' is stateful or unregistered");
                continue;
            }
            auto uses = edge_uses.find(EdgeKey(e0));
            const int use_count = uses == edge_uses.end() ? 0 : uses->second;
            if (use_count != 1) {
                Diag("inplace", id,
                     "in-place input of '" + producer.name +
                         "' has use count: expected 1, got " +
                         std::to_string(use_count));
            }
        }
    }

    /**
     * Liveness lint: recomputes the memory planner's facts — per-step
     * producer lists, consumer counts, and early-release eligibility —
     * independently from the resolved data edges, and compares them to
     * what the planner resolved (mirrors the derivation in
     * runtime::BuildPlan, shared by Session and FrozenPlan).
     */
    void
    LintLiveness()
    {
        const std::vector<NodeId>& order = *plan_->order;
        const std::size_t n = order.size();

        std::vector<std::int32_t> step_of(
            static_cast<std::size_t>(graph_.num_nodes()), -1);
        for (std::size_t i = 0; i < n; ++i) {
            if (ValidId(order[i])) {
                step_of[static_cast<std::size_t>(order[i])] =
                    static_cast<std::int32_t>(i);
            }
        }
        std::unordered_set<NodeId> fetched;
        for (const Output& f : fetches_) {
            if (ValidId(f.node)) {
                fetched.insert(Resolve(f.node));
            }
        }

        std::vector<std::vector<std::int32_t>> producers(n);
        std::vector<std::int32_t> consumers(n, 0);
        std::vector<char> releasable(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const Node& node = graph_.node(order[i]);
            const OpDef* def =
                node.op_type == "Placeholder" ? nullptr : LookupDef(node.op_type);
            releasable[i] = def != nullptr && !def->stateful &&
                            node.op_type != "Variable" &&
                            node.op_type != "Const" &&
                            fetched.count(order[i]) == 0;
            for (const Output& in : node.inputs) {
                if (!ValidId(in.node)) {
                    continue;
                }
                const NodeId p = Resolve(in.node);
                if (ValidId(p) &&
                    step_of[static_cast<std::size_t>(p)] >= 0) {
                    producers[i].push_back(
                        step_of[static_cast<std::size_t>(p)]);
                }
            }
            std::sort(producers[i].begin(), producers[i].end());
            producers[i].erase(
                std::unique(producers[i].begin(), producers[i].end()),
                producers[i].end());
            for (std::int32_t p : producers[i]) {
                ++consumers[static_cast<std::size_t>(p)];
            }
        }

        auto size_diag = [&](const char* what, std::size_t got) {
            Diag("liveness", -1,
                 std::string(what) + " size: expected " + std::to_string(n) +
                     " (plan steps), got " + std::to_string(got));
        };
        if (plan_->consumer_count != nullptr) {
            if (plan_->consumer_count->size() != n) {
                size_diag("consumer_count", plan_->consumer_count->size());
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    if ((*plan_->consumer_count)[i] != consumers[i]) {
                        Diag("liveness", order[i],
                             "consumer count: expected " +
                                 std::to_string(consumers[i]) + ", got " +
                                 std::to_string((*plan_->consumer_count)[i]) +
                                 " — a buffer would be freed " +
                                 ((*plan_->consumer_count)[i] < consumers[i]
                                      ? "before its last reader"
                                      : "late (leak until step end)"));
                    }
                }
            }
        }
        if (plan_->input_producers != nullptr) {
            if (plan_->input_producers->size() != n) {
                size_diag("input_producers", plan_->input_producers->size());
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    if ((*plan_->input_producers)[i] != producers[i]) {
                        Diag("liveness", order[i],
                             "producer list: expected " +
                                 std::to_string(producers[i].size()) +
                                 " distinct producer steps, planner "
                                 "resolved " +
                                 std::to_string(
                                     (*plan_->input_producers)[i].size()));
                    }
                }
            }
        }
        if (plan_->releasable != nullptr) {
            if (plan_->releasable->size() != n) {
                size_diag("releasable", plan_->releasable->size());
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    // Releasing an exempt value is the dangerous
                    // direction; extra retention is merely conservative.
                    if ((*plan_->releasable)[i] && !releasable[i]) {
                        Diag("liveness", order[i],
                             "marked releasable but is a fetched, "
                             "stateful, or state-reading step");
                    }
                }
            }
        }
    }

    const Graph& graph_;
    const std::vector<Output>& fetches_;
    const std::vector<NodeId>& targets_;
    const VerifyOptions& options_;
    const PlanFacts* plan_;

    VerifyReport report_;
    std::vector<NodeId> roots_;
    std::unordered_set<NodeId> closure_;
    std::vector<NodeId> order_;
    std::unordered_set<NodeId> no_output_;
    std::unordered_map<std::string, OpHooks> op_cache_;
};

}  // namespace

std::string
Diagnostic::ToString() const
{
    std::ostringstream out;
    out << "[" << check << "]";
    if (!node.empty()) {
        out << " node '" << node << "':";
    }
    out << " " << message;
    return out.str();
}

std::string
VerifyReport::ToString() const
{
    std::ostringstream out;
    if (ok()) {
        out << "graph verification OK (" << nodes_checked
            << " nodes checked)";
        return out.str();
    }
    out << "graph verification failed: " << diagnostics.size()
        << " violation(s) across " << nodes_checked << " nodes";
    for (const Diagnostic& d : diagnostics) {
        out << "\n  " << d.ToString();
    }
    return out.str();
}

VerifyReport
Verify(const Graph& graph, const std::vector<Output>& fetches,
       const std::vector<NodeId>& targets, const VerifyOptions& options,
       const PlanFacts* plan)
{
    Verifier verifier(graph, fetches, targets, options, plan);
    VerifyReport report = verifier.Run();
    if (telemetry::MetricsEnabled()) {
        VerifyMetrics& m = VerifyMetrics::Get();
        m.runs.Add(1);
        m.violations.Add(report.diagnostics.size());
    }
    return report;
}

void
VerifyOrThrow(const Graph& graph, const std::vector<Output>& fetches,
              const std::vector<NodeId>& targets,
              const VerifyOptions& options, const PlanFacts* plan)
{
    VerifyReport report = Verify(graph, fetches, targets, options, plan);
    if (!report.ok()) {
        throw std::invalid_argument(report.ToString());
    }
}

}  // namespace fathom::graph::verify
