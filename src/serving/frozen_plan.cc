#include "serving/frozen_plan.h"

#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "graph/verify/verifier.h"

namespace fathom::serving {

namespace {

/** Untyped byte view of a tensor's buffer (dtype-dispatched). */
char*
RawBytes(Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? reinterpret_cast<char*>(t.data<float>())
               : reinterpret_cast<char*>(t.data<std::int32_t>());
}

const char*
RawBytes(const Tensor& t)
{
    return t.dtype() == DType::kFloat32
               ? reinterpret_cast<const char*>(t.data<float>())
               : reinterpret_cast<const char*>(t.data<std::int32_t>());
}

Shape
BatchedShape(std::int64_t batch, const std::vector<std::int64_t>& example)
{
    std::vector<std::int64_t> dims;
    dims.reserve(example.size() + 1);
    dims.push_back(batch);
    dims.insert(dims.end(), example.begin(), example.end());
    return Shape(std::move(dims));
}

}  // namespace

std::shared_ptr<const FrozenPlan>
FrozenPlan::Freeze(const runtime::Session& session,
                   const InferenceSignature& signature,
                   const runtime::ExecutionOptions& options)
{
    if (signature.fetches.empty()) {
        throw std::invalid_argument("FrozenPlan::Freeze: no fetches");
    }
    if (signature.output_names.size() != signature.fetches.size()) {
        throw std::invalid_argument(
            "FrozenPlan::Freeze: output_names/fetches size mismatch");
    }

    // shared_ptr with private ctor: wrap manually.
    std::shared_ptr<FrozenPlan> plan(new FrozenPlan());
    plan->signature_ = signature;
    plan->resources_ = runtime::ExecutionResources(options);

    const graph::Graph& src = session.graph();
    std::vector<graph::NodeId> roots;
    roots.reserve(signature.fetches.size());
    for (const graph::Output& f : signature.fetches) {
        roots.push_back(f.node);
    }
    const std::vector<graph::NodeId> order = src.TopologicalOrder(roots);

    std::unordered_map<std::string, const TensorSpec*> declared;
    for (const TensorSpec& spec : signature.inputs) {
        declared[spec.name] = &spec;
    }

    // Copy the reachable subgraph, in topological order so every
    // remapped input already exists, snapshotting state as we go.
    // Variable values are deep-copied (the source session's in-place
    // optimizer updates must never reach a frozen plan); Consts are
    // immutable and share the buffer.
    const graph::OpRegistry& registry = graph::OpRegistry::Global();
    graph::VariableStore snapshot;
    std::unordered_map<graph::NodeId, graph::NodeId> remap;
    remap.reserve(order.size());
    for (graph::NodeId id : order) {
        const graph::Node& node = src.node(id);
        std::vector<graph::Output> inputs;
        inputs.reserve(node.inputs.size());
        for (const graph::Output& in : node.inputs) {
            inputs.push_back({remap.at(in.node), in.index});
        }
        const graph::NodeId frozen = plan->graph_.AddNode(
            node.name, node.op_type, std::move(inputs), node.attrs,
            node.num_outputs);
        remap[id] = frozen;
        for (graph::NodeId c : node.control_inputs) {
            plan->graph_.AddControlEdge(remap.at(c), frozen);
        }

        if (node.op_type == "Placeholder") {
            if (declared.find(node.name) == declared.end()) {
                throw std::invalid_argument(
                    "FrozenPlan::Freeze: reachable placeholder '" +
                    node.name + "' not declared in the signature");
            }
            plan->input_nodes_[node.name] = frozen;
        } else if (node.op_type == "Variable") {
            const std::string& var = node.attr("var_name").AsString();
            if (!snapshot.Contains(var)) {
                snapshot.Set(var, session.variables().Get(var).Clone());
            }
        } else if (node.op_type == "Const") {
            const std::string& var = node.attr("var_name").AsString();
            if (!snapshot.Contains(var)) {
                snapshot.Set(var, session.variables().Get(var));
            }
        } else {
            const graph::OpDef& def = registry.Lookup(node.op_type);
            if (def.stateful) {
                throw std::invalid_argument(
                    "FrozenPlan::Freeze: inference subgraph contains "
                    "stateful op '" +
                    node.name + "' (" + node.op_type +
                    "); freeze a deterministic serving head instead");
            }
        }
    }

    for (const TensorSpec& spec : signature.inputs) {
        if (plan->input_nodes_.find(spec.name) == plan->input_nodes_.end()) {
            throw std::invalid_argument(
                "FrozenPlan::Freeze: declared input '" + spec.name +
                "' is not a placeholder of the inference subgraph");
        }
    }

    std::vector<graph::Output> fetches;
    fetches.reserve(signature.fetches.size());
    for (const graph::Output& f : signature.fetches) {
        fetches.push_back({remap.at(f.node), f.index});
    }

    // Optional rewrite over the private copy. Weights are a frozen
    // snapshot here, so Variables fold exactly like Consts
    // (variables_as_constants): whole weight-only expressions are
    // evaluated once at freeze time instead of per request.
    graph::rewrite::RewriteResult rewritten;
    if (options.graph_rewrites) {
        graph::rewrite::RewriteOptions ropts = options.rewrites;
        ropts.variables_as_constants = true;
        // The freeze-time verification below is stronger (TensorSpec
        // seeds, frozen-mode lint); skip the rewriter's own.
        ropts.verify = ropts.verify && !options.verify;
        rewritten = graph::rewrite::Rewrite(plan->graph_, fetches,
                                            /*targets=*/{}, snapshot, ropts);
    } else {
        // The copy appended nodes in topological order, so ids
        // 0..n-1 ARE the execution order.
        rewritten.order.resize(
            static_cast<std::size_t>(plan->graph_.num_nodes()));
        for (std::size_t i = 0; i < rewritten.order.size(); ++i) {
            rewritten.order[i] = static_cast<graph::NodeId>(i);
        }
    }

    // Surviving Variable/Const reads (folding off, or a pattern subset)
    // are pre-bound to their snapshot value: like folded nodes, they
    // are already valued and need no step.
    for (graph::NodeId fid : rewritten.order) {
        const graph::Node& node = plan->graph_.node(fid);
        if ((node.op_type == "Variable" || node.op_type == "Const") &&
            rewritten.folded.count(fid) == 0) {
            rewritten.folded[fid] = {
                snapshot.Get(node.attr("var_name").AsString())};
        }
    }
    plan->plan_ =
        runtime::BuildPlan(plan->graph_, std::move(rewritten), fetches);

    // Static verification of the frozen executable: every request will
    // run this exact plan, so prove it once here. Placeholder types are
    // seeded from the declared TensorSpecs at batch 1 (any larger batch
    // only scales the leading dim, which no shape fn constrains against
    // the graph's weights).
    if (options.verify) {
        graph::verify::VerifyOptions vopts;
        vopts.variables = &snapshot;
        vopts.frozen = true;
        for (const TensorSpec& spec : signature.inputs) {
            vopts.feed_types[plan->input_nodes_.at(spec.name)] =
                graph::verify::TypeInfo::Of(
                    spec.dtype, BatchedShape(1, spec.example_dims));
        }
        const graph::verify::PlanFacts facts = runtime::FactsOf(plan->plan_);
        graph::verify::VerifyOrThrow(plan->graph_, fetches, /*targets=*/{},
                                     vopts, &facts);
    }
    return plan;
}

void
FrozenPlan::CheckFeed(const TensorSpec& spec, const Tensor& value,
                      std::int64_t batch) const
{
    if (!value.initialized()) {
        throw std::invalid_argument("FrozenPlan: input '" + spec.name +
                                    "' is empty");
    }
    if (value.dtype() != spec.dtype) {
        throw std::invalid_argument(
            "FrozenPlan: input '" + spec.name + "' dtype " +
            DTypeName(value.dtype()) + " != declared " +
            DTypeName(spec.dtype));
    }
    const auto& dims = value.shape().dims();
    bool ok = dims.size() == spec.example_dims.size() + 1 &&
              dims[0] == batch;
    for (std::size_t d = 0; ok && d < spec.example_dims.size(); ++d) {
        ok = dims[d + 1] == spec.example_dims[d];
    }
    if (!ok) {
        throw std::invalid_argument(
            "FrozenPlan: input '" + spec.name + "' has shape " +
            value.DebugString() + ", expected batch " +
            std::to_string(batch) + " x declared example shape");
    }
}

void
FrozenPlan::CheckRequest(const RequestFeeds& request) const
{
    for (const TensorSpec& spec : signature_.inputs) {
        auto it = request.find(spec.name);
        if (it == request.end()) {
            throw std::invalid_argument("FrozenPlan: request missing input '" +
                                        spec.name + "'");
        }
        CheckFeed(spec, it->second, /*batch=*/1);
    }
}

std::vector<Tensor>
FrozenPlan::Run(const std::map<std::string, Tensor>& feeds) const
{
    // Resolve the batch from the first declared input and validate
    // every feed against it.
    if (signature_.inputs.empty()) {
        throw std::logic_error("FrozenPlan::Run: plan declares no inputs");
    }
    auto first = feeds.find(signature_.inputs.front().name);
    if (first == feeds.end() || !first->second.initialized() ||
        first->second.shape().rank() == 0) {
        throw std::invalid_argument("FrozenPlan::Run: missing input '" +
                                    signature_.inputs.front().name + "'");
    }
    const std::int64_t batch = first->second.shape().dims()[0];

    runtime::FeedMap by_node;
    for (const TensorSpec& spec : signature_.inputs) {
        auto fed = feeds.find(spec.name);
        if (fed == feeds.end()) {
            throw std::invalid_argument("FrozenPlan::Run: missing input '" +
                                        spec.name + "'");
        }
        CheckFeed(spec, fed->second, batch);
        by_node[input_nodes_.at(spec.name)] = fed->second;
    }

    // With the planner on (the default) intermediates die at their
    // last consumer and their buffers recycle through the pool, which
    // is what keeps steady-state serving allocation-free.
    runtime::ExecutorContext context = resources_.Context();
    context.rng = &rng_;
    context.variables = &empty_variables_;
    return runtime::Execute(plan_, by_node, context);
}

std::vector<std::vector<Tensor>>
FrozenPlan::ServeBatch(const std::vector<const RequestFeeds*>& requests) const
{
    const std::int64_t n = static_cast<std::int64_t>(requests.size());
    if (n == 0) {
        return {};
    }

    for (const RequestFeeds* request : requests) {
        CheckRequest(*request);
    }

    // Gather: stack each input along a fresh batch dimension.
    std::map<std::string, Tensor> feeds;
    for (const TensorSpec& spec : signature_.inputs) {
        Tensor batched(spec.dtype, BatchedShape(n, spec.example_dims));
        const std::size_t row_bytes =
            batched.byte_size() / static_cast<std::size_t>(n);
        char* dst = RawBytes(batched);
        for (std::int64_t i = 0; i < n; ++i) {
            std::memcpy(dst + static_cast<std::size_t>(i) * row_bytes,
                        RawBytes(requests[static_cast<std::size_t>(i)]->at(
                            spec.name)),
                        row_bytes);
        }
        feeds.emplace(spec.name, std::move(batched));
    }

    const std::vector<Tensor> batched_outputs = Run(feeds);

    // Scatter: slice row i of every batch-major output back to
    // request i.
    std::vector<std::vector<Tensor>> per_request(
        static_cast<std::size_t>(n));
    for (auto& outputs : per_request) {
        outputs.reserve(batched_outputs.size());
    }
    for (std::size_t f = 0; f < batched_outputs.size(); ++f) {
        const Tensor& out = batched_outputs[f];
        const auto& dims = out.shape().dims();
        if (dims.empty() || dims[0] != n) {
            throw std::logic_error(
                "FrozenPlan::ServeBatch: output '" +
                signature_.output_names[f] +
                "' is not batch-major (shape " + out.DebugString() +
                ", batch " + std::to_string(n) + ")");
        }
        std::vector<std::int64_t> row_dims(dims.begin(), dims.end());
        row_dims[0] = 1;
        const std::size_t row_bytes =
            out.byte_size() / static_cast<std::size_t>(n);
        const char* src = RawBytes(out);
        for (std::int64_t i = 0; i < n; ++i) {
            Tensor row(out.dtype(), Shape(row_dims));
            std::memcpy(RawBytes(row),
                        src + static_cast<std::size_t>(i) * row_bytes,
                        row_bytes);
            per_request[static_cast<std::size_t>(i)].push_back(
                std::move(row));
        }
    }
    return per_request;
}

std::vector<Tensor>
FrozenPlan::ServeOne(const RequestFeeds& request) const
{
    return ServeBatch({&request})[0];
}

}  // namespace fathom::serving
