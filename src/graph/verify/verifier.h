/**
 * @file
 * The static graph verifier: structural validation, whole-graph
 * shape/dtype inference, and semantic lints over an execution plan.
 *
 * Nothing here executes a kernel. Verify() walks the subgraph that a
 * fetch/target set would run and proves — before the first step — the
 * properties the runtime otherwise discovers as mid-step faults:
 *
 *  **Structural** — every input edge points at a real node and a real
 *  output index; control edges are in range and non-self; the subgraph
 *  is acyclic (the verifier runs its own Kahn scan so a cycle becomes a
 *  named diagnostic, not a thrown std::logic_error); every op type is
 *  registered and carries a shape fn; fetch indices are in range and
 *  never read a node whose kernel produces no output (Assign, Apply*,
 *  NoOp).
 *
 *  **Types** — per-op shape fns (graph/verify/shape_inference.h)
 *  propagate static dtypes/shapes in topological order, seeded at
 *  Placeholders from feed tensors or serving TensorSpecs; every
 *  provable mismatch becomes a `node 'x' (Op): expected/got`
 *  diagnostic.
 *
 *  **Semantic lints** (when PlanFacts from a rewrite/plan are given) —
 *  the in-place aliasing proof is re-derived edge-by-edge for every
 *  step the rewriter marked; the memory planner's consumer counts and
 *  producer lists are recomputed independently and compared; and the
 *  determinism lint checks that no reachable stateful op was folded,
 *  replaced, or dropped from the plan order, and that rewrite-produced
 *  ("__rw/") nodes have pure registered kernels. Frozen mode rejects
 *  stateful ops outright.
 *
 * The verifier runs by default at Session plan build, after every
 * rewrite fixed point, and at FrozenPlan::Freeze; each run bumps
 * `verify.runs` and each diagnostic bumps `verify.violations`.
 */
#ifndef FATHOM_GRAPH_VERIFY_VERIFIER_H
#define FATHOM_GRAPH_VERIFY_VERIFIER_H

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/verify/shape_inference.h"
#include "tensor/tensor.h"

namespace fathom::graph::verify {

/** One verifier finding, anchored to a named node. */
struct Diagnostic {
    /** Stable check slug, e.g. "cycle", "shape-inference", "inplace". */
    std::string check;
    /** Name of the offending node ("" for graph-level findings). */
    std::string node;
    std::string message;

    /** @return e.g. "[shape-inference] node 'fc1/MatMul' (MatMul): ...". */
    std::string ToString() const;
};

/** The outcome of one Verify() run. */
struct VerifyReport {
    std::vector<Diagnostic> diagnostics;

    /**
     * Inferred output types per verified node id (indices into the
     * Graph; entries parallel each node's outputs). Nodes outside the
     * verified subgraph are absent.
     */
    std::unordered_map<NodeId, std::vector<TypeInfo>> types;

    int nodes_checked = 0;

    bool ok() const { return diagnostics.empty(); }

    /** @return a multi-line report (diagnostics, or "OK" summary). */
    std::string ToString() const;
};

/** Knobs and seeds for one Verify() run. */
struct VerifyOptions {
    /**
     * Static types of fed Placeholder outputs, keyed by node id
     * (Placeholders carry no shape/dtype attrs, so feeds are the only
     * type source). Unfed placeholders verify with unknown type.
     */
    std::map<NodeId, TypeInfo> feed_types;

    /** Variable/Const type resolution; null skips store lookups. */
    const VariableStore* variables = nullptr;

    /**
     * Serving-freeze mode: any stateful op is a violation (a frozen
     * plan must be reentrant and side-effect-free).
     */
    bool frozen = false;
};

/**
 * Facts about a built execution plan (runtime::FactsOf over the shared
 * runtime::BuildPlan output, or a RewriteResult), lent to Verify() for
 * the semantic lints. All pointers are borrowed and may be null except
 * `order`; the per-step vectors are parallel to `order`.
 */
struct PlanFacts {
    /** Live execution order: a built plan's kernel steps, or a
        rewrite's surviving nodes. */
    const std::vector<NodeId>* order = nullptr;
    /** Path-compressed edge redirection (CSE/folding). */
    const std::unordered_map<NodeId, NodeId>* replacements = nullptr;
    /** Constant-folded nodes (only the key set is consulted). */
    const std::unordered_map<NodeId, std::vector<Tensor>>* folded = nullptr;
    /** Per-step in-place markings to re-prove. */
    const std::vector<char>* inplace = nullptr;
    /** Memory planner's per-step reader count (verified if present). */
    const std::vector<std::int32_t>* consumer_count = nullptr;
    /** Memory planner's per-step producer lists (verified if present). */
    const std::vector<std::vector<std::int32_t>>* input_producers = nullptr;
    /** Memory planner's early-release eligibility (verified if present). */
    const std::vector<char>* releasable = nullptr;
};

/**
 * Statically verifies the subgraph of @p graph that producing
 * @p fetches / @p targets would execute. Never throws on graph
 * defects — every finding is a Diagnostic in the report. Bumps
 * `verify.runs` / `verify.violations` telemetry when metrics are on.
 *
 * @param plan optional built-plan facts enabling the semantic lints.
 */
VerifyReport Verify(const Graph& graph, const std::vector<Output>& fetches,
                    const std::vector<NodeId>& targets,
                    const VerifyOptions& options = {},
                    const PlanFacts* plan = nullptr);

/**
 * Verify() and throw std::invalid_argument with the full report text
 * if any diagnostic fired. The enforcement entry point for Session
 * plan build and FrozenPlan::Freeze.
 */
void VerifyOrThrow(const Graph& graph, const std::vector<Output>& fetches,
                   const std::vector<NodeId>& targets,
                   const VerifyOptions& options = {},
                   const PlanFacts* plan = nullptr);

}  // namespace fathom::graph::verify

#endif  // FATHOM_GRAPH_VERIFY_VERIFIER_H
