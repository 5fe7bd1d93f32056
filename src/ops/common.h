/**
 * @file
 * Shared helpers for op registration: cost accounting and attr parsing.
 */
#ifndef FATHOM_OPS_COMMON_H
#define FATHOM_OPS_COMMON_H

#include <string>
#include <vector>

#include "graph/op_registry.h"
#include "kernels/conv2d.h"

namespace fathom::ops {

/** @return summed byte size of all initialized tensors in @p ts. */
template <typename Tensors>
double
BytesOf(const Tensors& ts)
{
    double bytes = 0.0;
    for (const Tensor& t : ts) {
        if (t.initialized()) {
            bytes += static_cast<double>(t.byte_size());
        }
    }
    return bytes;
}

/**
 * @return a cost function for elementwise-style ops: @p flops_per_elem
 * FLOPs per output element, fully parallel over output elements.
 */
graph::CostFn ElementwiseCost(double flops_per_elem);

/**
 * @return a cost function for serial ops (parallel_work = 1) with
 * @p flops_per_elem FLOPs per *input* element.
 */
graph::CostFn SerialCost(double flops_per_elem);

/**
 * @return a cost function for zero-FLOP data movement and control ops
 * (Const, Variable, Identity, Assign, ...): no arithmetic, bytes =
 * everything touched (inputs + outputs). Keeps every registered op
 * costed, so per-op roofline intensity is defined suite-wide and the
 * registry audit can insist CostFn is never null.
 */
graph::CostFn MovedBytesCost();

/** Parses a padding attr string ("SAME"/"VALID"). */
kernels::Padding ParsePadding(const std::string& value);

/** Converts an int-list attr to a Shape. */
Shape ShapeFromAttr(const std::vector<std::int64_t>& dims);

}  // namespace fathom::ops

#endif  // FATHOM_OPS_COMMON_H
