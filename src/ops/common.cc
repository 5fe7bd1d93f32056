#include "ops/common.h"

#include <stdexcept>

namespace fathom::ops {

graph::CostFn
ElementwiseCost(double flops_per_elem)
{
    return [flops_per_elem](const graph::Node&,
                            graph::OpInputs inputs,
                            const std::vector<Tensor>& outputs) {
        graph::OpCost cost;
        std::int64_t n = 0;
        for (const Tensor& out : outputs) {
            if (out.initialized()) {
                n += out.num_elements();
            }
        }
        cost.flops = flops_per_elem * static_cast<double>(n);
        cost.bytes = BytesOf(inputs) + BytesOf(outputs);
        cost.parallel_work = n;
        return cost;
    };
}

graph::CostFn
SerialCost(double flops_per_elem)
{
    return [flops_per_elem](const graph::Node&,
                            graph::OpInputs inputs,
                            const std::vector<Tensor>& outputs) {
        graph::OpCost cost;
        std::int64_t n = 0;
        for (const Tensor& in : inputs) {
            if (in.initialized()) {
                n += in.num_elements();
            }
        }
        cost.flops = flops_per_elem * static_cast<double>(n);
        cost.bytes = BytesOf(inputs) + BytesOf(outputs);
        cost.parallel_work = 1;
        return cost;
    };
}

graph::CostFn
MovedBytesCost()
{
    return [](const graph::Node&, graph::OpInputs inputs,
              const std::vector<Tensor>& outputs) {
        graph::OpCost cost;
        cost.flops = 0.0;
        cost.bytes = BytesOf(inputs) + BytesOf(outputs);
        cost.parallel_work = 1;
        return cost;
    };
}

kernels::Padding
ParsePadding(const std::string& value)
{
    if (value == "SAME") {
        return kernels::Padding::kSame;
    }
    if (value == "VALID") {
        return kernels::Padding::kValid;
    }
    throw std::invalid_argument("unknown padding '" + value + "'");
}

Shape
ShapeFromAttr(const std::vector<std::int64_t>& dims)
{
    return Shape(dims);
}

}  // namespace fathom::ops
