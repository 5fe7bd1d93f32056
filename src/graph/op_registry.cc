#include "graph/op_registry.h"

#include <stdexcept>

namespace fathom::graph {

void
VariableStore::Set(const std::string& name, Tensor value)
{
    if (!values_.count(name)) {
        order_.push_back(name);
    }
    values_[name] = std::move(value);
}

Tensor&
VariableStore::Get(const std::string& name)
{
    auto it = values_.find(name);
    if (it == values_.end()) {
        throw std::out_of_range("VariableStore: no variable '" + name + "'");
    }
    return it->second;
}

const Tensor&
VariableStore::Get(const std::string& name) const
{
    auto it = values_.find(name);
    if (it == values_.end()) {
        throw std::out_of_range("VariableStore: no variable '" + name + "'");
    }
    return it->second;
}

bool
VariableStore::Contains(const std::string& name) const
{
    return values_.count(name) > 0;
}

std::vector<std::string>
VariableStore::Names() const
{
    return order_;
}

std::int64_t
VariableStore::TotalParameters() const
{
    std::int64_t total = 0;
    for (const auto& [name, value] : values_) {
        if (value.dtype() == DType::kFloat32) {
            total += value.num_elements();
        }
    }
    return total;
}

const Tensor&
OpContext::input(int i) const
{
    if (i < 0 || i >= num_inputs()) {
        throw std::out_of_range("OpContext::input(" + std::to_string(i) +
                                ") on node '" + node_.name + "' with " +
                                std::to_string(num_inputs()) + " inputs");
    }
    return inputs_[static_cast<std::size_t>(i)];
}

void
OpContext::set_output(int i, Tensor value)
{
    if (i < 0 || i >= static_cast<int>(outputs_.size())) {
        throw std::out_of_range("OpContext::set_output index out of range");
    }
    outputs_[static_cast<std::size_t>(i)] = std::move(value);
}

OpRegistry&
OpRegistry::Global()
{
    static OpRegistry registry;
    return registry;
}

void
OpRegistry::Register(OpDef def)
{
    if (ops_.count(def.name)) {
        throw std::logic_error("OpRegistry: duplicate op '" + def.name + "'");
    }
    if (!def.kernel) {
        throw std::logic_error("OpRegistry: op '" + def.name +
                               "' has no kernel");
    }
    ops_[def.name] = std::move(def);
}

const OpDef&
OpRegistry::Lookup(const std::string& name) const
{
    auto it = ops_.find(name);
    if (it == ops_.end()) {
        throw std::out_of_range("OpRegistry: unknown op '" + name + "'");
    }
    return it->second;
}

bool
OpRegistry::Contains(const std::string& name) const
{
    return ops_.count(name) > 0;
}

std::vector<std::string>
OpRegistry::Names() const
{
    std::vector<std::string> names;
    names.reserve(ops_.size());
    for (const auto& [name, def] : ops_) {
        names.push_back(name);
    }
    return names;
}

}  // namespace fathom::graph
