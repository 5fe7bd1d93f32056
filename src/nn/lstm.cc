#include "nn/lstm.h"

#include <stdexcept>

#include "nn/init.h"

namespace fathom::nn {

using graph::GraphBuilder;
using graph::Output;

LstmCell::LstmCell(GraphBuilder& builder, Trainables* trainables, Rng& rng,
                   const std::string& name, std::int64_t input_dim,
                   std::int64_t hidden_dim)
    : name_(name), input_dim_(input_dim), hidden_dim_(hidden_dim)
{
    graph::ScopeGuard scope(builder, name);
    const std::int64_t rows = input_dim + hidden_dim;
    const std::int64_t cols = 4 * hidden_dim;
    kernel_ = trainables->NewVariable(
        builder, "kernel", GlorotUniform(rng, Shape{rows, cols}, rows, cols));
    // Initialize the forget-gate bias to 1 (standard practice so
    // gradients flow early in training).
    Tensor bias = Tensor::Zeros(Shape{cols});
    for (std::int64_t i = hidden_dim; i < 2 * hidden_dim; ++i) {
        bias.data<float>()[i] = 1.0f;
    }
    bias_ = trainables->NewVariable(builder, "bias", bias);
}

LstmState
LstmCell::Step(GraphBuilder& builder, Output x, const LstmState& state) const
{
    graph::ScopeGuard scope(builder, name_ + "_step");
    // Gate pre-activations: [x, h] W + b -> [batch, 4H], split into the
    // four gates (the same Concat/MatMul/Split structure TF's
    // BasicLSTMCell builds).
    const Output xh = builder.Concat({x, state.h}, 1);
    const Output gates = builder.Add(builder.MatMul(xh, kernel_), bias_);
    const auto parts = builder.Split(gates, /*axis=*/1, /*num_splits=*/4);

    const Output i_gate = builder.Sigmoid(parts[0]);
    const Output f_gate = builder.Sigmoid(parts[1]);
    const Output g_gate = builder.Tanh(parts[2]);
    const Output o_gate = builder.Sigmoid(parts[3]);

    LstmState next;
    next.c = builder.Add(builder.Mul(f_gate, state.c),
                         builder.Mul(i_gate, g_gate));
    next.h = builder.Mul(o_gate, builder.Tanh(next.c));
    return next;
}

LstmState
LstmCell::ZeroState(GraphBuilder& builder, Output like) const
{
    graph::ScopeGuard scope(builder, name_ + "_zero_state");
    // [B, 1] zeros from like's first column, widened to [B, hidden].
    const Output column = builder.AddOp(
        "zeros_like", "ZerosLike", {builder.Slice(like, {0, 0}, {-1, 1})});
    const Output zeros = builder.Tile(column, {1, hidden_dim_});
    return {zeros, zeros};
}

LstmStackResult
RunLstmStack(GraphBuilder& builder, const std::vector<LstmCell>& cells,
             const std::vector<Output>& inputs,
             const std::vector<LstmState>* initial_states)
{
    if (cells.empty()) {
        throw std::invalid_argument("RunLstmStack: no cells");
    }
    if (inputs.empty()) {
        throw std::invalid_argument("RunLstmStack: no inputs");
    }
    std::vector<LstmState> states;
    if (initial_states != nullptr) {
        if (initial_states->size() != cells.size()) {
            throw std::invalid_argument(
                "RunLstmStack: initial state count mismatch");
        }
        states = *initial_states;
    } else {
        for (const LstmCell& cell : cells) {
            states.push_back(cell.ZeroState(builder, inputs.front()));
        }
    }

    LstmStackResult result;
    for (const Output& x_t : inputs) {
        Output layer_in = x_t;
        for (std::size_t layer = 0; layer < cells.size(); ++layer) {
            states[layer] = cells[layer].Step(builder, layer_in,
                                              states[layer]);
            layer_in = states[layer].h;
        }
        result.outputs.push_back(layer_in);
    }
    result.final_states = std::move(states);
    return result;
}

}  // namespace fathom::nn
