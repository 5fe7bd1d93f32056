/**
 * @file
 * Long short-term memory cells, unrolled in the graph.
 *
 * Recurrence is expressed exactly as TensorFlow v0.x models did: the
 * cell's primitive ops are replicated per time step, so the seq2seq
 * profile fills with the MatMul/Mul/Add/Tanh/Sigmoid mixture the paper
 * attributes to "stateful LSTM neurons".
 */
#ifndef FATHOM_NN_LSTM_H
#define FATHOM_NN_LSTM_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "nn/layers.h"

namespace fathom::nn {

/** Recurrent state of one LSTM layer at one time step. */
struct LstmState {
    graph::Output h;  ///< hidden state [batch, hidden].
    graph::Output c;  ///< cell state [batch, hidden].
};

/**
 * One LSTM layer's weights, shared across the unrolled time steps.
 */
class LstmCell {
  public:
    /**
     * Creates the cell parameters.
     * @param input_dim  size of x_t.
     * @param hidden_dim size of h/c.
     */
    LstmCell(graph::GraphBuilder& builder, Trainables* trainables, Rng& rng,
             const std::string& name, std::int64_t input_dim,
             std::int64_t hidden_dim);

    /**
     * Applies one step: (x_t, state) -> new state.
     * @param x [batch, input_dim].
     */
    LstmState Step(graph::GraphBuilder& builder, graph::Output x,
                   const LstmState& state) const;

    /**
     * @return an all-zero initial state with as many rows as @p like
     *         (any [batch, ...] edge), so the batch comes from the feed.
     */
    LstmState ZeroState(graph::GraphBuilder& builder,
                        graph::Output like) const;

    std::int64_t hidden_dim() const { return hidden_dim_; }

  private:
    std::string name_;
    std::int64_t input_dim_;
    std::int64_t hidden_dim_;
    graph::Output kernel_;  ///< [input+hidden, 4*hidden].
    graph::Output bias_;    ///< [4*hidden].
};

/**
 * A stack of LSTM layers unrolled over a fixed-length input sequence.
 *
 * @param inputs one [batch, input_dim] edge per time step; without
 *        @p initial_states the zero states take their batch from the
 *        first.
 * @return per-step outputs of the top layer, plus the final state of
 *         each layer (for decoder initialization).
 */
struct LstmStackResult {
    std::vector<graph::Output> outputs;
    std::vector<LstmState> final_states;
};

LstmStackResult RunLstmStack(graph::GraphBuilder& builder,
                             const std::vector<LstmCell>& cells,
                             const std::vector<graph::Output>& inputs,
                             const std::vector<LstmState>* initial_states =
                                 nullptr);

}  // namespace fathom::nn

#endif  // FATHOM_NN_LSTM_H
