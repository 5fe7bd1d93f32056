/**
 * @file
 * Additive (Bahdanau) attention, the mechanism seq2seq uses for
 * "keeping track of context in the original sentence" (paper Sec. IV).
 *
 * The implementation deliberately mirrors the original TF graph: the
 * score computation spends its time in MatMul plus a tail of
 * data-movement ops (Reshape/Tile/Transpose) and reductions — the mix
 * the paper's Fig. 6b shows for seq2seq.
 */
#ifndef FATHOM_NN_ATTENTION_H
#define FATHOM_NN_ATTENTION_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "nn/layers.h"

namespace fathom::nn {

/** Additive attention over a fixed-length encoder state sequence. */
class AdditiveAttention {
  public:
    /**
     * @param enc_dim   encoder hidden size.
     * @param query_dim decoder hidden size.
     * @param attn_dim  attention projection size.
     */
    AdditiveAttention(graph::GraphBuilder& builder, Trainables* trainables,
                      Rng& rng, const std::string& name, std::int64_t enc_dim,
                      std::int64_t query_dim, std::int64_t attn_dim);

    /**
     * Computes the context vector for one decoder step.
     *
     * @param enc_states per-step encoder outputs, each [batch, enc_dim].
     * @param query      decoder hidden state [batch, query_dim].
     * @return           context vector [batch, enc_dim].
     */
    graph::Output Context(graph::GraphBuilder& builder,
                          const std::vector<graph::Output>& enc_states,
                          graph::Output query) const;

  private:
    std::string name_;
    std::int64_t enc_dim_;
    std::int64_t attn_dim_;
    graph::Output w_enc_;    ///< [enc_dim, attn_dim].
    graph::Output w_query_;  ///< [query_dim, attn_dim].
    graph::Output v_;        ///< [attn_dim, 1].
};

}  // namespace fathom::nn

#endif  // FATHOM_NN_ATTENTION_H
