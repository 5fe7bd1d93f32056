#include "nn/attention.h"

#include <stdexcept>

#include "nn/init.h"

namespace fathom::nn {

using graph::GraphBuilder;
using graph::Output;

AdditiveAttention::AdditiveAttention(GraphBuilder& builder,
                                     Trainables* trainables, Rng& rng,
                                     const std::string& name,
                                     std::int64_t enc_dim,
                                     std::int64_t query_dim,
                                     std::int64_t attn_dim)
    : name_(name), enc_dim_(enc_dim), attn_dim_(attn_dim)
{
    graph::ScopeGuard scope(builder, name);
    w_enc_ = trainables->NewVariable(
        builder, "w_enc",
        GlorotUniform(rng, Shape{enc_dim, attn_dim}, enc_dim, attn_dim));
    w_query_ = trainables->NewVariable(
        builder, "w_query",
        GlorotUniform(rng, Shape{query_dim, attn_dim}, query_dim, attn_dim));
    v_ = trainables->NewVariable(
        builder, "v", GlorotUniform(rng, Shape{attn_dim, 1}, attn_dim, 1));
}

Output
AdditiveAttention::Context(GraphBuilder& builder,
                           const std::vector<Output>& enc_states,
                           Output query) const
{
    if (enc_states.empty()) {
        throw std::invalid_argument("AdditiveAttention: no encoder states");
    }
    graph::ScopeGuard scope(builder, name_ + "_ctx");
    const std::int64_t time = static_cast<std::int64_t>(enc_states.size());

    // Stack encoder states into [batch, T, enc_dim] via concat+reshape
    // (the data-movement-heavy route the original model takes). Every
    // reshape leaves the batch as -1, so it comes from the feed.
    std::vector<Output> expanded;
    expanded.reserve(enc_states.size());
    for (const Output& s : enc_states) {
        expanded.push_back(builder.Reshape(s, {-1, 1, enc_dim_}));
    }
    const Output enc = builder.Concat(expanded, 1);  // [B, T, E]

    // Projected encoder states: [B*T, A] -> [B, T, A].
    const Output enc_flat = builder.Reshape(enc, {-1, enc_dim_});
    const Output proj_enc = builder.Reshape(
        builder.MatMul(enc_flat, w_enc_), {-1, time, attn_dim_});

    // Projected query tiled across time: [B, 1, A] -> [B, T, A]. An
    // explicit Tile (rather than implicit broadcasting) matches the op
    // mix of the original TF implementation (Fig. 6b shows Tile).
    const Output proj_q = builder.Tile(
        builder.Reshape(builder.MatMul(query, w_query_), {-1, 1, attn_dim_}),
        {1, time, 1});

    // Scores e = v^T tanh(We s + Wq q): [B, T].
    const Output combined = builder.Tanh(builder.Add(proj_enc, proj_q));
    const Output scores = builder.Reshape(
        builder.MatMul(builder.Reshape(combined, {-1, attn_dim_}), v_),
        {-1, time});

    // Attention weights and weighted context sum over time.
    const Output weights =
        builder.Reshape(builder.Softmax(scores), {-1, time, 1});
    const Output weighted = builder.Mul(weights, enc);  // broadcast over E.
    return builder.ReduceSum(weighted, {1}, /*keep_dims=*/false);  // [B, E]
}

}  // namespace fathom::nn
