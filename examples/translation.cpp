/**
 * @file
 * Sequence-to-sequence translation with greedy decoding.
 *
 * The seq2seq *workload* trains with teacher forcing; this example
 * shows the other half of the story: after training, translation runs
 * the decoder step by step, feeding each predicted token back in. The
 * decoder-step subgraph takes (token, h, c) placeholders and returns
 * (logits, h', c'), sharing weights with the training graph — the
 * encoder-decoder pattern the paper calls "a canonical example".
 *
 *   $ ./translation
 */
#include <cstdio>
#include <vector>

#include "data/synthetic_translation.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "ops/register.h"
#include "runtime/session.h"

using namespace fathom;

int
main()
{
    ops::RegisterStandardOps();

    constexpr std::int64_t kVocab = 32;
    constexpr std::int64_t kEmbed = 24;
    constexpr std::int64_t kHidden = 64;
    constexpr std::int64_t kSrcLen = 6;
    constexpr std::int64_t kTgtLen = kSrcLen + 2;
    constexpr std::int64_t kBatch = 16;

    data::SyntheticTranslationDataset dataset(kVocab, kSrcLen, /*seed=*/41);

    runtime::Session session(/*seed=*/6);
    session.tracer().set_enabled(false);
    auto b = session.MakeBuilder();
    nn::Trainables params;
    Rng init_rng(19);

    const graph::Output embedding = params.NewVariable(
        b, "embedding",
        nn::GlorotUniform(init_rng, Shape{kVocab, kEmbed}, kVocab, kEmbed));
    nn::LstmCell encoder(b, &params, init_rng, "encoder", kEmbed, kHidden);
    nn::LstmCell decoder(b, &params, init_rng, "decoder", kEmbed, kHidden);
    const auto proj = nn::MakeDense(b, &params, init_rng, "proj", kHidden,
                                    kVocab);

    // ---- training graph (teacher forced, batch kBatch) -----------------
    const graph::Output source = b.Placeholder("source");
    const graph::Output dec_in = b.Placeholder("dec_in");
    const graph::Output dec_tgt = b.Placeholder("dec_tgt");

    std::vector<graph::Output> src_embedded;
    for (std::int64_t t = 0; t < kSrcLen; ++t) {
        const graph::Output token =
            b.Reshape(b.Slice(source, {0, t}, {-1, 1}), {-1});
        src_embedded.push_back(b.Gather(embedding, token));
    }
    // The zero state takes its batch from the source feed, so the same
    // encoder also reads one sentence at decode time.
    const nn::LstmState state =
        nn::RunLstmStack(b, {encoder}, src_embedded).final_states[0];
    std::vector<graph::Output> step_logits;
    nn::LstmState dec_state = state;
    for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
        const graph::Output token =
            b.Reshape(b.Slice(dec_in, {0, t}, {-1, 1}), {-1});
        dec_state = decoder.Step(b, b.Gather(embedding, token), dec_state);
        step_logits.push_back(nn::ApplyDense(b, proj, dec_state.h));
    }
    const graph::Output logits = b.Concat(step_logits, 0);
    const graph::Output loss = b.SoftmaxCrossEntropy(logits, dec_tgt)[0];
    auto optimizer = nn::OptimizerConfig::Adam(0.005f);
    optimizer.clip_value = 1.0f;
    const graph::NodeId train_op = nn::Minimize(b, loss, params, optimizer);

    // ---- stepwise decode graph (batch 1, weights shared) ----------------
    const graph::Output step_token = b.Placeholder("step_token");  // [1]
    const graph::Output step_h = b.Placeholder("step_h");          // [1, H]
    const graph::Output step_c = b.Placeholder("step_c");
    const auto stepped = decoder.Step(
        b, b.Gather(embedding, step_token), {step_h, step_c});
    const graph::Output step_pred =
        b.ArgMax(nn::ApplyDense(b, proj, stepped.h));

    // ---- train -----------------------------------------------------------
    for (int step = 0; step < 600; ++step) {
        const auto batch = dataset.NextBatch(kBatch);
        Tensor din(DType::kInt32, Shape{kBatch, kTgtLen - 1});
        Tensor dtg(DType::kInt32, Shape{(kTgtLen - 1) * kBatch});
        const std::int32_t* tgt = batch.target.data<std::int32_t>();
        for (std::int64_t i = 0; i < kBatch; ++i) {
            for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
                din.data<std::int32_t>()[i * (kTgtLen - 1) + t] =
                    tgt[i * kTgtLen + t];
                dtg.data<std::int32_t>()[t * kBatch + i] =
                    tgt[i * kTgtLen + t + 1];
            }
        }
        runtime::FeedMap feeds;
        feeds[source.node] = batch.source;
        feeds[dec_in.node] = din;
        feeds[dec_tgt.node] = dtg;
        const auto out = session.Run(feeds, {loss}, {train_op});
        if (step % 150 == 0) {
            std::printf("step %3d  loss %.4f\n", step,
                        out[0].scalar_value());
        }
    }

    // ---- greedy decode & token accuracy ------------------------------------
    int correct = 0;
    int total = 0;
    Tensor sample_src;
    std::vector<std::int32_t> sample_ref;
    std::vector<std::int32_t> sample_hyp;
    for (int trial = 0; trial < 20; ++trial) {
        const auto batch = dataset.NextBatch(1);
        runtime::FeedMap enc_feeds;
        enc_feeds[source.node] = batch.source;  // [1, S]
        auto hc = session.Run(enc_feeds, {state.h, state.c});

        std::int32_t token = data::kGoToken;
        std::vector<std::int32_t> decoded;
        for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
            runtime::FeedMap feeds;
            feeds[step_token.node] = Tensor::FromVectorInt(Shape{1}, {token});
            feeds[step_h.node] = hc[0];
            feeds[step_c.node] = hc[1];
            const auto out = session.Run(
                feeds, {step_pred, stepped.h, stepped.c});
            token = out[0].data<std::int32_t>()[0];
            hc = {out[1], out[2]};
            decoded.push_back(token);
            if (token == data::kEosToken) {
                break;
            }
        }
        // Score against the reference (strip GO, stop at EOS).
        const std::int32_t* ref = batch.target.data<std::int32_t>();
        std::vector<std::int32_t> reference;
        for (std::int64_t t = 1; t < kTgtLen; ++t) {
            reference.push_back(ref[t]);
            if (ref[t] == data::kEosToken) {
                break;
            }
        }
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ++total;
            correct += i < decoded.size() && decoded[i] == reference[i];
        }
        if (trial == 0) {
            sample_src = batch.source;
            sample_ref = reference;
            sample_hyp = decoded;
        }
    }
    std::printf("\ngreedy decode token accuracy: %.1f%%\n",
                100.0f * correct / total);

    std::printf("source:     ");
    for (std::int64_t t = 0; t < kSrcLen; ++t) {
        std::printf("%d ", sample_src.data<std::int32_t>()[t]);
    }
    std::printf("\nreference:  ");
    for (std::int32_t t : sample_ref) {
        std::printf("%d ", t);
    }
    std::printf("\nhypothesis: ");
    for (std::int32_t t : sample_hyp) {
        std::printf("%d ", t);
    }
    std::printf("\n");
    return 0;
}
