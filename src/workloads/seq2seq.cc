/**
 * @file
 * seq2seq — Sutskever et al.'s sequence-to-sequence translation with
 * Bahdanau-style additive attention.
 *
 * A canonical recurrent encoder-decoder: a three-layer unrolled LSTM
 * encoder reads the source sentence into its state, and a three-layer
 * LSTM decoder emits the target with teacher forcing, attending over
 * the encoder outputs at every step. The parallel corpus is the
 * synthetic-WMT generator (target = permuted, reversed source).
 */
#include "data/synthetic_translation.h"
#include "nn/attention.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace fathom::workloads {
namespace {

using graph::Output;

class Seq2SeqWorkload : public Workload {
  public:
    std::string name() const override { return "seq2seq"; }
    std::string
    description() const override
    {
        return "Direct language-to-language sentence translation. "
               "State-of-the-art accuracy with a simple, language-agnostic "
               "architecture.";
    }
    std::string neuronal_style() const override { return "Recurrent"; }
    int num_layers() const override { return 7; }
    std::string learning_task() const override { return "Supervised"; }
    std::string dataset() const override { return "synthetic-wmt"; }

    void
    Setup(const WorkloadConfig& config) override
    {
        batch_ = config.batch_size > 0 ? config.batch_size : 4;
        session_ = MakeSession(config);
        dataset_ = std::make_unique<data::SyntheticTranslationDataset>(
            kVocab, kSrcLen, config.seed ^ 0x5E25E2);

        Rng init_rng(config.seed * 31 + 7);
        auto b = session_->MakeBuilder();
        graph::ScopeGuard scope(b, "seq2seq");

        source_ = b.Placeholder("source");            // int32 [B, S]
        decoder_inputs_ = b.Placeholder("dec_in");    // int32 [B, T-1]
        decoder_targets_ = b.Placeholder("dec_tgt");  // int32 [(T-1)*B]

        // Shared source/target embedding table.
        const Output embedding_table = trainables_.NewVariable(
            b, "embedding",
            nn::GlorotUniform(init_rng, Shape{kVocab, kEmbed}, kVocab,
                              kEmbed));

        // ---- encoder -------------------------------------------------------
        std::vector<nn::LstmCell> enc_cells;
        enc_cells.emplace_back(b, &trainables_, init_rng, "enc_l0", kEmbed,
                               kHidden);
        enc_cells.emplace_back(b, &trainables_, init_rng, "enc_l1", kHidden,
                               kHidden);
        enc_cells.emplace_back(b, &trainables_, init_rng, "enc_l2", kHidden,
                               kHidden);

        std::vector<Output> enc_inputs;
        for (std::int64_t t = 0; t < kSrcLen; ++t) {
            const Output token = b.Reshape(
                b.Slice(source_, {0, t}, {-1, 1}), {-1});
            enc_inputs.push_back(b.Gather(embedding_table, token));
        }
        auto encoded = nn::RunLstmStack(b, enc_cells, enc_inputs);

        // ---- attention + decoder -------------------------------------------
        nn::AdditiveAttention attention(b, &trainables_, init_rng, "attn",
                                        kHidden, kHidden, kAttn);

        std::vector<nn::LstmCell> dec_cells;
        dec_cells.emplace_back(b, &trainables_, init_rng, "dec_l0",
                               kEmbed + kHidden, kHidden);
        dec_cells.emplace_back(b, &trainables_, init_rng, "dec_l1", kHidden,
                               kHidden);
        dec_cells.emplace_back(b, &trainables_, init_rng, "dec_l2", kHidden,
                               kHidden);
        const auto proj = nn::MakeDense(b, &trainables_, init_rng, "proj",
                                        kHidden, kVocab);

        // Decoder initialized from the encoder's final states (the
        // "thought vector"), teacher-forced over T-1 steps.
        std::vector<nn::LstmState> state = encoded.final_states;
        std::vector<Output> step_logits;
        for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
            const Output token = b.Reshape(
                b.Slice(decoder_inputs_, {0, t}, {-1, 1}), {-1});
            const Output embedded = b.Gather(embedding_table, token);
            const Output context =
                attention.Context(b, encoded.outputs, state.back().h);
            Output layer_in = b.Concat({embedded, context}, 1);
            for (std::size_t layer = 0; layer < dec_cells.size(); ++layer) {
                state[layer] = dec_cells[layer].Step(b, layer_in,
                                                     state[layer]);
                layer_in = state[layer].h;
            }
            step_logits.push_back(nn::ApplyDense(b, proj, layer_in));
        }

        // Step-major stacked logits: [(T-1)*B, V].
        logits_ = b.Concat(step_logits, 0);
        // Batch-major restack for serving: [B, (T-1)*V]. The dynamic
        // batcher scatters outputs by leading-dimension row, which the
        // step-major training layout cannot support.
        serving_logits_ = b.Concat(step_logits, 1);
        const auto xent = b.SoftmaxCrossEntropy(logits_, decoder_targets_);
        loss_ = xent[0];
        // Plain SGD with gradient clipping, as in the original
        // (Sutskever et al. clipped gradients to stabilize the
        // unrolled LSTM stack).
        auto optimizer = nn::OptimizerConfig::Sgd(0.2f);
        optimizer.clip_value = 1.0f;
        train_op_ = nn::Minimize(b, loss_, trainables_, optimizer);
    }

    bool has_serving_endpoint() const override { return true; }

    serving::InferenceSignature
    ServingSignature() const override
    {
        serving::InferenceSignature sig;
        sig.inputs = {{PlaceholderName(*session_, source_), DType::kInt32,
                       {kSrcLen}},
                      {PlaceholderName(*session_, decoder_inputs_),
                       DType::kInt32,
                       {kTgtLen - 1}}};
        sig.fetches = {serving_logits_};
        sig.output_names = {"logits"};
        return sig;
    }

    serving::RequestFeeds
    SampleServingRequest() override
    {
        const auto batch = dataset_->NextBatch(1);
        Tensor dec_in(DType::kInt32, Shape{1, kTgtLen - 1});
        const std::int32_t* tgt = batch.target.data<std::int32_t>();
        for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
            dec_in.data<std::int32_t>()[t] = tgt[t];
        }
        return {{PlaceholderName(*session_, source_), batch.source},
                {PlaceholderName(*session_, decoder_inputs_), dec_in}};
    }

    StepResult
    RunInference(int steps) override
    {
        auto pipeline =
            MakePipeline("infer", infer_step_, [this](std::int64_t t) {
                return BatchFeeds(kInferStreamBase + t);
            });
        auto result = TimeSteps(steps, [&](int) {
            const runtime::FeedMap feeds = pipeline->Next();
            session_->Run(feeds, {logits_});
            return 0.0f;
        });
        infer_step_ += steps;
        return result;
    }

    StepResult
    RunTraining(int steps) override
    {
        auto pipeline =
            MakePipeline("train", train_step_, [this](std::int64_t t) {
                return BatchFeeds(kTrainStreamBase + t);
            });
        auto result = TimeSteps(steps, [&](int) {
            const runtime::FeedMap feeds = pipeline->Next();
            const auto out = session_->Run(feeds, {loss_}, {train_op_});
            return out[0].scalar_value();
        });
        train_step_ += steps;
        return result;
    }

  private:
    /**
     * Materializes stream batch @p index as a full feed map: source
     * tokens, teacher-forced decoder inputs (target[:, :-1]), and
     * step-major targets. The target feed is unused (pruned) on the
     * inference path.
     */
    data::FeedBatch
    BatchFeeds(std::int64_t index) const
    {
        const auto batch =
            dataset_->BatchAt(static_cast<std::uint64_t>(index), batch_);

        Tensor dec_in(DType::kInt32, Shape{batch_, kTgtLen - 1});
        Tensor dec_tgt(DType::kInt32, Shape{(kTgtLen - 1) * batch_});
        const std::int32_t* tgt = batch.target.data<std::int32_t>();
        for (std::int64_t i = 0; i < batch_; ++i) {
            for (std::int64_t t = 0; t < kTgtLen - 1; ++t) {
                dec_in.data<std::int32_t>()[i * (kTgtLen - 1) + t] =
                    tgt[i * kTgtLen + t];
                // Step-major target layout matches the logits concat.
                dec_tgt.data<std::int32_t>()[t * batch_ + i] =
                    tgt[i * kTgtLen + t + 1];
            }
        }
        return {{source_.node, batch.source},
                {decoder_inputs_.node, dec_in},
                {decoder_targets_.node, dec_tgt}};
    }

    static constexpr std::int64_t kVocab = 128;
    static constexpr std::int64_t kEmbed = 16;
    static constexpr std::int64_t kHidden = 32;
    static constexpr std::int64_t kAttn = 16;
    static constexpr std::int64_t kSrcLen = 12;
    static constexpr std::int64_t kTgtLen = kSrcLen + 2;

    std::int64_t batch_ = 4;
    std::unique_ptr<data::SyntheticTranslationDataset> dataset_;
    nn::Trainables trainables_;
    Output source_, decoder_inputs_, decoder_targets_, logits_, loss_;
    Output serving_logits_;
    graph::NodeId train_op_ = -1;
};

}  // namespace

void
RegisterSeq2Seq()
{
    WorkloadRegistry::Global().Register("seq2seq", [] {
        return std::make_unique<Seq2SeqWorkload>();
    });
}

}  // namespace fathom::workloads
