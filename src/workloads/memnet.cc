/**
 * @file
 * memnet — Sukhbaatar et al.'s end-to-end memory network.
 *
 * The full architecture of the original: stories are embedded into an
 * indirectly addressable memory (one slot per sentence, position
 * encoding within sentences), the question embedding queries the
 * memory with softmax attention, and three stacked hops with adjacent
 * weight sharing (A_{k+1} = C_k, W = C_K^T) refine the answer. The
 * bAbI question-answering data is the synthetic generator, which poses
 * genuine one- and two-supporting-fact deductions.
 *
 * The op mix deliberately matches the paper's Fig. 6c: many small
 * Gather/Mul/Tile/Sum/Softmax operations over skinny tensors.
 */
#include "data/synthetic_babi.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace fathom::workloads {
namespace {

using graph::Output;

class MemNetWorkload : public Workload {
  public:
    std::string name() const override { return "memnet"; }
    std::string
    description() const override
    {
        return "Facebook's memory-oriented neural system. One of two novel "
               "architectures which explore a topology beyond feed-forward "
               "lattices of neurons.";
    }
    std::string neuronal_style() const override { return "Memory Network"; }
    int num_layers() const override { return 3; }
    std::string learning_task() const override { return "Supervised"; }
    std::string dataset() const override { return "synthetic-babi"; }

    void
    Setup(const WorkloadConfig& config) override
    {
        batch_ = config.batch_size > 0 ? config.batch_size : 8;
        session_ = MakeSession(config);
        dataset_ = std::make_unique<data::SyntheticBabiDataset>(
            kSentences, kSentenceLen, /*two_hop=*/true, config.seed ^ 0xBAB1);
        vocab_ = dataset_->vocab();

        Rng init_rng(config.seed * 31 + 8);
        auto b = session_->MakeBuilder();
        graph::ScopeGuard scope(b, "memnet");

        stories_ = b.Placeholder("stories");      // int32 [B, S, L]
        questions_ = b.Placeholder("questions");  // int32 [B, L]
        answers_ = b.Placeholder("answers");      // int32 [B] (token ids)

        // Adjacent weight sharing uses kHops+1 tables:
        //   A_k = table[k-1], C_k = table[k], B = table[0], W = table[K]^T.
        std::vector<Output> tables;
        for (int k = 0; k <= kHops; ++k) {
            tables.push_back(trainables_.NewVariable(
                b, "embedding_" + std::to_string(k),
                nn::GlorotUniform(init_rng, Shape{vocab_, kEmbed}, vocab_,
                                  kEmbed)));
        }
        // Temporal encoding T_A/T_C (Sukhbaatar et al., Sec. 4.1):
        // trainable per-slot vectors added to the memory embeddings so
        // the model can order events ("last location" questions are
        // unanswerable from a pure bag of words). Shared adjacently
        // like the word embeddings.
        std::vector<Output> temporal;
        for (int k = 0; k <= kHops; ++k) {
            temporal.push_back(trainables_.NewVariable(
                b, "temporal_" + std::to_string(k),
                nn::GlorotUniform(init_rng, Shape{kSentences, kEmbed},
                                  kSentences, kEmbed)));
        }

        // Position encoding (Sukhbaatar et al., eq. 4) as a constant.
        const Output pe = b.Const(PositionEncoding(), "position_encoding");

        // Question embedding u = sum_j PE_j * B(q_j).
        Output u = b.ReduceSum(
            b.Mul(b.Gather(tables[0], questions_), pe), {1}, false);

        for (int hop = 0; hop < kHops; ++hop) {
            graph::ScopeGuard hop_scope(b, "hop" + std::to_string(hop));
            // Memory and output representations of every sentence.
            const Output m = b.Add(
                SentenceMemory(b, tables[static_cast<std::size_t>(hop)], pe),
                temporal[static_cast<std::size_t>(hop)]);
            const Output c = b.Add(
                SentenceMemory(b, tables[static_cast<std::size_t>(hop + 1)],
                               pe),
                temporal[static_cast<std::size_t>(hop + 1)]);

            // Match scores p = softmax(u . m_i), via an explicit Tile of
            // the query across memory slots (the original's op mix).
            const Output u_tiled = b.Tile(
                b.Reshape(u, {-1, 1, kEmbed}), {1, kSentences, 1});
            const Output scores =
                b.ReduceSum(b.Mul(u_tiled, m), {2}, false);  // [B, S]
            const Output p = b.Softmax(scores);

            // Response o = sum_i p_i c_i; next query u = u + o.
            const Output p3 = b.Reshape(p, {-1, kSentences, 1});
            const Output o = b.ReduceSum(b.Mul(p3, c), {1}, false);
            u = b.Add(u, o);
        }

        // Answer: W = C_K^T weight tying -> logits over the vocabulary.
        logits_ = b.MatMul(u, tables.back(), false, /*transpose_b=*/true);
        predictions_ = b.ArgMax(logits_);
        loss_ = b.SoftmaxCrossEntropy(logits_, answers_)[0];
        // The original annealed plain SGD with a "linear start" warmup
        // to escape the attention plateau; at this scale Adam with
        // gradient clipping reaches the same basin in a few hundred
        // steps, which keeps the verified-learning tests fast.
        auto optimizer = nn::OptimizerConfig::Adam(3e-3f);
        optimizer.clip_value = 5.0f;
        train_op_ = nn::Minimize(b, loss_, trainables_, optimizer);
    }


    bool has_accuracy_metric() const override { return true; }
    bool has_serving_endpoint() const override { return true; }

    serving::InferenceSignature
    ServingSignature() const override
    {
        serving::InferenceSignature sig;
        sig.inputs = {{PlaceholderName(*session_, stories_), DType::kInt32,
                       {kSentences, kSentenceLen}},
                      {PlaceholderName(*session_, questions_), DType::kInt32,
                       {kSentenceLen}}};
        sig.fetches = {logits_, predictions_};
        sig.output_names = {"logits", "predictions"};
        return sig;
    }

    serving::RequestFeeds
    SampleServingRequest() override
    {
        auto batch = dataset_->NextBatch(1);
        return {{PlaceholderName(*session_, stories_), batch.stories},
                {PlaceholderName(*session_, questions_), batch.questions}};
    }

    float
    EvaluateAccuracy(int batches) override
    {
        auto pipeline =
            MakePipeline("eval", eval_step_, [this](std::int64_t t) {
                return BatchFeeds(kEvalStreamBase + t);
            });
        int correct = 0;
        int total = 0;
        for (int i = 0; i < batches; ++i) {
            const runtime::FeedMap feeds = pipeline->Next();
            const auto out = session_->Run(feeds, {predictions_});
            // The answer feed already carries vocabulary token ids, so
            // predictions compare directly.
            const Tensor& labels = feeds.at(answers_.node);
            for (std::int64_t j = 0; j < batch_; ++j) {
                correct += out[0].data<std::int32_t>()[j] ==
                           labels.data<std::int32_t>()[j];
                ++total;
            }
        }
        eval_step_ += batches;
        return static_cast<float>(correct) / static_cast<float>(total);
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
            session_->Run(feeds, {predictions_});
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
    /** Embeds all story sentences: [B,S,L] -> sum_L -> [B,S,E]. */
    Output
    SentenceMemory(graph::GraphBuilder& b, Output table, Output pe)
    {
        const Output embedded = b.Gather(table, stories_);  // [B,S,L,E]
        return b.ReduceSum(b.Mul(embedded, pe), {2}, false);
    }

    /** The l_kj position-encoding matrix, [L, E]. */
    Tensor
    PositionEncoding() const
    {
        Tensor pe(DType::kFloat32, Shape{kSentenceLen, kEmbed});
        const float big_j = static_cast<float>(kSentenceLen);
        const float big_d = static_cast<float>(kEmbed);
        for (std::int64_t j = 0; j < kSentenceLen; ++j) {
            for (std::int64_t k = 0; k < kEmbed; ++k) {
                const float jj = static_cast<float>(j + 1);
                const float kk = static_cast<float>(k + 1);
                pe.data<float>()[j * kEmbed + k] =
                    (1.0f - jj / big_j) -
                    (kk / big_d) * (1.0f - 2.0f * jj / big_j);
            }
        }
        return pe;
    }

    /**
     * Materializes stream batch @p index as a full feed map. The
     * answer feed carries vocabulary token ids (the answer word),
     * matching the original model's vocabulary-wide softmax; it is
     * unused (pruned) on the inference path.
     */
    data::FeedBatch
    BatchFeeds(std::int64_t index) const
    {
        const auto batch =
            dataset_->BatchAt(static_cast<std::uint64_t>(index), batch_);
        Tensor labels(DType::kInt32, Shape{batch_});
        const std::int32_t location_base = static_cast<std::int32_t>(
            vocab_ - data::SyntheticBabiDataset::kNumLocations);
        for (std::int64_t i = 0; i < batch_; ++i) {
            labels.data<std::int32_t>()[i] =
                location_base + batch.answers.data<std::int32_t>()[i];
        }
        return {{stories_.node, batch.stories},
                {questions_.node, batch.questions},
                {answers_.node, labels}};
    }

    static constexpr std::int64_t kSentences = 20;
    static constexpr std::int64_t kSentenceLen = 6;
    static constexpr std::int64_t kEmbed = 32;
    static constexpr int kHops = 3;

    std::int64_t batch_ = 8;
    std::int64_t vocab_ = 0;
    std::unique_ptr<data::SyntheticBabiDataset> dataset_;
    nn::Trainables trainables_;
    Output stories_, questions_, answers_, logits_, predictions_, loss_;
    graph::NodeId train_op_ = -1;
};

}  // namespace

void
RegisterMemNet()
{
    WorkloadRegistry::Global().Register("memnet", [] {
        return std::make_unique<MemNetWorkload>();
    });
}

}  // namespace fathom::workloads
