/**
 * @file
 * speech — Hannun et al.'s Deep Speech.
 *
 * Faithful to the original's deliberately homogeneous design: three
 * fully-connected ReLU layers applied per spectrogram frame, one
 * bidirectional *simple* recurrent layer (explicitly not LSTM — the
 * paper quotes the authors on this choice), a fourth fully-connected
 * layer, a linear output layer, and CTC loss over unsegmented phoneme
 * transcriptions. Data is the synthetic-TIMIT generator, matching the
 * paper's own TIMIT substitution for Baidu's proprietary corpus.
 */
#include "data/synthetic_timit.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace fathom::workloads {
namespace {

using graph::Output;

class SpeechWorkload : public Workload {
  public:
    std::string name() const override { return "speech"; }
    std::string
    description() const override
    {
        return "Baidu's speech recognition engine. Proved purely "
               "deep-learned networks can beat hand-tuned systems.";
    }
    std::string neuronal_style() const override { return "Recurrent, Full"; }
    int num_layers() const override { return 5; }
    std::string learning_task() const override { return "Supervised"; }
    std::string dataset() const override { return "synthetic-timit"; }

    void
    Setup(const WorkloadConfig& config) override
    {
        batch_ = config.batch_size > 0 ? config.batch_size : 2;
        session_ = MakeSession(config);
        dataset_ = std::make_unique<data::SyntheticTimitDataset>(
            kFreq, kPhonemes, kTime, config.seed ^ 0x5BEEC);

        Rng init_rng(config.seed * 31 + 6);
        auto b = session_->MakeBuilder();
        graph::ScopeGuard scope(b, "speech");

        frames_ = b.Placeholder("frames");  // [B, T, F]
        labels_ = b.Placeholder("labels");  // int32 [B, Lmax], -1 padded.

        // Layers 1-3: per-frame fully-connected ReLU stack.
        Output x = b.Reshape(frames_, {-1, kFreq});  // [B*T, F]
        x = nn::Dense(b, &trainables_, init_rng, "fc1", x, kFreq, kHidden,
                      nn::Activation::kRelu);
        x = nn::Dense(b, &trainables_, init_rng, "fc2", x, kHidden, kHidden,
                      nn::Activation::kRelu);
        x = nn::Dense(b, &trainables_, init_rng, "fc3", x, kHidden, kHidden,
                      nn::Activation::kRelu);
        const Output h3 = b.Reshape(x, {-1, kTime, kHidden});

        // Layer 4: bidirectional simple recurrent layer.
        const auto w_f = nn::MakeDense(b, &trainables_, init_rng, "rnn_fwd_in",
                                       kHidden, kHidden);
        const auto u_f = nn::MakeDense(b, &trainables_, init_rng,
                                       "rnn_fwd_rec", kHidden, kHidden);
        const auto w_b = nn::MakeDense(b, &trainables_, init_rng, "rnn_bwd_in",
                                       kHidden, kHidden);
        const auto u_b = nn::MakeDense(b, &trainables_, init_rng,
                                       "rnn_bwd_rec", kHidden, kHidden);

        std::vector<Output> per_step(static_cast<std::size_t>(kTime));
        for (std::int64_t t = 0; t < kTime; ++t) {
            per_step[static_cast<std::size_t>(t)] = b.Reshape(
                b.Slice(h3, {0, t, 0}, {-1, 1, -1}), {-1, kHidden});
        }

        // Both directions start from zeros shaped like a step's input,
        // so the batch comes from the feed.
        const Output h0 = b.AddOp("h0", "ZerosLike", {per_step.front()});
        Output h_fwd = h0;
        std::vector<Output> fwd(static_cast<std::size_t>(kTime));
        for (std::int64_t t = 0; t < kTime; ++t) {
            h_fwd = b.Relu(b.Add(
                nn::ApplyDense(b, w_f, per_step[static_cast<std::size_t>(t)]),
                nn::ApplyDense(b, u_f, h_fwd)));
            fwd[static_cast<std::size_t>(t)] = h_fwd;
        }
        Output h_bwd = h0;
        std::vector<Output> bwd(static_cast<std::size_t>(kTime));
        for (std::int64_t t = kTime - 1; t >= 0; --t) {
            h_bwd = b.Relu(b.Add(
                nn::ApplyDense(b, w_b, per_step[static_cast<std::size_t>(t)]),
                nn::ApplyDense(b, u_b, h_bwd)));
            bwd[static_cast<std::size_t>(t)] = h_bwd;
        }

        // h4 = h_fwd + h_bwd per step, restacked to [B*T, H].
        std::vector<Output> combined;
        combined.reserve(static_cast<std::size_t>(kTime));
        for (std::int64_t t = 0; t < kTime; ++t) {
            combined.push_back(b.Reshape(
                b.Add(fwd[static_cast<std::size_t>(t)],
                      bwd[static_cast<std::size_t>(t)]),
                {-1, 1, kHidden}));
        }
        const Output h4 =
            b.Reshape(b.Concat(combined, 1), {-1, kHidden});  // [B*T, H]

        // Layer 5 and the linear output projection.
        Output h5 = nn::Dense(b, &trainables_, init_rng, "fc5", h4, kHidden,
                              kHidden, nn::Activation::kRelu);
        const Output flat_logits = nn::Dense(b, &trainables_, init_rng,
                                             "output", h5, kHidden, kClasses);
        logits_ = b.Reshape(flat_logits, {-1, kTime, kClasses});

        // CTC loss per sequence, averaged over the batch (blank = 0).
        std::vector<Output> losses;
        for (std::int64_t i = 0; i < batch_; ++i) {
            const Output seq_logits = b.Reshape(
                b.Slice(logits_, {i, 0, 0}, {1, -1, -1}), {kTime, kClasses});
            const Output seq_labels = b.Slice(labels_, {i, 0}, {1, -1});
            losses.push_back(b.CtcLoss(seq_logits, seq_labels, 0)[0]);
        }
        loss_ = b.Mul(b.AddN(losses),
                      b.ScalarConst(1.0f / static_cast<float>(batch_)));
        train_op_ = nn::Minimize(b, loss_, trainables_,
                                 nn::OptimizerConfig::Momentum(1e-3f, 0.9f));
    }

    bool has_serving_endpoint() const override { return true; }

    serving::InferenceSignature
    ServingSignature() const override
    {
        serving::InferenceSignature sig;
        sig.inputs = {{PlaceholderName(*session_, frames_), DType::kFloat32,
                       {kTime, kFreq}}};
        sig.fetches = {logits_};
        sig.output_names = {"logits"};
        return sig;
    }

    serving::RequestFeeds
    SampleServingRequest() override
    {
        Tensor frames = Tensor::Zeros(Shape{1, kTime, kFreq});
        const auto utt = dataset_->Next();
        std::copy(utt.frames.data<float>(),
                  utt.frames.data<float>() + kTime * kFreq,
                  frames.data<float>());
        return {{PlaceholderName(*session_, frames_), frames}};
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
     * Materializes stream batch @p index: a batch of utterances
     * assembled into [B, T, F] frames plus -1-padded labels. The label
     * feed is unused (pruned) on the inference path.
     */
    data::FeedBatch
    BatchFeeds(std::int64_t index) const
    {
        const auto utterances =
            dataset_->BatchAt(static_cast<std::uint64_t>(index), batch_);
        Tensor frames = Tensor::Zeros(Shape{batch_, kTime, kFreq});
        Tensor labels = Tensor(DType::kInt32, Shape{batch_, kMaxLabels});
        std::int32_t* lp = labels.data<std::int32_t>();
        std::fill(lp, lp + labels.num_elements(), -1);
        for (std::int64_t i = 0; i < batch_; ++i) {
            const auto& utt = utterances[static_cast<std::size_t>(i)];
            std::copy(utt.frames.data<float>(),
                      utt.frames.data<float>() + kTime * kFreq,
                      frames.data<float>() + i * kTime * kFreq);
            const std::int64_t count = std::min<std::int64_t>(
                static_cast<std::int64_t>(utt.labels.size()), kMaxLabels);
            for (std::int64_t l = 0; l < count; ++l) {
                lp[i * kMaxLabels + l] =
                    utt.labels[static_cast<std::size_t>(l)];
            }
        }
        return {{frames_.node, frames}, {labels_.node, labels}};
    }

    static constexpr std::int64_t kTime = 30;
    static constexpr std::int64_t kFreq = 32;
    static constexpr std::int64_t kHidden = 128;
    static constexpr std::int64_t kPhonemes = 27;
    static constexpr std::int64_t kClasses = kPhonemes + 1;  // + blank.
    static constexpr std::int64_t kMaxLabels = kTime / 2;

    std::int64_t batch_ = 2;
    std::unique_ptr<data::SyntheticTimitDataset> dataset_;
    nn::Trainables trainables_;
    Output frames_, labels_, logits_, loss_;
    graph::NodeId train_op_ = -1;
};

}  // namespace

void
RegisterSpeech()
{
    WorkloadRegistry::Global().Register(
        "speech", [] { return std::make_unique<SpeechWorkload>(); });
}

}  // namespace fathom::workloads
