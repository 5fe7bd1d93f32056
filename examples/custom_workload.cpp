/**
 * @file
 * Extending Fathom: registering your own workload.
 *
 * The paper closes by hoping Fathom "will become a 'living' workload
 * suite, incorporating advances as they are discovered." This example
 * is the recipe: implement the Workload interface, register a factory,
 * and every tool in the repository — the profiler, the figure benches,
 * the similarity analysis — picks the new model up through the same
 * standard interface as the original eight.
 *
 *   $ ./custom_workload
 */
#include <cstdio>

#include "analysis/op_profile.h"
#include "data/synthetic_mnist.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "workloads/common.h"
#include "workloads/workload.h"

using namespace fathom;

namespace {

/**
 * A ninth workload: a plain MLP digit classifier — the "hello world"
 * of deep learning, here mostly to demonstrate the extension recipe.
 */
class MlpWorkload : public workloads::Workload {
  public:
    std::string name() const override { return "mlp"; }
    std::string
    description() const override
    {
        return "A 3-layer perceptron on synthetic MNIST; the living-suite "
               "extension example.";
    }
    std::string neuronal_style() const override { return "Full"; }
    int num_layers() const override { return 3; }
    std::string learning_task() const override { return "Supervised"; }
    std::string dataset() const override { return "synthetic-mnist"; }

    void
    Setup(const workloads::WorkloadConfig& config) override
    {
        batch_ = config.batch_size > 0 ? config.batch_size : 32;
        session_ = MakeSession(config);
        dataset_ = std::make_unique<data::SyntheticMnistDataset>(
            config.seed ^ 0x31337);

        Rng init_rng(config.seed + 100);
        auto b = session_->MakeBuilder();
        graph::ScopeGuard scope(b, "mlp");
        images_ = b.Placeholder("images");
        labels_ = b.Placeholder("labels");

        graph::Output h = nn::Dense(b, &trainables_, init_rng, "fc1",
                                    images_, 784, 128,
                                    nn::Activation::kRelu);
        h = nn::Dense(b, &trainables_, init_rng, "fc2", h, 128, 64,
                      nn::Activation::kRelu);
        logits_ = nn::Dense(b, &trainables_, init_rng, "fc3", h, 64, 10);
        predictions_ = b.ArgMax(logits_);
        loss_ = b.SoftmaxCrossEntropy(logits_, labels_)[0];
        train_op_ = nn::Minimize(b, loss_, trainables_,
                                 nn::OptimizerConfig::Momentum(0.05f));
    }

    workloads::StepResult
    RunInference(int steps) override
    {
        return workloads::TimeSteps(steps, [this](int) {
            const auto batch = dataset_->NextBatch(batch_);
            runtime::FeedMap feeds;
            feeds[images_.node] = batch.images;
            session_->Run(feeds, {predictions_});
            return 0.0f;
        });
    }

    workloads::StepResult
    RunTraining(int steps) override
    {
        return workloads::TimeSteps(steps, [this](int) {
            const auto batch = dataset_->NextBatch(batch_);
            runtime::FeedMap feeds;
            feeds[images_.node] = batch.images;
            feeds[labels_.node] = batch.labels;
            return session_->Run(feeds, {loss_}, {train_op_})[0]
                .scalar_value();
        });
    }

  private:
    std::int64_t batch_ = 32;
    std::unique_ptr<data::SyntheticMnistDataset> dataset_;
    nn::Trainables trainables_;
    graph::Output images_, labels_, logits_, predictions_, loss_;
    graph::NodeId train_op_ = -1;
};

}  // namespace

int
main()
{
    workloads::RegisterAllWorkloads();
    // The one-line extension point.
    workloads::WorkloadRegistry::Global().Register(
        "mlp", [] { return std::make_unique<MlpWorkload>(); });

    std::printf("registered workloads:");
    for (const auto& name : workloads::WorkloadRegistry::Global().Names()) {
        std::printf(" %s", name.c_str());
    }
    std::printf("\n\n");

    // The new workload behaves exactly like the original eight.
    auto w = workloads::WorkloadRegistry::Global().Create("mlp");
    workloads::WorkloadConfig config;
    config.seed = 7;
    w->Setup(config);
    const auto result = w->RunTraining(20);
    std::printf("mlp: %d training steps, mean loss %.4f -> final loss "
                "%.4f (%lld parameters)\n",
                result.steps, result.mean_loss, result.final_loss,
                static_cast<long long>(w->num_parameters()));

    const auto profile =
        analysis::WallProfile(w->session().tracer(), /*skip_steps=*/2);
    std::printf("\nwhere the time goes (Fig. 3 methodology, applied to the "
                "new workload):\n");
    for (const auto& [type, fraction] : profile.SortedFractions()) {
        if (fraction < 0.02) {
            break;
        }
        std::printf("  %-22s %5.1f%%\n", type.c_str(), 100.0 * fraction);
    }
    return 0;
}
