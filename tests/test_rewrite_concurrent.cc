/**
 * @file
 * Concurrency battery for the graph rewrite framework (built for the
 * TSan CI job): fused-elementwise and in-place steps executed under
 * inter-op parallelism must race-free reproduce the sequential bits.
 *
 * The in-place grant is the delicate part — a kernel writing into its
 * input's buffer while another lane still held a reference would be a
 * data race, so the executor only grants the alias when the liveness
 * proof AND the runtime refcount agree the input dies at this consumer.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "graph/rewrite/rewrite.h"
#include "ops/register.h"
#include "runtime/session.h"
#include "workloads/workload.h"
#include "test_util.h"

namespace fathom::runtime {
namespace {

using graph::Output;
using test::RandomTensor;

void
ExpectBitIdentical(const Tensor& expected, const Tensor& actual,
                   const std::string& what)
{
    ASSERT_EQ(expected.dtype(), actual.dtype()) << what;
    ASSERT_TRUE(expected.shape() == actual.shape()) << what;
    EXPECT_EQ(0, std::memcmp(expected.data<float>(), actual.data<float>(),
                             expected.byte_size()))
        << what << ": bytes differ from the sequential run";
}

class RewriteConcurrentTest : public ::testing::Test {
  protected:
    static void SetUpTestSuite() { ops::RegisterStandardOps(); }
};

/**
 * Eight parallel elementwise chains fanning into an AddN: fusion
 * collapses each chain to one FusedElementwise, in-place lets AddN and
 * the chain heads write into dying buffers, and the inter-op executor
 * runs the chains on different lanes simultaneously.
 */
TEST_F(RewriteConcurrentTest, FusedChainFanOutHammerBattery)
{
    auto run = [](int inter, int iterations) {
        Session session(3, {.inter_op_threads = inter});
        auto b = session.MakeBuilder();
        const Output x = b.Placeholder("x");
        std::vector<Output> chains;
        for (int i = 0; i < 8; ++i) {
            const float shift = 0.1f * static_cast<float>(i + 1);
            chains.push_back(b.Tanh(b.Relu(
                b.Add(b.Mul(x, b.ScalarConst(shift)),
                      b.ScalarConst(shift)))));
        }
        const Output y = b.ReduceSum(b.AddN(chains), {}, false);

        std::vector<Tensor> results;
        for (int it = 0; it < iterations; ++it) {
            FeedMap feeds;
            feeds[x.node] =
                RandomTensor(Shape{512}, static_cast<std::uint64_t>(it));
            results.push_back(session.Run(feeds, {y})[0].Clone());
        }
        return results;
    };

    constexpr int kIterations = 20;
    const auto sequential = run(1, kIterations);
    for (int inter : {2, 4}) {
        const auto parallel = run(inter, kIterations);
        ASSERT_EQ(sequential.size(), parallel.size());
        for (int it = 0; it < kIterations; ++it) {
            ExpectBitIdentical(sequential[static_cast<std::size_t>(it)],
                               parallel[static_cast<std::size_t>(it)],
                               "inter=" + std::to_string(inter) +
                                   " iteration=" + std::to_string(it));
        }
    }
}

/**
 * Pattern-toggled workloads under inter-op parallelism: with fusion
 * and in-place enabled (alone and together), training across inter-op
 * widths {1, 2, 4} leaves the loss and every variable bit-identical.
 */
TEST_F(RewriteConcurrentTest, WorkloadRewritesInterOpBitIdenticalBattery)
{
    workloads::RegisterAllWorkloads();

    graph::rewrite::RewriteOptions fusion_only;
    fusion_only.constant_folding = false;
    fusion_only.common_subexpression = false;
    fusion_only.transpose_folding = false;
    fusion_only.inplace = false;
    graph::rewrite::RewriteOptions inplace_only = fusion_only;
    inplace_only.elementwise_fusion = false;
    inplace_only.inplace = true;
    const graph::rewrite::RewriteOptions all_on;

    struct Variant {
        std::string label;
        graph::rewrite::RewriteOptions opts;
    };
    const std::vector<Variant> variants = {{"fusion", fusion_only},
                                           {"inplace", inplace_only},
                                           {"all", all_on}};

    for (const std::string name : {"autoenc", "memnet", "deepq"}) {
        SCOPED_TRACE(name);
        for (const auto& variant : variants) {
            SCOPED_TRACE(variant.label);

            auto run_once = [&](int inter) {
                auto workload =
                    workloads::WorkloadRegistry::Global().Create(name);
                workloads::WorkloadConfig config;
                config.seed = 7;
                config.batch_size = 4;
                config.execution.inter_op_threads = inter;
                config.execution.rewrites = variant.opts;
                workload->Setup(config);
                const float loss = workload->RunTraining(2).final_loss;
                std::map<std::string, Tensor> variables;
                for (const auto& var :
                     workload->session().variables().Names()) {
                    variables[var] =
                        workload->session().variables().Get(var).Clone();
                }
                return std::make_pair(loss, std::move(variables));
            };

            const auto [base_loss, base_vars] = run_once(1);
            for (int inter : {2, 4}) {
                SCOPED_TRACE("inter=" + std::to_string(inter));
                const auto [loss, vars] = run_once(inter);
                EXPECT_EQ(base_loss, loss);
                ASSERT_EQ(base_vars.size(), vars.size());
                for (const auto& [var_name, expected] : base_vars) {
                    const auto it = vars.find(var_name);
                    ASSERT_NE(it, vars.end()) << var_name;
                    ExpectBitIdentical(expected, it->second, var_name);
                }
            }
        }
    }
}

}  // namespace
}  // namespace fathom::runtime
