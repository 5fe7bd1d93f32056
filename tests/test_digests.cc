/**
 * @file
 * Pins the numbers the eight workloads produce. For each workload
 * (seed 7, batch 8, tracing off) one FNV-1a digest covers the bits of
 * four training-step losses, of every float variable after them, and
 * of four FrozenPlan::ServeOne outputs from a plan frozen afterwards.
 * Const values live in the same variable store, so the digest covers
 * them too: adding or removing a Const changes it even when no loss,
 * variable or output moves.
 *
 * The bit-identity batteries compare execution modes within one build,
 * so a kernel change that moves every mode's result the same way
 * passes them. This test fails on it instead. A change that is meant
 * to alter results updates kRecorded and says why.
 *
 * The digests belong to the arithmetic of the build that recorded
 * them: the GEMM engine is compiled for the host's vector ISA
 * (src/kernels/CMakeLists.txt) and transcendental ops call libm.
 * They were recorded with GCC 12 and glibc 2.36 on an x86-64 host
 * with AVX-512 and FMA; the failure message prints the digest a
 * different toolchain or ISA computes.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "serving/frozen_plan.h"
#include "workloads/workload.h"

namespace fathom {
namespace {

/** 64-bit FNV-1a over raw bytes. */
class Fnv1a {
  public:
    void Add(const void* data, std::size_t bytes)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
        }
    }

    void Add(const Tensor& t)
    {
        const std::size_t bytes =
            static_cast<std::size_t>(t.num_elements()) * DTypeSize(t.dtype());
        if (t.dtype() == DType::kFloat32) {
            Add(t.data<float>(), bytes);
        } else {
            Add(t.data<std::int32_t>(), bytes);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string
Hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Losses, variables and serving outputs of one seeded run. */
std::uint64_t
WorkloadDigest(const std::string& name)
{
    auto workload = workloads::WorkloadRegistry::Global().Create(name);
    workloads::WorkloadConfig config;
    config.seed = 7;
    config.batch_size = 8;
    config.tracing = false;
    workload->Setup(config);

    Fnv1a fnv;
    for (int step = 0; step < 4; ++step) {
        const float loss = workload->RunTraining(1).final_loss;
        fnv.Add(&loss, sizeof(loss));
    }
    const auto& variables = workload->session().variables();
    for (const std::string& var : variables.Names()) {
        if (variables.Get(var).dtype() == DType::kFloat32) {
            fnv.Add(var.data(), var.size());
            fnv.Add(variables.Get(var));
        }
    }
    const auto plan = workload->FreezeServingPlan();
    for (int request = 0; request < 4; ++request) {
        for (const Tensor& out :
             plan->ServeOne(workload->SampleServingRequest())) {
            fnv.Add(out);
        }
    }
    return fnv.value();
}

const std::map<std::string, std::uint64_t> kRecorded = {
    {"alexnet", 0x62dc3c42a67d094dull},
    {"autoenc", 0x18d05ce71e467386ull},
    {"deepq", 0xcf54b435ec4927cdull},
    {"memnet", 0x13cfb2a490a60afeull},
    {"residual", 0x36f00fbbe507a6a2ull},
    {"seq2seq", 0x224c838b576d4896ull},
    {"speech", 0x671e0fdd9f2dca0bull},
    {"vgg", 0x73f3540525865baaull},
};

TEST(ResultDigestTest, AllWorkloadsMatchRecordedDigests)
{
    workloads::RegisterAllWorkloads();
    const auto names = workloads::WorkloadRegistry::Global().Names();
    ASSERT_EQ(names.size(), kRecorded.size());
    for (const std::string& name : names) {
        const auto it = kRecorded.find(name);
        ASSERT_NE(it, kRecorded.end()) << name;
        const std::uint64_t digest = WorkloadDigest(name);
        EXPECT_EQ(digest, it->second)
            << name << " computed " << Hex(digest) << ", recorded "
            << Hex(it->second);
    }
}

}  // namespace
}  // namespace fathom
