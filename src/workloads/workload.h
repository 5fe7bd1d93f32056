/**
 * @file
 * The standard Fathom model interface.
 *
 * The paper's key logistical contribution is that "all Fathom models
 * are wrapped in a standard interface which exposes the same functions
 * for every model. Thus, evaluating training, inference, or simply
 * inspecting the model's dataflow graph is straightforward." This
 * class is that interface.
 */
#ifndef FATHOM_WORKLOADS_WORKLOAD_H
#define FATHOM_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/pipeline/input_pipeline.h"
#include "runtime/session.h"
#include "serving/frozen_plan.h"

namespace fathom::workloads {

/** Configuration common to all workloads. */
struct WorkloadConfig {
    std::uint64_t seed = 1;

    /** Minibatch size; 0 selects the model default. */
    std::int64_t batch_size = 0;

    /**
     * Per-op execution tracing (timestamps, costs; the input of every
     * Figs. 1-6 analysis). On by default, matching historical behavior;
     * turn off for pure-throughput runs — with it off the executor
     * takes no per-op clock readings at all.
     */
    bool tracing = true;

    /**
     * Process-wide metrics collection (telemetry::MetricsRegistry):
     * executor queue depth, worker busy/idle, allocator hit rates,
     * GEMM pack reuse. Off by default; the registry is global, so this
     * flag is last-Setup-wins across concurrently configured
     * workloads.
     */
    bool telemetry = false;

    /**
     * Input-pipeline prefetch depth: how many pre-materialized feed
     * batches may wait in the bounded queue ahead of the consuming
     * step. 0 generates batches inline with each step (the historical
     * behavior); 1 is classic double buffering; >= 2 also absorbs
     * producer jitter. Batches are a pure function of (seed, step), so
     * fetches, losses, and traces are bit-identical at every depth;
     * see data::InputPipeline.
     */
    int prefetch_depth = 2;

    /** Background batch-producer threads (effective when depth > 0). */
    int producer_threads = 1;

    /** Thread widths, memory planner, rewrites and verification, for
        both the training session and the frozen serving plan. */
    runtime::ExecutionOptions execution;
};

/** Aggregate result of a timed run of steps. */
struct StepResult {
    int steps = 0;
    double wall_seconds = 0.0;  ///< total wall time across steps.
    float final_loss = 0.0f;    ///< last step's loss (training only).
    float mean_loss = 0.0f;     ///< mean loss across steps (training only).
};

/**
 * Base class of the eight Fathom models.
 *
 * Lifecycle: construct, Setup() once, then any mix of RunInference()
 * and RunTraining(). The session (graph, variables, tracer) is exposed
 * for the profiling tools.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Canonical short name, e.g. "alexnet". */
    virtual std::string name() const = 0;

    /** One-line description (Table II's "purpose" column). */
    virtual std::string description() const = 0;

    // ---- Table II metadata ------------------------------------------------

    /** Neuronal style, e.g. "Convolutional, Full". */
    virtual std::string neuronal_style() const = 0;

    /** Weight-layer count as reported in Table II. */
    virtual int num_layers() const = 0;

    /** Learning task: Supervised/Unsupervised/Reinforcement. */
    virtual std::string learning_task() const = 0;

    /** Dataset (the synthetic substitute's name). */
    virtual std::string dataset() const = 0;

    // ---- lifecycle --------------------------------------------------------

    /** Builds graphs and initializes parameters. Call exactly once. */
    virtual void Setup(const WorkloadConfig& config) = 0;

    /** Runs forward-only steps on fresh input batches. */
    virtual StepResult RunInference(int steps) = 0;

    /** Runs full forward+backward+update steps. */
    virtual StepResult RunTraining(int steps) = 0;

    /**
     * Task-level quality metric on fresh data, in [0, 1]: classification
     * accuracy for the supervised classifiers, answer accuracy for
     * memnet. Workloads without a natural accuracy (generative,
     * sequence-loss, reinforcement models) throw std::logic_error.
     * Part of the "verified reference implementation" contract: tests
     * assert this rises above chance with training.
     */
    virtual float EvaluateAccuracy(int batches);

    /** @return true if EvaluateAccuracy is meaningful for this model. */
    virtual bool has_accuracy_metric() const { return false; }

    // ---- serving ----------------------------------------------------------

    /**
     * @return true if the model declares a servable inference endpoint
     * (all eight Fathom models do; the flag exists so tests and tools
     * can feature-detect instead of catching).
     */
    virtual bool has_serving_endpoint() const { return false; }

    /**
     * Declares the model's serving endpoint against its live session:
     * per-example input specs (batch dim excluded) and the
     * deterministic inference fetches. The graph takes its batch from
     * the feed's leading dimension, so a plan serves any number of
     * rows. Valid after Setup; the default throws std::logic_error.
     *
     * Models whose training-time inference path is stochastic (the
     * variational autoencoder samples its code) declare a
     * deterministic serving head instead — FrozenPlan rejects stateful
     * ops by design.
     */
    virtual serving::InferenceSignature ServingSignature() const;

    /**
     * @return one synthetic single-example request (each tensor shaped
     * [1, example dims]), keyed by placeholder node name — what a
     * client of the serving runtime would Submit(). Draws from the
     * model's dataset, so repeated calls yield distinct examples.
     */
    virtual serving::RequestFeeds SampleServingRequest();

    /**
     * Freezes the serving endpoint into an immutable, reentrant plan
     * with the config's execution options (see
     * serving::FrozenPlan::Freeze). The workload's session keeps
     * training independently afterwards.
     */
    std::shared_ptr<const serving::FrozenPlan> FreezeServingPlan() const;

    /** @return the session (graph, variables, trace). Valid after Setup. */
    runtime::Session& session();
    const runtime::Session& session() const;

    /** @return total trainable parameter count. Valid after Setup. */
    std::int64_t num_parameters() const;

  protected:
    /**
     * @return a session running with the config's execution options,
     * tracing and telemetry. Every model's Setup() starts with this,
     * so a new knob lands in all eight workloads at once. Also retains
     * the config, which MakePipeline and FreezeServingPlan read.
     */
    std::unique_ptr<runtime::Session> MakeSession(
        const WorkloadConfig& config);

    /**
     * Builds the input pipeline for one run loop. Every workload's
     * RunTraining/RunInference/EvaluateAccuracy drains one of these
     * instead of generating batches inline; the WorkloadConfig
     * prefetch knobs apply uniformly this way.
     *
     * @param stream     lane-name suffix, e.g. "train".
     * @param start_step first step index the loop consumes (workloads
     *                   keep per-stream counters so repeated runs
     *                   continue their stream).
     * @param fn         the batch function; pure unless @p stateful.
     * @param stateful   true when @p fn must run inline, in order, on
     *                   the consumer thread (deepq's
     *                   policy-in-the-loop generation) — forces
     *                   prefetch depth 0 regardless of the config.
     */
    std::unique_ptr<data::InputPipeline> MakePipeline(
        const std::string& stream, std::int64_t start_step,
        data::BatchFn fn, bool stateful = false);

    std::unique_ptr<runtime::Session> session_;
    WorkloadConfig config_;

    // Per-stream step counters: each run loop continues its stream
    // where the previous call left off, so e.g. two RunTraining(2)
    // calls consume the same batches as one RunTraining(4).
    std::int64_t train_step_ = 0;
    std::int64_t infer_step_ = 0;
    std::int64_t eval_step_ = 0;
};

/**
 * Disjoint index bases for a model's independent batch streams.
 * Training batch t draws from stream index kTrainStreamBase + t,
 * inference from kInferStreamBase + t, etc., so the streams never
 * collide for any realistic step count.
 */
inline constexpr std::int64_t kTrainStreamBase = 0;
inline constexpr std::int64_t kInferStreamBase = std::int64_t{1} << 40;
inline constexpr std::int64_t kEvalStreamBase = std::int64_t{1} << 41;

/** Factory registry over the eight models. */
class WorkloadRegistry {
  public:
    using Factory = std::function<std::unique_ptr<Workload>()>;

    static WorkloadRegistry& Global();

    void Register(const std::string& name, Factory factory);

    /** @return a fresh workload; throws std::out_of_range if unknown. */
    std::unique_ptr<Workload> Create(const std::string& name) const;

    /** @return all names in the paper's Table II order. */
    std::vector<std::string> Names() const;

  private:
    std::map<std::string, Factory> factories_;
    std::vector<std::string> order_;
};

/** Registers the standard ops and all eight workloads. Idempotent. */
void RegisterAllWorkloads();

}  // namespace fathom::workloads

#endif  // FATHOM_WORKLOADS_WORKLOAD_H
