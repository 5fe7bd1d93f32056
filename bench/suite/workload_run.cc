#include "workload_run.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/export.h"
#include "analysis/roofline.h"
#include "cores.h"
#include "graph/verify/verifier.h"
#include "loadgen.h"
#include "spans.h"
#include "stats.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace fathom::bench_suite {

namespace {

using Clock = std::chrono::steady_clock;

/** Length of one max-rate ladder probe (traced run). */
constexpr double kProbeWindowS = 0.8;
/** Length of the traced run's serve window at the nominal rate. */
constexpr double kTracedServeWindowS = 1.0;
/** Windows of each kind per round of the untraced run. */
constexpr int kWindowsPerRound = 4;
/**
 * Timed set-ups per round. With one, setup_s rested on 3 to 7 samples a
 * run, and its quartiles over ten runs were 14 to 22% apart.
 */
constexpr int kSetupsPerRound = 3;
/** Smoke runs: every window this short, every step window this long. */
constexpr double kSmokeWindowS = 0.3;
constexpr int kSmokeSteps = 2;
constexpr int kMinRounds = 3;
constexpr int kRequestPool = 32;
constexpr int kServeBatchReps = 100;
constexpr int kVerifyReps = 5;

double
SecondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
RecordFailure(RunResult* out, std::int64_t n, const std::string& what)
{
    out->failed += n;
    if (out->errors.size() < 5) {
        out->errors.push_back(what);
    }
}

Metric
Single(std::string name, std::string unit, double value)
{
    return Metric{std::move(name), value, std::move(unit), 1, value, value};
}

/** Median of per-window values, with their quartiles. */
Metric
OverWindows(std::string name, std::string unit, const std::vector<double>& v)
{
    if (v.empty()) {
        return Metric{std::move(name), 0.0, std::move(unit), 0, 0.0, 0.0};
    }
    const Summary s = Summarize(v);
    return Metric{std::move(name), s.median, std::move(unit), s.n, s.q1, s.q3};
}

/**
 * Percentile @p p of the latencies of every window together, counting
 * every request; q1/q3 are the quartiles of the per-window percentiles.
 * Pooling gives the tail many samples, where one window has few.
 */
Metric
Pooled(std::string name, const std::vector<std::vector<double>>& windows, double p)
{
    std::vector<double> all;
    std::vector<double> per_window;
    for (const std::vector<double>& w : windows) {
        all.insert(all.end(), w.begin(), w.end());
        per_window.push_back(Percentile(w, p));
    }
    if (all.empty()) {
        return Metric{std::move(name), 0.0, "ms", 0, 0.0, 0.0};
    }
    const Summary s = Summarize(per_window);
    return Metric{std::move(name), Percentile(all, p), "ms",
                  static_cast<int>(all.size()), s.q1, s.q3};
}

workloads::WorkloadConfig
Config(const WorkloadSpec& spec, std::uint64_t seed, bool traced)
{
    workloads::WorkloadConfig config;
    config.seed = seed;
    config.batch_size = spec.batch;
    config.tracing = traced;
    config.telemetry = traced;
    return config;
}

/**
 * Runs one window of @p steps training or inference steps.
 * @return its time per step in ms, or nullopt (the failure recorded)
 *         when a step threw or the training loss is not finite.
 */
std::optional<double>
StepWindow(workloads::Workload& workload, bool train, int steps, RunResult* out)
{
    out->attempted += steps;
    const auto t0 = Clock::now();
    try {
        const workloads::StepResult r =
            train ? workload.RunTraining(steps) : workload.RunInference(steps);
        const double seconds = SecondsSince(t0);
        if (train && !(std::isfinite(r.final_loss) && std::isfinite(r.mean_loss))) {
            RecordFailure(out, steps, "non-finite training loss");
            return std::nullopt;
        }
        return seconds * 1e3 / steps;
    } catch (const std::exception& e) {
        RecordFailure(out, steps, e.what());
        return std::nullopt;
    }
}

/**
 * Create + Setup + the first training and inference step: the lazy
 * plan building every later step reuses.
 */
std::unique_ptr<workloads::Workload>
Prepare(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
        RunResult* out)
{
    auto workload = workloads::WorkloadRegistry::Global().Create(spec.name);
    workload->Setup(Config(spec, seed, traced));
    StepWindow(*workload, true, 1, out);
    StepWindow(*workload, false, 1, out);
    return workload;
}

RequestPool
MakePool(workloads::Workload& workload, const serving::FrozenPlan& plan)
{
    RequestPool pool;
    for (int i = 0; i < kRequestPool; ++i) {
        pool.requests.push_back(workload.SampleServingRequest());
        pool.expected.push_back(plan.ServeOne(pool.requests.back()));
    }
    return pool;
}

/** Seed of serve window @p index, distinct per window and per run seed. */
std::uint64_t
WindowSeed(std::uint64_t seed, int index)
{
    return seed * 1000003ull + static_cast<std::uint64_t>(index);
}

void
TallyWindow(const WindowResult& w, RunResult* out)
{
    out->attempted += w.sent;
    if (w.failed > 0) {
        RecordFailure(out, w.failed, "serving request refused, thrown or wrong");
    }
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * The end-to-end metrics. Measurement runs in rounds, each of a few fresh
 * set-ups and a few short windows of each kind (training steps,
 * inference steps, serving at the nominal rate, serving at capacity),
 * until --seconds have passed. Interleaving spreads every metric over
 * the whole run, so a slow spell of a shared host shifts all of them a
 * little rather than one of them a lot; the windows of a kind visit the
 * cores in turn (cores.h); and many short windows make medians steady.
 *
 * Each round's steps run on that round's fresh instance. Training makes
 * some values subnormal, and subnormal arithmetic is slow, so a model's
 * step time grows the longer it trains (vgg at batch 2 went from 8 to
 * 40 ms within a minute). On fresh instances every round times the same
 * early steps, whatever number of rounds the host's speed allows.
 */
RunResult
RunUntraced(const WorkloadSpec& spec, const RunOptions& options)
{
    RunResult out;
    const int train_steps = options.smoke ? kSmokeSteps : spec.train_steps_per_window;
    const int infer_steps = options.smoke ? kSmokeSteps : spec.infer_steps_per_window;
    const int windows = options.smoke ? 1 : kWindowsPerRound;
    const int setups = options.smoke ? 1 : kSetupsPerRound;
    const int min_rounds = options.smoke ? 1 : kMinRounds;
    const double budget = options.smoke ? 0.0 : options.seconds;

    // Every round serves the first round's plan, whose ServeOne outputs
    // are the reference.
    std::shared_ptr<const serving::FrozenPlan> plan;
    RequestPool pool;

    WindowOptions latency_window;
    latency_window.rate_rps = spec.nominal_rps;
    latency_window.seconds = options.smoke ? kSmokeWindowS : spec.latency_window_s;
    latency_window.max_batch = spec.batch;
    latency_window.slo_ms = spec.slo_ms;
    WindowOptions capacity_window = latency_window;
    // Deep enough that a full batch is always queued when the executor
    // finishes one, so the window times execution, not wake-ups.
    capacity_window.closed_loop_depth = 4 * spec.batch;
    capacity_window.seconds = options.smoke ? kSmokeWindowS : spec.capacity_window_s;

    std::vector<double> setup_s;
    std::vector<double> train_ms;
    std::vector<double> infer_ms;
    std::vector<std::vector<double>> latency_ms;
    int late_windows = 0;
    std::vector<double> capacity;
    const auto start = Clock::now();
    for (int round = 0; round < min_rounds || SecondsSince(start) < budget; ++round) {
        // Set-up runs unpinned: the input pipeline's producer thread it
        // starts inherits this thread's mask. The round keeps the instance
        // of its last set-up.
        std::unique_ptr<workloads::Workload> workload;
        std::shared_ptr<const serving::FrozenPlan> frozen;
        for (int s = 0; s < setups; ++s) {
            frozen.reset();
            workload.reset();
            const auto t0 = Clock::now();
            workload = Prepare(spec, options.seed, false, &out);
            frozen = workload->FreezeServingPlan();
            setup_s.push_back(SecondsSince(t0));
        }
        if (round == 0) {
            plan = std::move(frozen);
            pool = MakePool(*workload, *plan);
        }
        for (const bool train : {true, false}) {
            // One untimed step first: the first window after a switch
            // between training and inference ran 20 to 50% slower than
            // the next ones, without it.
            StepWindow(*workload, train, 1, &out);
            for (int w = 0; w < windows; ++w) {
                PinThisThread({RotationCore(round * windows + w)});
                if (const auto ms = StepWindow(*workload, train,
                                               train ? train_steps : infer_steps, &out)) {
                    (train ? train_ms : infer_ms).push_back(*ms);
                }
            }
        }
        PinThisThread({});

        for (int w = 0; w < windows; ++w) {
            const int index = round * windows + w;
            latency_window.rotation = index;
            latency_window.seed = WindowSeed(options.seed, 2 * index);
            const WindowResult latency = RunGatedWindow(plan, pool, latency_window);
            TallyWindow(latency, &out);
            if (latency.late) {
                ++late_windows;
            } else if (!latency.latency_ms.empty()) {
                latency_ms.push_back(latency.latency_ms);
            }
        }
        for (int w = 0; w < windows; ++w) {
            const int index = round * windows + w;
            capacity_window.rotation = index;
            capacity_window.seed = WindowSeed(options.seed, 2 * index + 1);
            const WindowResult saturated = RunWindow(plan, pool, capacity_window);
            TallyWindow(saturated, &out);
            capacity.push_back(saturated.achieved_rps);
        }
    }
    // Windows the generator ran late in twice are left out; a run that
    // lost half of them or more mostly measured the host's scheduler.
    out.valid = late_windows < static_cast<int>(latency_ms.size());

    out.metrics = {
        OverWindows("setup_s", "s", setup_s),
        OverWindows("train_step_ms_p50", "ms", train_ms),
        OverWindows("infer_step_ms_p50", "ms", infer_ms),
        Pooled("latency_ms_p50", latency_ms, 50.0),
        Pooled("latency_ms_p90", latency_ms, 90.0),
        OverWindows("serve_capacity_rps", "1/s", capacity),
        Single("peak_rss_mb", "MB", PeakRssMb()),
    };
    return out;
}

/**
 * The max-rate ladder: the highest rung whose window meets the p90
 * limit with no failure and a drained backlog, bisected and confirmed
 * (see LadderSearch).
 */
double
MaxRpsAtSlo(const WorkloadSpec& spec, const RunOptions& options,
            const std::shared_ptr<const serving::FrozenPlan>& plan,
            const RequestPool& pool, RunResult* out)
{
    WindowOptions window;
    window.max_batch = spec.batch;
    window.slo_ms = spec.slo_ms;
    window.seconds = options.smoke ? kSmokeWindowS : kProbeWindowS;
    LadderSearch ladder(options.smoke ? 1
                                      : LadderRungs(spec.ladder_lo_rps,
                                                    spec.ladder_hi_rps, kLadderRatio));
    while (const auto rung = ladder.Next()) {
        window.rate_rps = LadderRate(spec.ladder_lo_rps, kLadderRatio, *rung);
        window.seed = WindowSeed(options.seed, 1 + ladder.probes());
        window.rotation = ladder.probes();
        const WindowResult probe = RunGatedWindow(plan, pool, window);
        TallyWindow(probe, out);
        ladder.Record(*rung, probe.MeetsSlo(spec.slo_ms));
    }
    return ladder.rung() >= 0
               ? LadderRate(spec.ladder_lo_rps, kLadderRatio, ladder.rung())
               : 0.0;
}

/** Counter difference between two snapshots. */
double
Delta(const telemetry::MetricsSnapshot& before,
      const telemetry::MetricsSnapshot& after, const std::string& name)
{
    return static_cast<double>(after.CounterValue(name)) -
           static_cast<double>(before.CounterValue(name));
}

/** Histogram (count, sum) difference between two snapshots. */
std::pair<double, double>
HistogramDelta(const telemetry::MetricsSnapshot& before,
               const telemetry::MetricsSnapshot& after, const std::string& name)
{
    const auto a = before.HistogramValue(name);
    const auto b = after.HistogramValue(name);
    return {static_cast<double>(b.count) - static_cast<double>(a.count),
            static_cast<double>(b.sum) - static_cast<double>(a.sum)};
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median wall time of @p reps calls of @p fn, in milliseconds. */
template <typename Fn>
double
MedianMs(int reps, Fn&& fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        ms.push_back(SecondsSince(t0) * 1e3);
    }
    return Percentile(ms, 50.0);
}

/** Per-step anatomy of the traced training window. */
void
AddAnatomy(const std::vector<runtime::StepTrace>& steps, RunResult* out)
{
    std::vector<double> ops;
    std::vector<double> framework_ms;
    std::vector<double> requests;
    std::vector<double> fresh;
    double wall = 0.0;
    double framework = 0.0;
    double peak_bytes = 0.0;
    std::map<graph::OpClass, double> class_s;
    for (const runtime::StepTrace& step : steps) {
        ops.push_back(static_cast<double>(step.records.size()));
        framework_ms.push_back(step.OverheadSeconds() * 1e3);
        requests.push_back(static_cast<double>(step.memory.allocations));
        fresh.push_back(static_cast<double>(step.memory.fresh_allocs));
        peak_bytes = std::max(peak_bytes, static_cast<double>(step.memory.peak_bytes));
        wall += step.wall_seconds;
        framework += step.OverheadSeconds();
        for (const runtime::OpExecRecord& r : step.records) {
            class_s[r.op_class] += r.wall_seconds;
        }
    }
    const double n = static_cast<double>(steps.size());
    const auto per_step_ms = [&](graph::OpClass c) {
        return Ratio(class_s[c] * 1e3, n);
    };
    using graph::OpClass;
    out->metrics.push_back(OverWindows("runtime.ops_per_step", "count", ops));
    out->metrics.push_back(
        OverWindows("runtime.framework_ms_per_step", "ms", framework_ms));
    out->metrics.push_back(
        Single("runtime.framework_frac", "fraction", Ratio(framework, wall)));
    out->metrics.push_back(Single("kernels.matrix_ms_per_step", "ms",
                                  per_step_ms(OpClass::kMatrixOps)));
    out->metrics.push_back(Single("kernels.conv_frac", "fraction",
                                  Ratio(class_s[OpClass::kConvolution], wall)));
    out->metrics.push_back(Single("kernels.elementwise_ms_per_step", "ms",
                                  per_step_ms(OpClass::kElementwise)));
    out->metrics.push_back(Single("kernels.reduction_ms_per_step", "ms",
                                  per_step_ms(OpClass::kReductionExpansion)));
    out->metrics.push_back(Single(
        "kernels.other_ms_per_step", "ms",
        per_step_ms(OpClass::kOptimization) + per_step_ms(OpClass::kDataMovement) +
            per_step_ms(OpClass::kRandomSampling) + per_step_ms(OpClass::kControl)));
    out->metrics.push_back(
        OverWindows("allocator.requests_per_step", "count", requests));
    out->metrics.push_back(OverWindows("allocator.fresh_per_step", "count", fresh));
    out->metrics.push_back(
        Single("allocator.peak_mb", "MB", peak_bytes / (1024.0 * 1024.0)));
}

void
WriteArtifacts(const std::string& dir, const std::string& name,
               const runtime::Tracer& tracer, const SpanLog& spans)
{
    const std::string base = dir + "/" + name;
    analysis::WriteFile(base + ".trace.json", analysis::TraceToChromeJson(tracer));
    analysis::WriteFile(
        base + ".metrics.jsonl",
        telemetry::MetricsToJsonl(telemetry::MetricsRegistry::Global().Snapshot()));
    analysis::WriteFile(base + ".spans.json", spans.ToChromeJson());
}

RunResult
RunTraced(const WorkloadSpec& spec, const RunOptions& options)
{
    RunResult out;
    SpanLog spans;
    const int steps = options.smoke ? kSmokeSteps : spec.traced_steps;

    // An untraced twin for trace.overhead_frac. It is set up first because
    // Setup sets the process-wide telemetry switch, which the traced
    // set-up below must leave on; it takes no step until the traced
    // instance's first step has run, so that step finds the process cold.
    std::unique_ptr<workloads::Workload> twin;
    {
        ScopedSpan span(&spans, "untraced twin setup");
        twin = workloads::WorkloadRegistry::Global().Create(spec.name);
        twin->Setup(Config(spec, options.seed, false));
    }

    auto& registry = telemetry::MetricsRegistry::Global();
    const auto before_setup = registry.Snapshot();
    std::unique_ptr<workloads::Workload> workload;
    double first_ms = 0.0;
    {
        ScopedSpan span(&spans, "setup");
        workload = workloads::WorkloadRegistry::Global().Create(spec.name);
        workload->Setup(Config(spec, options.seed, true));
        first_ms = StepWindow(*workload, true, 1, &out).value_or(0.0);
        StepWindow(*workload, false, 1, &out);
    }
    std::shared_ptr<const serving::FrozenPlan> plan;
    double freeze_ms = 0.0;
    {
        ScopedSpan span(&spans, "freeze");
        const auto t0 = Clock::now();
        plan = workload->FreezeServingPlan();
        freeze_ms = SecondsSince(t0) * 1e3;
    }
    const auto after_setup = registry.Snapshot();
    double rewrite_fires = 0.0;
    for (const auto& [name, value] : after_setup.counters) {
        if (name.rfind("rewrite.fire.", 0) == 0) {
            rewrite_fires += Delta(before_setup, after_setup, name);
        }
    }

    runtime::Session& session = workload->session();
    const serving::InferenceSignature signature = workload->ServingSignature();
    graph::verify::VerifyOptions verify_options;
    verify_options.variables = &session.variables();
    const double verify_ms = MedianMs(kVerifyReps, [&](int) {
        const auto report = graph::verify::Verify(session.graph(), signature.fetches,
                                                  {}, verify_options);
        if (!report.ok()) {
            RecordFailure(&out, 1, "verifier: " + report.ToString());
        }
    });

    const std::size_t first_step = session.tracer().steps().size();
    const auto before_train = registry.Snapshot();
    double traced_ms = 0.0;
    {
        ScopedSpan span(&spans, "traced training window");
        traced_ms = MedianMs(steps, [&](int) { StepWindow(*workload, true, 1, &out); });
    }
    const auto after_train = registry.Snapshot();
    const std::vector<runtime::StepTrace> trace_steps(
        session.tracer().steps().begin() + static_cast<long>(first_step),
        session.tracer().steps().end());
    AddAnatomy(trace_steps, &out);

    const auto roofline = analysis::BuildRooflineReport(
        session.tracer(), static_cast<int>(first_step), runtime::DeviceSpec::Cpu(1));
    double matrix_gflops = 0.0;
    double conv_gflops = 0.0;
    for (const analysis::RooflineRow& row : roofline.by_class) {
        if (row.op_class == graph::OpClass::kMatrixOps) {
            matrix_gflops = row.AchievedGflops();
        } else if (row.op_class == graph::OpClass::kConvolution) {
            conv_gflops = row.AchievedGflops();
        }
    }
    const double stall_us =
        HistogramDelta(before_train, after_train, "pipeline.stall_us").second;
    const auto [batches, produce_us] =
        HistogramDelta(before_train, after_train, "pipeline.produce_us");

    // Untraced and traced steps in alternation, so a slow spell of the
    // host slows both sides alike. Telemetry is on for both: the ratio is
    // the cost of tracing alone.
    double overhead = 0.0;
    {
        ScopedSpan span(&spans, "tracing overhead pairs");
        StepWindow(*twin, true, 1, &out);  // builds the twin's plan
        std::vector<double> untraced_ms;
        std::vector<double> paired_traced_ms;
        for (int i = 0; i < steps; ++i) {
            for (const bool traced : {false, true}) {
                auto& w = traced ? *workload : *twin;
                if (const auto ms = StepWindow(w, true, 1, &out)) {
                    (traced ? paired_traced_ms : untraced_ms).push_back(*ms);
                }
            }
        }
        if (!untraced_ms.empty() && !paired_traced_ms.empty()) {
            overhead = Percentile(paired_traced_ms, 50.0) /
                           Percentile(untraced_ms, 50.0) -
                       1.0;
        }
    }
    twin.reset();

    const RequestPool pool = MakePool(*workload, *plan);
    WindowOptions window;
    window.max_batch = spec.batch;
    window.slo_ms = spec.slo_ms;
    window.rate_rps = spec.nominal_rps;
    window.seconds = options.smoke ? kSmokeWindowS : kTracedServeWindowS;
    window.seed = WindowSeed(options.seed, 0);
    window.spans = &spans;
    const auto before_serve = registry.Snapshot();
    WindowResult served;
    {
        ScopedSpan span(&spans, "serve window");
        window.parent_span = span.id();
        served = RunGatedWindow(plan, pool, window, &session.tracer());
    }
    out.valid = !served.late;
    const auto after_serve = registry.Snapshot();
    TallyWindow(served, &out);
    const auto [formed, rows] =
        HistogramDelta(before_serve, after_serve, "serving.batch_size");
    const double padded = Delta(before_serve, after_serve, "serving.padded_rows");

    // Batches of 1 and of 8 rows in alternation, so both medians see the
    // same spells of the host and their per-row ratio is fair.
    const int reps = options.smoke ? 3 : kServeBatchReps;
    std::vector<double> b1_samples;
    std::vector<double> b8_samples;
    {
        ScopedSpan span(&spans, "ServeBatch x1 and x8");
        std::size_t next = 0;
        for (int rep = 0; rep < reps; ++rep) {
            for (const std::size_t rows_per_batch : {std::size_t{1}, std::size_t{8}}) {
                std::vector<const serving::RequestFeeds*> batch;
                std::vector<std::size_t> index;
                for (std::size_t r = 0; r < rows_per_batch; ++r) {
                    index.push_back(next++ % pool.requests.size());
                    batch.push_back(&pool.requests[index.back()]);
                }
                out.attempted += static_cast<std::int64_t>(rows_per_batch);
                const auto t0 = Clock::now();
                const auto outputs = plan->ServeBatch(batch);
                (rows_per_batch == 1 ? b1_samples : b8_samples)
                    .push_back(SecondsSince(t0) * 1e3);
                if (outputs.size() != rows_per_batch) {
                    RecordFailure(&out, static_cast<std::int64_t>(rows_per_batch),
                                  "ServeBatch returned the wrong number of rows");
                    continue;
                }
                for (std::size_t r = 0; r < outputs.size(); ++r) {
                    if (!SameBits(outputs[r], pool.expected[index[r]])) {
                        RecordFailure(&out, 1, "ServeBatch output differs from ServeOne");
                    }
                }
            }
        }
    }
    const double b1_ms = Percentile(b1_samples, 50.0);
    const double b8_ms = Percentile(b8_samples, 50.0);
    double max_rps = 0.0;
    {
        ScopedSpan span(&spans, "max-rate ladder");
        max_rps = MaxRpsAtSlo(spec, options, plan, pool, &out);
    }

    const auto add = [&](const char* name, const char* unit, double value) {
        out.metrics.push_back(Single(name, unit, value));
    };
    add("runtime.first_run_ms", "ms", first_ms - traced_ms);
    add("kernels.matrix_gflops", "GFLOP/s", matrix_gflops);
    add("kernels.conv_gflops", "GFLOP/s", conv_gflops);
    add("kernels.gemm_pack_hit_frac", "fraction",
        Ratio(Delta(before_train, after_train, "gemm.pack_pool_hits"),
              Delta(before_train, after_train, "gemm.pack_acquires")));
    add("pipeline.stall_ms_per_step", "ms", Ratio(stall_us * 1e-3, steps));
    add("pipeline.produce_ms_per_batch", "ms", Ratio(produce_us * 1e-3, batches));
    add("graph.verify_ms", "ms", verify_ms);
    add("graph.rewrite_fires", "count", rewrite_fires);
    add("serving.freeze_ms", "ms", freeze_ms);
    add("serving.plan_steps", "count", static_cast<double>(plan->num_steps()));
    add("serving.serve_batch_ms_b1", "ms", b1_ms);
    add("serving.serve_batch_ms_b8", "ms", b8_ms);
    add("serving.queue_ms_p50", "ms",
        served.queue_ms.empty() ? 0.0 : Percentile(served.queue_ms, 50.0));
    add("serving.exec_ms_p50", "ms",
        served.exec_ms.empty() ? 0.0 : Percentile(served.exec_ms, 50.0));
    add("serving.batch_size_mean", "rows", Ratio(rows, formed));
    add("serving.padded_rows_frac", "fraction", Ratio(padded, rows + padded));
    add("serving.latency_ms_p99", "ms",
        served.latency_ms.empty() ? 0.0 : Percentile(served.latency_ms, 99.0));
    add("serving.max_rps_at_slo", "1/s", max_rps);
    add("loadgen.late_ms_p99", "ms", served.late_ms_p99);
    add("loadgen.achieved_rps", "1/s", served.achieved_rps);
    add("trace.overhead_frac", "fraction", overhead);

    if (!options.out_dir.empty()) {
        WriteArtifacts(options.out_dir, spec.name, session.tracer(), spans);
    }
    return out;
}

}  // namespace

RunResult
RunWorkload(const WorkloadSpec& spec, const RunOptions& options)
{
    workloads::RegisterAllWorkloads();
    UsableCores();  // Read the mask before anything pins this thread.
    return options.trace ? RunTraced(spec, options) : RunUntraced(spec, options);
}

}  // namespace fathom::bench_suite
