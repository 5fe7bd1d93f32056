/**
 * @file
 * Per-operation execution traces.
 *
 * The tracer is the reproduction of the paper's "application-level
 * modeling tools": it attributes wall-clock time and modeled cost to
 * every executed operation, keyed by op type and op class, per step.
 * All analyses (Figs. 1-6) consume these traces.
 *
 * The executor fills one record slot per plan step in place
 * (SlotFor). The slots are kept across steps, so tracing an op takes
 * no lock, no allocation and no fresh memory inside the timed step,
 * and concurrent inter-op lanes run distinct steps, so they write
 * distinct slots. EndStep copies the filled slots into the step's
 * trace, in slot order, after the step's wall time is taken. A slot's
 * index is its op's plan sequence id, so a step's trace is canonical —
 * independent of the scheduling order — and the Figs. 1-6 analyses see
 * the same record stream the sequential executor produces.
 */
#ifndef FATHOM_RUNTIME_TRACER_H
#define FATHOM_RUNTIME_TRACER_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "graph/node.h"
#include "graph/op_class.h"
#include "graph/op_registry.h"

namespace fathom::runtime {

/** One op execution. (Node names resolve via the graph and node id.) */
struct OpExecRecord {
    graph::NodeId node = -1;
    std::string op_type;
    graph::OpClass op_class = graph::OpClass::kControl;
    double wall_seconds = 0.0;
    graph::OpCost cost;
    /** Plan-order index within the step; the canonical record order. */
    std::int64_t seq = 0;

    /**
     * Monotonic start of the op, in seconds since the step began. With
     * wall_seconds this gives the op's true [start, end) interval, so
     * exported timelines show real concurrency instead of a synthesized
     * serial layout. Scheduling-dependent: analyses that must be
     * bit-identical across thread counts consume seq order, never
     * timestamps.
     */
    double start_seconds = 0.0;

    /**
     * Executor lane that ran the op: 0 is the step-driving thread (the
     * sequential executor, or the first drain loop of the parallel
     * one), 1..N-1 the remaining inter-op drain loops. Lanes are
     * stable identifiers for trace visualization ("worker-k"), not OS
     * thread ids; which lane runs which op is scheduling-dependent.
     */
    int worker = 0;
};

/**
 * Allocator activity attributed to one step, from the BufferPool
 * counters (deltas across the step; peak is the absolute live-byte
 * high-water mark observed while the step ran).
 */
struct StepMemStats {
    std::uint64_t peak_bytes = 0;    ///< live-byte high-water mark.
    std::uint64_t allocations = 0;   ///< buffer requests this step.
    std::uint64_t fresh_allocs = 0;  ///< requests served by operator new.
    std::uint64_t pool_hits = 0;     ///< requests served from free lists.
};

/**
 * One span on an auxiliary trace lane: work that happens outside the
 * op executor but belongs on the same timeline — input-pipeline
 * producers materializing batches, the serving batcher forming and
 * running batches. Timestamps are offsets from the tracer's run epoch
 * (see Tracer::NowSeconds), so aux spans and steps share one timebase
 * and exported timelines show the overlap. Scheduling-dependent by
 * nature: analyses that must be bit-identical across thread counts
 * never consume aux spans.
 */
struct AuxSpan {
    int lane = 0;  ///< index into Tracer's registered aux lanes.
    std::string label;
    double start_seconds = 0.0;  ///< offset from the run epoch.
    double dur_seconds = 0.0;
};

/** One Session::Run invocation. */
struct StepTrace {
    std::vector<OpExecRecord> records;
    double wall_seconds = 0.0;  ///< whole-step time, including framework.
    StepMemStats memory;        ///< allocator activity during the step.

    /**
     * Offset of BeginStep from the tracer's run epoch (0 when the step
     * opened the epoch). Lets the exporter place steps at their true
     * wall-clock position relative to aux-lane spans instead of packing
     * them end-to-end.
     */
    double start_seconds = 0.0;

    /** @return summed op wall time (counts concurrent ops multiply). */
    double OpSeconds() const;

    /**
     * @return seconds of the step during which at least one op was
     * executing: the measure of the union of the recorded op intervals
     * [start_seconds, start_seconds + wall_seconds). Under the
     * inter-op executor this is what "time in op kernels" means —
     * OpSeconds() double-counts overlap and can exceed the step wall
     * time.
     */
    double BusySeconds() const;

    /**
     * @return framework time outside op kernels (the paper reports
     * this as typically < 1-2% of total runtime): the step span minus
     * the union of op intervals (BusySeconds), clamped at zero.
     *
     * Semantics: with the sequential executor the union is the sum, so
     * this matches the historical wall - sum(op) definition. With the
     * inter-op executor, summed op time double-counts concurrent ops
     * (and can exceed the step wall time, which used to drive this
     * negative); the interval union counts each wall-clock instant at
     * most once, so overhead is "time when no op was running". The
     * clamp absorbs timer granularity at the step boundaries.
     */
    double OverheadSeconds() const;
};

/**
 * Accumulates step traces across a run.
 *
 * SlotFor() may be called from any thread between BeginStep and
 * EndStep, one thread per slot; BeginStep/EndStep/steps()/Clear()
 * belong to the step-driving thread (they are not synchronized against
 * an in-flight step).
 */
class Tracer {
  public:
    Tracer() = default;
    Tracer(const Tracer& other);
    Tracer& operator=(const Tracer& other);
    Tracer(Tracer&& other) noexcept;
    Tracer& operator=(Tracer&& other) noexcept;

    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Begins a new step with one record slot per plan step (see
     * SlotFor); records go to this step until EndStep. */
    void BeginStep(std::size_t plan_steps);

    /**
     * @return the record slot of plan step @p seq in the open step, or
     * nullptr when tracing is off, no step is open or @p seq is not
     * below the BeginStep size. Fill it in place; a slot whose node is
     * set joins the step at EndStep with seq set to @p seq. Distinct
     * seqs are distinct slots, so lanes running different steps need no
     * lock.
     */
    OpExecRecord*
    SlotFor(std::size_t seq)
    {
        return enabled_ && in_step_ && seq < open_slots_ ? &slots_[seq]
                                                         : nullptr;
    }

    /** Ends the step, appending its filled slots in plan order. */
    void EndStep(double step_wall_seconds, const StepMemStats& memory = {});

    // ---- auxiliary lanes --------------------------------------------------
    // Named timeline lanes for work outside the op executor (pipeline
    // producers, the serving batcher). Lanes render labeled in Chrome
    // traces alongside the executor workers. All three calls are
    // thread-safe; RegisterAuxLane dedups by name so reconstructing a
    // pipeline reuses its lane.

    /** @return the lane id for @p name, registering it if new. */
    int RegisterAuxLane(const std::string& name);

    /** Appends a span to @p lane. No-op when tracing is disabled. */
    void RecordAux(int lane, std::string label, double start_seconds,
                   double dur_seconds);

    /**
     * @return seconds since this tracer's run epoch. The first call
     * (from any thread) establishes the epoch; BeginStep stamps each
     * step's start_seconds with it, so aux spans and steps share one
     * timebase.
     */
    double NowSeconds();

    const std::vector<std::string>& aux_lanes() const { return aux_lanes_; }
    const std::vector<AuxSpan>& aux_spans() const { return aux_spans_; }

    const std::vector<StepTrace>& steps() const { return steps_; }

    /** Drops steps and aux spans and re-opens the run epoch. */
    void Clear();

  private:
    /** NowSeconds with mu_ already held. */
    double NowSecondsLocked();

    bool enabled_ = true;
    bool in_step_ = false;
    std::vector<StepTrace> steps_;
    /** Per-plan-step records of the open step; node -1 marks unfilled.
        Reused across steps, so filling one reuses its op_type storage. */
    std::vector<OpExecRecord> slots_;
    std::size_t open_slots_ = 0;  ///< slots of the open step.
    std::vector<std::string> aux_lanes_;
    std::vector<AuxSpan> aux_spans_;
    bool has_epoch_ = false;
    std::chrono::steady_clock::time_point epoch_{};
    std::mutex mu_;  ///< guards aux state and the epoch.
};

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_TRACER_H
