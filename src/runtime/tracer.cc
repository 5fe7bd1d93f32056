#include "runtime/tracer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fathom::runtime {

double
StepTrace::OpSeconds() const
{
    double total = 0.0;
    for (const auto& r : records) {
        total += r.wall_seconds;
    }
    return total;
}

double
StepTrace::BusySeconds() const
{
    if (records.empty()) {
        return 0.0;
    }
    // Sweep the op intervals in start order, merging overlaps so every
    // wall-clock instant counts at most once regardless of how many
    // ops the inter-op executor had in flight.
    std::vector<std::pair<double, double>> intervals;
    intervals.reserve(records.size());
    for (const auto& r : records) {
        intervals.emplace_back(r.start_seconds,
                               r.start_seconds + r.wall_seconds);
    }
    std::sort(intervals.begin(), intervals.end());
    double busy = 0.0;
    double begin = intervals.front().first;
    double end = intervals.front().second;
    for (std::size_t i = 1; i < intervals.size(); ++i) {
        if (intervals[i].first > end) {
            busy += end - begin;
            begin = intervals[i].first;
            end = intervals[i].second;
        } else if (intervals[i].second > end) {
            end = intervals[i].second;
        }
    }
    busy += end - begin;
    return busy;
}

double
StepTrace::OverheadSeconds() const
{
    return std::max(0.0, wall_seconds - BusySeconds());
}

Tracer::Tracer(const Tracer& other)
    : enabled_(other.enabled_), in_step_(other.in_step_),
      steps_(other.steps_), slots_(other.slots_),
      open_slots_(other.open_slots_), aux_lanes_(other.aux_lanes_),
      aux_spans_(other.aux_spans_), has_epoch_(other.has_epoch_),
      epoch_(other.epoch_)
{
}

Tracer&
Tracer::operator=(const Tracer& other)
{
    if (this != &other) {
        enabled_ = other.enabled_;
        in_step_ = other.in_step_;
        steps_ = other.steps_;
        slots_ = other.slots_;
        open_slots_ = other.open_slots_;
        aux_lanes_ = other.aux_lanes_;
        aux_spans_ = other.aux_spans_;
        has_epoch_ = other.has_epoch_;
        epoch_ = other.epoch_;
    }
    return *this;
}

Tracer::Tracer(Tracer&& other) noexcept
    : enabled_(other.enabled_), in_step_(other.in_step_),
      steps_(std::move(other.steps_)), slots_(std::move(other.slots_)),
      open_slots_(other.open_slots_), aux_lanes_(std::move(other.aux_lanes_)),
      aux_spans_(std::move(other.aux_spans_)),
      has_epoch_(other.has_epoch_), epoch_(other.epoch_)
{
}

Tracer&
Tracer::operator=(Tracer&& other) noexcept
{
    if (this != &other) {
        enabled_ = other.enabled_;
        in_step_ = other.in_step_;
        steps_ = std::move(other.steps_);
        slots_ = std::move(other.slots_);
        open_slots_ = other.open_slots_;
        aux_lanes_ = std::move(other.aux_lanes_);
        aux_spans_ = std::move(other.aux_spans_);
        has_epoch_ = other.has_epoch_;
        epoch_ = other.epoch_;
    }
    return *this;
}

void
Tracer::BeginStep(std::size_t plan_steps)
{
    if (!enabled_) {
        return;
    }
    if (slots_.size() < plan_steps) {
        slots_.resize(plan_steps);
    }
    open_slots_ = plan_steps;
    steps_.emplace_back();
    steps_.back().start_seconds = NowSeconds();
    in_step_ = true;
}

void
Tracer::EndStep(double step_wall_seconds, const StepMemStats& memory)
{
    if (!enabled_) {
        return;
    }
    if (!in_step_) {
        throw std::logic_error("Tracer::EndStep without BeginStep");
    }
    StepTrace& step = steps_.back();
    step.memory = memory;
    step.records.reserve(open_slots_);
    for (std::size_t i = 0; i < open_slots_; ++i) {
        if (slots_[i].node >= 0) {
            step.records.push_back(slots_[i]);
            step.records.back().seq = static_cast<std::int64_t>(i);
            slots_[i].node = -1;
        }
    }
    open_slots_ = 0;
    step.wall_seconds = step_wall_seconds;
    in_step_ = false;
}

int
Tracer::RegisterAuxLane(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < aux_lanes_.size(); ++i) {
        if (aux_lanes_[i] == name) {
            return static_cast<int>(i);
        }
    }
    aux_lanes_.push_back(name);
    return static_cast<int>(aux_lanes_.size() - 1);
}

void
Tracer::RecordAux(int lane, std::string label, double start_seconds,
                  double dur_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_ || lane < 0 ||
        static_cast<std::size_t>(lane) >= aux_lanes_.size()) {
        return;
    }
    AuxSpan span;
    span.lane = lane;
    span.label = std::move(label);
    span.start_seconds = start_seconds;
    span.dur_seconds = dur_seconds;
    aux_spans_.push_back(std::move(span));
}

double
Tracer::NowSeconds()
{
    std::lock_guard<std::mutex> lock(mu_);
    return NowSecondsLocked();
}

double
Tracer::NowSecondsLocked()
{
    const auto now = std::chrono::steady_clock::now();
    if (!has_epoch_) {
        epoch_ = now;
        has_epoch_ = true;
    }
    return std::chrono::duration<double>(now - epoch_).count();
}

void
Tracer::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    steps_.clear();
    aux_spans_.clear();
    has_epoch_ = false;
}

}  // namespace fathom::runtime
