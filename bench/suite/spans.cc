#include "spans.h"

#include <sstream>
#include <utility>

#include "report.h"

namespace fathom::bench_suite {

double
SpanLog::Seconds(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - epoch_).count();
}

std::int64_t
SpanLog::Open(std::string name)
{
    const double now = Seconds(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), now, -1.0, -1, -1});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
SpanLog::Close(std::int64_t id)
{
    const double now = Seconds(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end_s = now;
}

std::int64_t
SpanLog::Add(std::string name, Clock::time_point start, Clock::time_point end,
             std::int64_t parent, std::int64_t request)
{
    const double s = Seconds(start);
    const double e = Seconds(end);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), s, e, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
SpanLog::NextRequest()
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_request_++;
}

std::string
SpanLog::ToChromeJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os.precision(15);
    os << "[\n";
    bool first = true;
    const auto event = [&](const Span& s, std::int64_t id, const char* ph,
                           double ts_s) {
        os << (first ? "" : ",\n") << "{\"name\":" << Quote(s.name)
           << ",\"ph\":\"" << ph << "\",\"ts\":" << ts_s * 1e6
           << ",\"pid\":1,\"tid\":1";
        first = false;
        if (s.request >= 0) {
            // Async events: the spans of one request share a track.
            os << ",\"cat\":\"request\",\"id\":" << s.request;
        }
        os << ",\"args\":{\"span\":" << id << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}";
        if (ph[0] == 'X') {
            os << ",\"dur\":" << (s.end_s - s.start_s) * 1e6;
        }
        os << "}";
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double end = s.end_s < 0.0 ? s.start_s : s.end_s;
        const auto id = static_cast<std::int64_t>(i);
        if (s.request >= 0) {
            event(s, id, "b", s.start_s);
            event(s, id, "e", end);
        } else {
            Span closed = s;
            closed.end_s = end;
            event(closed, id, "X", s.start_s);
        }
    }
    os << "\n]\n";
    return os.str();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name) : log_(log)
{
    if (log_ != nullptr) {
        id_ = log_->Open(std::move(name));
    }
}

ScopedSpan::~ScopedSpan()
{
    if (log_ != nullptr) {
        log_->Close(id_);
    }
}

}  // namespace fathom::bench_suite
