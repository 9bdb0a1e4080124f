// Client-side spans: the harness records one span around each public call
// it makes into the program (load, parse, open, Run, each protocol line),
// keeps them in memory and writes them at the end as Chrome trace-event
// JSON (Perfetto / chrome://tracing). Spans inside the program are not
// recorded here; the program's own instruments are read through `metrics`.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class SpanTrace;

/// The spans of one client thread. Only its owning thread records into it;
/// SpanTrace reads all logs after every client has been joined.
class SpanLog {
 public:
  SpanLog(const SpanTrace* trace, uint32_t tid) : trace_(trace), tid_(tid) {}

  /// One span over the enclosing scope; its parent is the innermost span
  /// still open on the same log. A null log records nothing, so untraced
  /// runs pay no clock reads for spans. `name` must be a string literal of
  /// the form "<layer>.<call>"; the layer becomes the event category.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_ = 0;
  };

 private:
  friend class SpanTrace;
  struct Span {
    const char* name;
    uint64_t request;
    int64_t parent;  ///< index into spans_, -1 for a root span
    double start_us;
    double dur_us;
  };

  const SpanTrace* trace_;
  uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Owner of every client's SpanLog and the trace epoch.
class SpanTrace {
 public:
  SpanTrace() : epoch_(Clock::now()) {}

  /// A log for one more client thread (stable address).
  SpanLog* NewLog() {
    logs_.emplace_back(this, static_cast<uint32_t>(logs_.size() + 1));
    return &logs_.back();
  }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Span count, total and self time (span minus the time its child spans
  /// cover) per span name, over every log.
  struct NameTotals {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as a Chrome trace-event JSON array sorted by start
  /// time; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::deque<SpanLog> logs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
