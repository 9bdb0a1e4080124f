#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, const char* name, uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  index_ = log_->spans_.size();
  const int64_t parent =
      log_->open_.empty() ? -1 : static_cast<int64_t>(log_->open_.back());
  log_->spans_.push_back({name, request, parent, log_->trace_->NowUs(), 0.0});
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[index_];
  s.dur_us = log_->trace_->NowUs() - s.start_us;
  log_->open_.pop_back();
}

std::map<std::string, SpanTrace::NameTotals> SpanTrace::Totals() const {
  std::map<std::string, NameTotals> out;
  for (const SpanLog& log : logs_) {
    std::vector<double> child_us(log.spans_.size(), 0.0);
    for (const SpanLog::Span& s : log.spans_)
      if (s.parent >= 0) child_us[s.parent] += s.dur_us;
    for (size_t i = 0; i < log.spans_.size(); ++i) {
      const SpanLog::Span& s = log.spans_[i];
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ms += s.dur_us / 1000.0;
      t.self_ms += (s.dur_us - child_us[i]) / 1000.0;
    }
  }
  return out;
}

bool SpanTrace::WriteChromeJson(const std::string& path) const {
  struct Event {
    double ts;
    uint32_t tid;
    const SpanLog::Span* span;
    const char* parent;
  };
  std::vector<Event> events;
  for (const SpanLog& log : logs_)
    for (const SpanLog::Span& s : log.spans_)
      events.push_back({s.start_us, log.tid_, &s,
                        s.parent >= 0 ? log.spans_[s.parent].name : ""});
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.ts, a.tid) < std::tie(b.ts, b.tid);
  });

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[";
  char buf[512];
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    const char* dot = std::strchr(e.span->name, '.');
    const int cat_len =
        dot == nullptr ? static_cast<int>(std::strlen(e.span->name))
                       : static_cast<int>(dot - e.span->name);
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"request\":%llu,\"parent\":\"%s\"}}",
                  i == 0 ? "" : ",", e.span->name, cat_len, e.span->name,
                  e.tid, e.ts, e.span->dur_us,
                  static_cast<unsigned long long>(e.span->request), e.parent);
    out << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
