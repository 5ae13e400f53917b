// In-memory spans for the traced run. A span is a named interval with a
// parent; spans of one operation share a request id. Spans are kept in
// memory while the run is timed and written out when it ends. A span's
// self time is its duration minus the part of it its children cover.
#ifndef SQBENCH_TRACE_H_
#define SQBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span vector; -1 for a root
  uint32_t request = 0;
};

class Tracer {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Opens a span under the innermost open span of this request.
  int32_t Begin(std::string name, uint32_t request);
  void End(int32_t id);

  // Records a span whose interval is known after the fact, e.g. a
  // phase timing the program returned. The parent is given explicitly.
  int32_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int32_t id) const { return spans_[id]; }

  // One line per span: id,parent,request,name,start_ns,end_ns.
  sqopt::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint32_t request)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

// Self time of every span, in the order of `spans`: its duration minus
// the measure of the union of its children's intervals, each clipped
// to the parent's interval.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Durations (self == false) or self times (self == true), in
// microseconds, of every span with each name.
std::map<std::string, std::vector<double>> MicrosByName(
    const std::vector<Span>& spans, bool self);

}  // namespace sqbench

#endif  // SQBENCH_TRACE_H_
