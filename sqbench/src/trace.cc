#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sqbench {

int32_t Tracer::Begin(std::string name, uint32_t request) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  // Spans close innermost first (ScopedSpan nesting).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                    int32_t parent) {
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.request = parent >= 0 ? spans_[parent].request : 0;
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

sqopt::Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return sqopt::Status::Internal("cannot write " + path);
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%u,%s,%lld,%lld\n", i, s.parent, s.request,
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? sqopt::Status::OK()
            : sqopt::Status::Internal("cannot write " + path);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> MicrosByName(
    const std::vector<Span>& spans, bool self) {
  const std::vector<int64_t> self_ns =
      self ? SelfTimes(spans) : std::vector<int64_t>();
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t ns =
        self ? self_ns[i] : spans[i].end_ns - spans[i].start_ns;
    out[spans[i].name].push_back(static_cast<double>(ns) / 1000.0);
  }
  return out;
}

}  // namespace sqbench
