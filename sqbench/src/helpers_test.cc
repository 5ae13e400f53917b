// Tests of the benchmark's own helpers: op-list determinism, the
// percentile and sample-count rule, the row-multiset hash, and span
// self time. Run: sqbench_test (exit 0 when every check passes).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "oplist.h"
#include "server/wire.h"
#include "stats.h"
#include "trace.h"
#include "workload/dbgen.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// A canonical byte image of op lists plus their batches.
std::string Serialize(const sqbench::OpLists& lists,
                      const std::vector<sqopt::MutationBatch>& batches) {
  std::string out;
  auto put_list = [&out](const std::vector<std::string>& list) {
    out += std::to_string(list.size()) + "\n";
    for (const std::string& s : list) out += s + "\n";
  };
  for (const auto& list : lists.reads) put_list(list);
  put_list(lists.warmup);
  out += std::to_string(lists.mutation_seed) + " " +
         std::to_string(lists.warmup_batches) + " " +
         std::to_string(lists.measured_batches) + " " +
         std::to_string(lists.traced_reads) + " " +
         std::to_string(lists.traced_batches) + "\n";
  for (const sqopt::MutationBatch& batch : batches) {
    out += sqopt::server::EncodeMutationOps(batch);
  }
  return out;
}

// The byte image of one workload's op lists and its first batches.
std::string Image(sqbench::Workload workload, uint64_t seed) {
  auto schema = sqopt::BuildExperimentSchema();
  if (!schema.ok()) return "schema error";
  auto lists = sqbench::MakeOpLists(workload, *schema, seed, 2);
  if (!lists.ok()) return "list error";
  auto batches = sqbench::MutationBatches(
      *schema,
      sqbench::FixtureBaseRows(*schema, sqbench::WorkloadDb(workload)),
      lists->mutation_seed, lists->warmup_batches + lists->measured_batches);
  if (!batches.ok()) return "batch error";
  return Serialize(*lists, *batches);
}

void TestOpListsAreSeedDeterministic() {
  for (auto w : {sqbench::Workload::kAdhoc, sqbench::Workload::kScanHot,
                 sqbench::Workload::kChurn}) {
    const std::string a = Image(w, 7);
    EXPECT(a.size() > 1000);
    EXPECT(a == Image(w, 7));
    EXPECT(a != Image(w, 8));
  }
}

void TestAdhocWarmupIsDisjoint() {
  auto schema = sqopt::BuildExperimentSchema();
  EXPECT(schema.ok());
  auto lists =
      sqbench::MakeOpLists(sqbench::Workload::kAdhoc, *schema, 3, 1);
  EXPECT(lists.ok());
  EXPECT(lists->warmup.size() > 256);
  for (const std::string& w : lists->warmup) {
    for (const auto& list : lists->reads) {
      for (const std::string& r : list) EXPECT(w != r);
    }
  }
}

void TestZipfListHasFixedMix() {
  const auto a = sqbench::ZipfTemplateList(1, 1000);
  const auto b = sqbench::ZipfTemplateList(2, 1000);
  EXPECT(a.size() == 1000);
  EXPECT(a != b);
  auto count = [](const std::vector<std::string>& list,
                  const std::string& text) {
    size_t n = 0;
    for (const std::string& s : list) n += s == text ? 1 : 0;
    return n;
  };
  // Same multiset, different order; template 0 is the most frequent.
  for (const std::string& t : a) EXPECT(count(a, t) == count(b, t));
  EXPECT(count(a, a[0]) > 0);
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100..1
  EXPECT(Near(sqbench::Percentile(v, 50), 50));
  EXPECT(Near(sqbench::Percentile(v, 99), 99));
  EXPECT(Near(sqbench::Percentile(v, 100), 100));
  EXPECT(Near(sqbench::Percentile(v, 0), 1));
  EXPECT(Near(sqbench::Median({3, 1, 2}), 2));
  EXPECT(Near(sqbench::Median({}), 0));
}

void TestTailRuleKeepsTenSamplesBeyond() {
  EXPECT(Near(sqbench::TailPercentileFor(10000), 99.9));
  EXPECT(Near(sqbench::TailPercentileFor(9999), 99.0));
  EXPECT(Near(sqbench::TailPercentileFor(1000), 99.0));
  EXPECT(Near(sqbench::TailPercentileFor(999), 95.0));
  EXPECT(Near(sqbench::TailPercentileFor(200), 95.0));
  EXPECT(Near(sqbench::TailPercentileFor(199), 90.0));
  EXPECT(Near(sqbench::TailPercentileFor(100), 90.0));
  EXPECT(Near(sqbench::TailPercentileFor(40), 75.0));
  EXPECT(Near(sqbench::TailPercentileFor(20), 50.0));
  EXPECT(Near(sqbench::TailPercentileFor(19), 0.0));
  for (size_t n : {20u, 57u, 150u, 999u, 1000u, 12345u}) {
    const double p = sqbench::TailPercentileFor(n);
    EXPECT(n >= sqbench::NearestRank(p, n) + 10);
  }
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const sqbench::LatencySummary s = sqbench::Summarize(v);
  EXPECT(s.samples == 1000);
  EXPECT(Near(s.tail_pct, 99.0));
  EXPECT(Near(s.tail, 990));
  EXPECT(Near(s.p50, 500));
}

void TestRowMultisetHash() {
  using sqopt::Value;
  const std::vector<std::vector<Value>> a = {
      {Value::Int(1), Value::String("x")}, {Value::Int(2), Value::String("y")}};
  const std::vector<std::vector<Value>> b = {a[1], a[0]};
  const std::vector<std::vector<Value>> twice = {a[0], a[0], a[1]};
  EXPECT(sqbench::RowMultisetHash(a) == sqbench::RowMultisetHash(b));
  EXPECT(sqbench::RowMultisetHash(a) != sqbench::RowMultisetHash(twice));
  EXPECT(sqbench::RowMultisetHash({}) != sqbench::RowMultisetHash(a));
}

void TestSelfTime() {
  // root [0,100): children a [10,40) and b [30,60) overlap, c [90,120)
  // sticks out past the root's end; a has a child d [15,25).
  std::vector<sqbench::Span> spans = {
      {"root", 0, 100, -1, 1}, {"a", 10, 40, 0, 1}, {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},    {"d", 15, 25, 1, 1},
  };
  const std::vector<int64_t> self = sqbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - (50 + 10));  // union [10,60) + [90,100)
  EXPECT(self[1] == 30 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);

  // Recorded through the Tracer, nesting follows Begin/End order.
  sqbench::Tracer tracer;
  const int32_t outer = tracer.Begin("outer", 7);
  const int32_t inner = tracer.Begin("inner", 7);
  tracer.End(inner);
  const int64_t t = tracer.span(outer).start_ns;
  tracer.Add("synthetic", t, t, outer);
  tracer.End(outer);
  EXPECT(tracer.span(inner).parent == outer);
  EXPECT(tracer.span(2).parent == outer);
  EXPECT(tracer.span(2).request == 7);
  const auto by_name = sqbench::MicrosByName(tracer.spans(), true);
  EXPECT(by_name.at("outer").size() == 1);
  EXPECT(by_name.at("outer")[0] >= 0);
}

}  // namespace

int main() {
  TestOpListsAreSeedDeterministic();
  TestAdhocWarmupIsDisjoint();
  TestZipfListHasFixedMix();
  TestPercentiles();
  TestTailRuleKeepsTenSamplesBeyond();
  TestRowMultisetHash();
  TestSelfTime();
  if (failures == 0) std::printf("sqbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
