#include "oplist.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "common/rng.h"
#include "query/query_printer.h"
#include "workload/mutation_script.h"
#include "workload/path_enum.h"
#include "workload/query_gen.h"
#include "workload/query_pool.h"

namespace sqbench {

using sqopt::Result;
using sqopt::Status;

namespace {

// List lengths per second of run length, sized on a 4-core host so the
// measured phase lasts about `seconds`. They are part of the benchmark
// definition: changing one changes every number it reports.
struct Rates {
  int read_conns;
  size_t reads_per_conn_per_s;  // churn: the reader's list wraps
  int64_t batches_per_s;
  size_t traced_reads;
  int64_t traced_batches;
};

Rates RatesFor(Workload workload) {
  switch (workload) {
    case Workload::kAdhoc:
      return {2, 2000, 100, 1500, 200};
    case Workload::kScanHot:
      return {2, 30, 3, 150, 12};
    case Workload::kChurn:
      return {1, 60, 9, 120, 40};
  }
  return {};
}

// Streams of the run seed; each list draws from its own.
enum Stream : uint64_t {
  kReadStream = 1,  // + connection index
  kWarmupStream = 100,
  kMutationStream = 200,
};

constexpr size_t kAdhocWarmupTexts = 300;  // > the 256-entry plan cache
constexpr int64_t kWarmupBatches = 4;      // one MutationScript cycle

// Derives an independent stream seed from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Ad-hoc query texts: QueryGenerator over every simple path of 1..5
// classes, printed with PrintQuery.
Result<std::vector<std::string>> AdhocTexts(const sqopt::Schema& schema,
                                            uint64_t seed, size_t count) {
  const std::vector<sqopt::SchemaPath> paths =
      sqopt::EnumerateSimplePaths(schema, 1, 5);
  sqopt::QueryGenerator generator(&schema, seed);
  SQOPT_ASSIGN_OR_RETURN(std::vector<sqopt::Query> queries,
                         generator.Sample(paths, count));
  std::vector<std::string> texts;
  texts.reserve(queries.size());
  for (const sqopt::Query& q : queries) {
    texts.push_back(sqopt::PrintQuery(schema, q));
  }
  return texts;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "adhoc") return Workload::kAdhoc;
  if (name == "scan_hot") return Workload::kScanHot;
  if (name == "churn") return Workload::kChurn;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAdhoc:
      return "adhoc";
    case Workload::kScanHot:
      return "scan_hot";
    case Workload::kChurn:
      return "churn";
  }
  return "?";
}

sqopt::DbSpec WorkloadDb(Workload workload) {
  if (workload == Workload::kAdhoc) return sqopt::PaperDatabases()[0];
  return sqopt::DbSpec{"scale40k", 40000, 60000};
}

std::vector<std::string> ZipfTemplateList(uint64_t seed, size_t count) {
  const std::vector<std::string> pool = sqopt::ExperimentQueryPool();
  // Zipf rank of each pool template (0 = most frequent). Ranked in pool
  // order, the two fastest templates took 58% of the draws and the
  // median sat 9 points below the edge of their latency cluster, so a
  // few slow samples moved it into the sparse gap above: the run p50
  // read anywhere from 7 to 10 ms with every template's own median
  // within 15%. With these ranks the median falls mid-cluster, inside
  // the 38% share of the two-class join (pool[2]), between templates of
  // similar latency.
  constexpr size_t kRank[] = {4, 5, 0, 1, 2, 3};
  if (pool.size() != std::size(kRank)) return {};
  constexpr double kTheta = 0.9;
  std::vector<double> weight(pool.size());
  double total = 0.0;
  for (size_t k = 0; k < pool.size(); ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(kRank[k] + 1), kTheta);
    total += weight[k];
  }
  // Largest-remainder apportionment of `count` draws.
  std::vector<size_t> quota(pool.size());
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t k = 0; k < pool.size(); ++k) {
    const double exact = static_cast<double>(count) * weight[k] / total;
    quota[k] = static_cast<size_t>(exact);
    assigned += quota[k];
    remainder.push_back({exact - static_cast<double>(quota[k]), k});
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t i = 0; assigned < count; ++i, ++assigned) {
    ++quota[remainder[i % remainder.size()].second];
  }
  std::vector<std::string> list;
  list.reserve(count);
  for (size_t k = 0; k < pool.size(); ++k) {
    list.insert(list.end(), quota[k], pool[k]);
  }
  sqopt::Rng rng(seed);
  rng.Shuffle(&list);
  return list;
}

Result<std::vector<sqopt::MutationBatch>> MutationBatches(
    const sqopt::Schema& schema, std::vector<int64_t> base_rows,
    uint64_t seed, int64_t count) {
  sqopt::MutationScript script(&schema, std::move(base_rows), seed);
  std::vector<sqopt::MutationBatch> batches;
  batches.reserve(static_cast<size_t>(std::max<int64_t>(count, 0)));
  for (int64_t i = 0; i < count; ++i) {
    SQOPT_ASSIGN_OR_RETURN(sqopt::MutationBatch batch, script.Next());
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<int64_t> FixtureBaseRows(const sqopt::Schema& schema,
                                     const sqopt::DbSpec& spec) {
  return std::vector<int64_t>(schema.num_classes(), spec.class_cardinality);
}

Result<OpLists> MakeOpLists(Workload workload, const sqopt::Schema& schema,
                            uint64_t seed, int seconds) {
  if (seconds < 1) return Status::InvalidArgument("seconds must be >= 1");
  const Rates rates = RatesFor(workload);
  const size_t per_conn =
      rates.reads_per_conn_per_s * static_cast<size_t>(seconds);
  OpLists lists;
  lists.mutation_seed = StreamSeed(seed, kMutationStream);
  lists.warmup_batches = kWarmupBatches;
  lists.measured_batches = rates.batches_per_s * seconds;
  lists.concurrent_writer = workload == Workload::kChurn;
  lists.traced_reads = std::min(rates.traced_reads, per_conn);
  lists.traced_batches =
      std::min(rates.traced_batches, lists.measured_batches);

  if (workload == Workload::kAdhoc) {
    std::set<std::string> measured;
    for (int c = 0; c < rates.read_conns; ++c) {
      SQOPT_ASSIGN_OR_RETURN(
          std::vector<std::string> texts,
          AdhocTexts(schema, StreamSeed(seed, kReadStream + c), per_conn));
      measured.insert(texts.begin(), texts.end());
      lists.reads.push_back(std::move(texts));
    }
    // Warm-up texts never appear in the measured lists, so a measured
    // query's first sight is always a miss.
    SQOPT_ASSIGN_OR_RETURN(
        std::vector<std::string> candidates,
        AdhocTexts(schema, StreamSeed(seed, kWarmupStream),
                   4 * kAdhocWarmupTexts));
    std::set<std::string> taken;
    for (std::string& text : candidates) {
      if (lists.warmup.size() == kAdhocWarmupTexts) break;
      if (measured.count(text) != 0 || !taken.insert(text).second) continue;
      lists.warmup.push_back(std::move(text));
    }
    if (lists.warmup.size() < kAdhocWarmupTexts) {
      return Status::Internal("adhoc warm-up list too short");
    }
    return lists;
  }

  for (int c = 0; c < rates.read_conns; ++c) {
    lists.reads.push_back(
        ZipfTemplateList(StreamSeed(seed, kReadStream + c), per_conn));
    if (lists.reads.back().size() != per_conn) {
      return Status::Internal("the Zipf ranks do not match the query pool");
    }
  }
  lists.warmup = sqopt::ExperimentQueryPool();
  return lists;
}

}  // namespace sqbench
