// sqbench: the repository benchmark. One run sets up an in-process
// sqopt server with the shipped defaults, drives it over loopback from
// fixed, seed-generated op lists in a closed loop, checks every answer,
// and prints one JSON line of metrics.
//
//   sqbench --workload adhoc|scan_hot|churn --seed N --seconds S
//           --trace 0|1 --work-dir DIR [--spans-out FILE]
//           [--corrupt-expectation]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// untraced phase, then sets up afresh and replays the op list on one
// connection with spans around each layer, and prints the per-layer
// metrics. --corrupt-expectation falsifies one expected answer, to show
// that the output check fails the run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "workload/dbgen.h"
#include "workload/query_pool.h"

#ifndef SQBENCH_BUILD_TYPE
#define SQBENCH_BUILD_TYPE "unknown"
#endif

namespace sqbench {
namespace {

namespace fs = std::filesystem;
using sqopt::Result;
using sqopt::Status;

struct Args {
  Workload workload = Workload::kAdhoc;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expectation") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 600) {
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         !args->work_dir.empty();
}

// One printed metric.
struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Everything the output checks found.
struct Verdict {
  bool correct = true;
  std::vector<std::string> problems;

  void Fail(std::string problem) {
    correct = false;
    if (problems.size() < 8) problems.push_back(std::move(problem));
  }
};

// Expected row-multiset hash per query text. adhoc: from a separate
// in-process DB1 engine with the plan cache off, so every answer is
// planned for the text as sent. scan_hot and churn: from the served
// engine itself, in-process, before any batch commits.
class Expectations {
 public:
  Status AddFromOracle(const std::set<std::string>& texts) {
    sqopt::EngineOptions options;
    options.serve.cache_capacity = 0;
    SQOPT_ASSIGN_OR_RETURN(
        sqopt::Engine oracle,
        sqopt::Engine::Open(sqopt::SchemaSource::Experiment(),
                            sqopt::ConstraintSource::Experiment(), options));
    SQOPT_RETURN_IF_ERROR(oracle.Load(sqopt::DataSource::Generated(
        WorkloadDb(Workload::kAdhoc), kDataSeed)));
    const std::vector<std::string> all(texts.begin(), texts.end());
    constexpr size_t kChunk = 2048;
    for (size_t at = 0; at < all.size(); at += kChunk) {
      const std::vector<std::string> chunk(
          all.begin() + at, all.begin() + std::min(all.size(), at + kChunk));
      SQOPT_ASSIGN_OR_RETURN(sqopt::BatchOutcome batch,
                             oracle.ExecuteBatch(chunk));
      for (size_t i = 0; i < chunk.size(); ++i) {
        SQOPT_RETURN_IF_ERROR(batch.results[i].status());
        hash_[chunk[i]] = RowMultisetHash(batch.results[i]->rows.rows);
      }
    }
    return Status::OK();
  }

  Status AddFromEngine(const sqopt::Engine& engine,
                       const std::vector<std::string>& texts) {
    for (const std::string& text : texts) {
      SQOPT_ASSIGN_OR_RETURN(sqopt::QueryOutcome out, engine.Execute(text));
      hash_[text] = RowMultisetHash(out.rows.rows);
    }
    return Status::OK();
  }

  // Falsifies one expectation, for the self-check of the check.
  void Corrupt() {
    if (!hash_.empty()) hash_.begin()->second ^= 1;
  }

  // Compares hashes[i] against the expectation for list[i].
  void Check(const std::vector<std::string>& list,
             const std::vector<uint64_t>& hashes, size_t count,
             const char* what, Verdict* verdict) const {
    for (size_t i = 0; i < count && i < hashes.size(); ++i) {
      auto it = hash_.find(list[i]);
      if (it == hash_.end() || it->second != hashes[i]) {
        verdict->Fail(std::string(what) + ": wrong rows for " + list[i]);
      }
    }
  }

 private:
  std::map<std::string, uint64_t> hash_;
};

// Median set-up phases over the repetitions.
struct SetupTimes {
  std::vector<double> setup_s, open_ms, load_ms, open_dir_ms,
      server_start_ms;
  void Add(const Serving& s) {
    setup_s.push_back(s.setup_s);
    open_ms.push_back(s.open_ms);
    load_ms.push_back(s.load_ms);
    open_dir_ms.push_back(s.open_dir_ms);
    server_start_ms.push_back(s.server_start_ms);
  }
};

// Set-ups per run; setup_s is their median.
int SetupRepetitions(Workload workload) {
  return workload == Workload::kAdhoc ? 25 : 9;
}

// The reopen check of churn: a fresh Engine::Open(dir) must recover the
// live engine's version and answers.
void CheckReopen(const sqopt::Engine& live, const std::string& dir,
                 bool corrupt, Verdict* verdict) {
  Result<sqopt::Engine> reopened = sqopt::Engine::Open(dir);
  if (!reopened.ok()) {
    verdict->Fail("reopen: " + reopened.status().ToString());
    return;
  }
  const uint64_t expected = live.data_version() + (corrupt ? 1 : 0);
  if (reopened->data_version() != expected) {
    verdict->Fail("reopen: data_version " +
                  std::to_string(reopened->data_version()) + " != live " +
                  std::to_string(expected));
  }
  for (const std::string& text : sqopt::ExperimentQueryPool()) {
    Result<sqopt::QueryOutcome> a = live.Execute(text);
    Result<sqopt::QueryOutcome> b = reopened->Execute(text);
    if (!a.ok() || !b.ok() ||
        RowMultisetHash(a->rows.rows) != RowMultisetHash(b->rows.rows)) {
      verdict->Fail("reopen: answers differ for " + text);
    }
  }
}

struct RunOutput {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Verdict verdict;
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  Result<RunOutput> Run() {
    RunOutput out;
    calib_start_ = CalibrateMs();
    SQOPT_ASSIGN_OR_RETURN(sqopt::Schema schema,
                           sqopt::BuildExperimentSchema());
    SQOPT_ASSIGN_OR_RETURN(
        lists_, MakeOpLists(args_.workload, schema, args_.seed,
                            args_.seconds));
    const sqopt::DbSpec db = WorkloadDb(args_.workload);
    SQOPT_ASSIGN_OR_RETURN(
        std::vector<sqopt::MutationBatch> all,
        MutationBatches(schema, FixtureBaseRows(schema, db),
                        lists_.mutation_seed,
                        lists_.warmup_batches + lists_.measured_batches));
    warm_batches_.assign(std::make_move_iterator(all.begin()),
                         std::make_move_iterator(all.begin() +
                                                 lists_.warmup_batches));
    batches_.assign(
        std::make_move_iterator(all.begin() + lists_.warmup_batches),
        std::make_move_iterator(all.end()));

    fs::create_directories(args_.work_dir);
    fixture_dir_ = (fs::path(args_.work_dir) / "fixture").string();
    const std::string traced_dir =
        (fs::path(args_.work_dir) / "fixture_traced").string();
    if (churn()) {
      SQOPT_RETURN_IF_ERROR(
          MakeFixture(args_.workload, fixture_dir_, &fixture_open_ms_,
                      &fixture_load_ms_));
      if (args_.trace) fs::copy(fixture_dir_, traced_dir);
    }

    // Set up several times; the last set-up serves the run.
    SetupTimes setup;
    Serving serving;
    for (int r = 0; r < SetupRepetitions(args_.workload); ++r) {
      serving.Stop();
      SQOPT_ASSIGN_OR_RETURN(serving, SetUp(args_.workload, fixture_dir_));
      setup.Add(serving);
    }
    const double rss_after_setup = RssMb();
    for (const sqopt::ObjectClass& oc : serving.engine->schema().classes()) {
      if (serving.engine->store()->NumObjects(oc.id) != db.class_cardinality) {
        return Status::Internal("fixture row counts differ from the spec");
      }
    }

    // The untimed expectations of scan_hot/churn warm the served
    // engine's plan cache as well.
    if (!adhoc()) {
      SQOPT_RETURN_IF_ERROR(
          expect_.AddFromEngine(*serving.engine, lists_.warmup));
    }

    // The peak covers the measured phase alone, not the fixture, the
    // earlier set-ups or the expectations.
    SQOPT_RETURN_IF_ERROR(ResetPeakRss());
    PhaseSpec spec;
    spec.port = serving.server->port();
    spec.warmup = &lists_.warmup;
    spec.warmup_batches = &warm_batches_;
    spec.reads = &lists_.reads;
    spec.batches = &batches_;
    spec.concurrent_writer = lists_.concurrent_writer;
    spec.start_version = serving.engine->data_version();
    spec.record_hashes = !churn();
    SQOPT_ASSIGN_OR_RETURN(PhaseResult phase, RunPhase(spec));
    const double peak_rss = PeakRssMb();
    const uint64_t queue_hwm = serving.server->stats().queue_depth_hwm;

    // Output checks, outside the timed phase.
    if (adhoc()) {
      std::set<std::string> texts(lists_.warmup.begin(),
                                  lists_.warmup.end());
      for (const auto& list : lists_.reads) {
        texts.insert(list.begin(), list.end());
      }
      SQOPT_RETURN_IF_ERROR(expect_.AddFromOracle(texts));
    }
    if (args_.corrupt) expect_.Corrupt();
    Verdict& verdict = out.verdict;
    for (size_t c = 0; c < lists_.reads.size(); ++c) {
      expect_.Check(lists_.warmup, phase.warm_hashes[c],
                    lists_.warmup.size(), "warm-up", &verdict);
      if (!churn()) {
        expect_.Check(lists_.reads[c], phase.hashes[c],
                      lists_.reads[c].size(), "read", &verdict);
      }
    }
    if (!phase.versions_contiguous) verdict.Fail("acked versions not +1");
    if (phase.warmup_failed > 0) verdict.Fail("warm-up operations failed");
    for (const std::string& e : phase.errors) {
      std::fprintf(stderr, "sqbench: %s\n", e.c_str());
    }
    if (churn()) {
      serving.server->Shutdown();
      CheckReopen(*serving.engine, fixture_dir_, args_.corrupt, &verdict);
    }
    serving.Stop();

    out.attempted = phase.reads_attempted + phase.commits_attempted;
    out.failed = phase.reads_failed + phase.commits_failed;
    const LatencySummary reads = Summarize(phase.read_rtt_us);
    const LatencySummary commits = Summarize(phase.commit_rtt_us);
    Metrics& m = out.metrics;
    if (!args_.trace) {
      m["setup_s"] = {Median(setup.setup_s), "s"};
      m["read_qps"] = {
          Ratio(static_cast<double>(phase.read_rtt_us.size()),
                phase.read_seconds),
          "1/s"};
      m["read_p50_us"] = {reads.p50, "us"};
      m["write_qps"] = {
          Ratio(static_cast<double>(phase.commit_rtt_us.size()),
                phase.write_seconds),
          "1/s"};
      calib_end_ = CalibrateMs();
      return out;
    }

    m["server.read_overhead_us"] = {Median(phase.read_overhead_us), "us"};
    m["server.apply_overhead_us"] = {Median(phase.commit_overhead_us),
                                     "us"};
    m["server.queue_depth_hwm"] = {static_cast<double>(queue_hwm), "count"};
    m["client.read_tail_us"] = {reads.tail, "us"};
    m["client.read_tail_pct"] = {reads.tail_pct, "%"};
    m["client.samples"] = {static_cast<double>(reads.samples), "count"};
    m["client.commit_p50_us"] = {commits.p50, "us"};
    m["client.commit_tail_us"] = {commits.tail, "us"};
    m["client.commit_tail_pct"] = {commits.tail_pct, "%"};
    m["client.commit_samples"] = {static_cast<double>(commits.samples),
                                  "count"};
    m["setup.open_ms"] = {
        churn() ? fixture_open_ms_ : Median(setup.open_ms), "ms"};
    m["setup.load_ms"] = {
        churn() ? fixture_load_ms_ : Median(setup.load_ms), "ms"};
    m["setup.open_dir_ms"] = {Median(setup.open_dir_ms), "ms"};
    m["setup.server_start_ms"] = {Median(setup.server_start_ms), "ms"};
    m["storage.rss_after_setup_mb"] = {rss_after_setup, "MB"};
    m["storage.peak_rss_mb"] = {peak_rss, "MB"};

    // The traced run: a fresh set-up, the same warm-up, one connection.
    SQOPT_ASSIGN_OR_RETURN(
        serving, SetUp(args_.workload, churn() ? traced_dir : fixture_dir_));
    const std::vector<std::string> replayed(
        lists_.reads[0].begin(),
        lists_.reads[0].begin() +
            static_cast<std::ptrdiff_t>(lists_.traced_reads));
    const std::vector<sqopt::MutationBatch> traced_batches(
        batches_.begin(), batches_.begin() + lists_.traced_batches);
    TracedSpec traced_spec;
    traced_spec.workload = args_.workload;
    traced_spec.warmup = &lists_.warmup;
    traced_spec.warmup_batches = &warm_batches_;
    traced_spec.reads = &replayed;
    traced_spec.batches = &traced_batches;
    if (churn()) {
      traced_spec.wal_path = (fs::path(traced_dir) / "wal.sqopt").string();
    }
    Tracer tracer;
    SQOPT_ASSIGN_OR_RETURN(TracedResult traced,
                           RunTraced(&serving, traced_spec, &tracer));
    serving.Stop();
    if (!args_.spans_out.empty()) {
      SQOPT_RETURN_IF_ERROR(tracer.WriteCsv(args_.spans_out));
    }
    expect_.Check(lists_.warmup, traced.warm_hashes, lists_.warmup.size(),
                  "traced warm-up", &verdict);
    if (!churn()) {
      expect_.Check(replayed, traced.hashes, replayed.size(), "traced read",
                    &verdict);
    }
    if (!traced.versions_contiguous) verdict.Fail("traced versions not +1");
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    for (const auto& [name, value] : traced.metrics) {
      m[name] = {value, UnitOf(name)};
    }
    m["trace.overhead"] = {Ratio(traced.client_query_p50_us, reads.p50),
                           "ratio"};
    calib_end_ = CalibrateMs();
    m["host.calib_ms"] = {calib_start_, "ms"};
    m["host.calib_end_ms"] = {calib_end_, "ms"};
    return out;
  }

  void PrintContext() const {
    std::printf(
        "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %d, \"trace\": %d, \"cores\": %u, "
        "\"build_type\": \"%s\", \"compiler\": \"%s\", "
        "\"flush_policy\": \"%s\", \"calib_start_ms\": %.3f, "
        "\"calib_end_ms\": %.3f}}\n",
        WorkloadName(args_.workload),
        static_cast<unsigned long long>(args_.seed), args_.seconds,
        args_.trace ? 1 : 0, std::thread::hardware_concurrency(),
        SQBENCH_BUILD_TYPE, __VERSION__,
        churn() ? "WAL fsync on every commit group"
                : "in-memory engine, no WAL",
        calib_start_, calib_end_);
  }

 private:
  bool adhoc() const { return args_.workload == Workload::kAdhoc; }
  bool churn() const { return args_.workload == Workload::kChurn; }

  // Units of the traced metrics, by name.
  static const char* UnitOf(const std::string& name) {
    auto ends_with = [&](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() >= n &&
             name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with("_us")) return "us";
    if (ends_with("_bytes") || ends_with("_per_commit")) return "bytes";
    if (ends_with("_share") || ends_with("_ratio") || ends_with("_rate")) {
      return "ratio";
    }
    return "count";
  }

  const Args& args_;
  OpLists lists_;
  std::vector<sqopt::MutationBatch> warm_batches_;
  std::vector<sqopt::MutationBatch> batches_;
  std::string fixture_dir_;
  double fixture_open_ms_ = 0.0;
  double fixture_load_ms_ = 0.0;
  double calib_start_ = 0.0;
  double calib_end_ = 0.0;
  Expectations expect_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqbench --workload adhoc|scan_hot|churn --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--spans-out FILE] [--corrupt-expectation]\n");
    return 2;
  }
  Runner runner(args);
  Result<RunOutput> out = runner.Run();
  std::error_code ignored;
  fs::remove_all(args.work_dir, ignored);
  if (!out.ok()) {
    std::fprintf(stderr, "sqbench: %s\n", out.status().ToString().c_str());
    return 1;
  }
  for (const std::string& p : out->verdict.problems) {
    std::fprintf(stderr, "sqbench: check failed: %s\n", p.c_str());
  }
  runner.PrintContext();
  std::string metrics;
  for (const auto& [name, metric] : out->metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), metric.value,
                  metric.unit);
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out->verdict.correct ? "true" : "false",
      static_cast<unsigned long long>(out->attempted),
      static_cast<unsigned long long>(out->failed), metrics.c_str());
  std::fflush(stdout);
  return out->verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace sqbench

int main(int argc, char** argv) { return sqbench::Main(argc, argv); }
