// The traced run: the workload's op list replayed on one connection,
// with spans around every call into a layer. Reads go over loopback and
// are then repeated in-process through each public stage (parse,
// analyze, unoptimized and optimized execute, prepare, prepared
// execute) so each layer's time is a span of its own. Commits apply the
// same batches in-process, so ApplyOutcome's phase timings become child
// spans of the commit.
#include <sys/stat.h>

#include <algorithm>
#include <set>

#include "bench.h"
#include "server/client.h"
#include "server/wire.h"
#include "stats.h"

namespace sqbench {

using sqopt::Result;
using sqopt::Status;
using sqopt::server::Response;

namespace {

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (path.empty() || ::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_size);
}

double Mean(double sum, uint64_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// Counters summed over the replayed reads.
struct ReadTotals {
  uint64_t reads = 0;
  uint64_t cache_hits = 0;
  double response_bytes = 0;
  double firings = 0;
  double cell_writes = 0;
  uint64_t contradictions = 0;
  double scanned_optimized = 0;
  double scanned_unoptimized = 0;
  double instances_scanned = 0;
  double predicate_evals = 0;
  double index_probes = 0;
  double pointer_traversals = 0;
  double rows_out = 0;
  std::vector<double> optimize_us;  // Analyze - Parse, per read
};

class Replay {
 public:
  Replay(Serving* serving, Tracer* tracer, sqopt::server::Client* client,
         TracedResult* result)
      : engine_(*serving->engine),
        tracer_(tracer),
        client_(client),
        result_(result) {}

  Status Read(const std::string& text) {
    const uint32_t request = next_request_++;
    ScopedSpan op(tracer_, "op.read", request);
    ++result_->attempted;
    Response response;
    {
      ScopedSpan span(tracer_, "client.query", request);
      Result<Response> got = client_->Query(text);
      if (!got.ok()) return got.status();
      response = std::move(got).value();
      const int64_t start = tracer_->span(span.id()).start_ns;
      tracer_->Add("server.execute", start,
                   start + static_cast<int64_t>(response.exec_micros) * 1000,
                   span.id());
    }
    if (!response.ok()) {
      ++result_->failed;
      result_->hashes.push_back(0);
      return Status::OK();
    }
    result_->hashes.push_back(RowMultisetHash(response.rows));
    ++totals_.reads;
    totals_.cache_hits += response.plan_cache_hit ? 1 : 0;

    std::string frame;
    {
      ScopedSpan span(tracer_, "wire.encode", request);
      frame = sqopt::server::EncodeResponse(response);
    }
    totals_.response_bytes += static_cast<double>(frame.size());
    {
      // EncodeResponse returns a whole frame; the payload follows the
      // 8-byte length + CRC header.
      ScopedSpan span(tracer_, "wire.decode", request);
      Result<Response> decoded = sqopt::server::DecodeResponse(
          std::string_view(frame).substr(8));
      if (!decoded.ok()) return decoded.status();
    }

    int64_t parse_ns = 0;
    {
      ScopedSpan span(tracer_, "query.parse", request);
      SQOPT_RETURN_IF_ERROR(engine_.Parse(text).status());
      parse_ns = Tracer::NowNs() - tracer_->span(span.id()).start_ns;
    }
    {
      ScopedSpan span(tracer_, "sqo.analyze", request);
      Result<sqopt::QueryOutcome> analyzed = engine_.Analyze(text);
      SQOPT_RETURN_IF_ERROR(analyzed.status());
      const sqopt::OptimizationReport& report = analyzed->report;
      const int64_t start = tracer_->span(span.id()).start_ns;
      const int64_t analyze_ns = Tracer::NowNs() - start;
      totals_.optimize_us.push_back(
          static_cast<double>(analyze_ns - parse_ns) / 1000.0);
      // The optimizer's phases are sequential; lay them out in order.
      int64_t at = start;
      for (const auto& [name, ns] :
           {std::pair<const char*, int64_t>{"sqo.init", report.init_ns},
            {"sqo.transform", report.transform_ns},
            {"sqo.formulate", report.formulate_ns}}) {
        tracer_->Add(name, at, at + ns, span.id());
        at += ns;
      }
      totals_.firings += static_cast<double>(report.num_firings);
      totals_.cell_writes += static_cast<double>(report.cell_writes);
      totals_.contradictions += report.empty_result ? 1 : 0;
    }
    {
      ScopedSpan span(tracer_, "api.execute_unoptimized", request);
      Result<sqopt::QueryOutcome> out = engine_.ExecuteUnoptimized(text);
      SQOPT_RETURN_IF_ERROR(out.status());
      totals_.scanned_unoptimized +=
          static_cast<double>(out->meter.instances_scanned);
    }
    {
      ScopedSpan span(tracer_, "api.execute", request);
      Result<sqopt::QueryOutcome> out = engine_.Execute(text);
      SQOPT_RETURN_IF_ERROR(out.status());
      totals_.scanned_optimized +=
          static_cast<double>(out->meter.instances_scanned);
    }
    sqopt::PreparedQuery prepared;
    {
      ScopedSpan span(tracer_, "api.prepare", request);
      SQOPT_ASSIGN_OR_RETURN(prepared, engine_.Prepare(text));
    }
    {
      ScopedSpan span(tracer_, "exec.run", request);
      Result<sqopt::QueryOutcome> out = prepared.Execute();
      SQOPT_RETURN_IF_ERROR(out.status());
      const sqopt::ExecutionMeter& m = out->meter;
      totals_.instances_scanned += static_cast<double>(m.instances_scanned);
      totals_.predicate_evals += static_cast<double>(m.predicate_evals);
      totals_.index_probes += static_cast<double>(m.index_probes);
      totals_.pointer_traversals +=
          static_cast<double>(m.pointer_traversals);
      totals_.rows_out += static_cast<double>(m.rows_out);
    }
    return Status::OK();
  }

  Status Commit(const sqopt::MutationBatch& batch) {
    const uint32_t request = next_request_++;
    ScopedSpan op(tracer_, "op.commit", request);
    ++result_->attempted;
    const uint64_t expected = engine_.data_version() + 1;
    ScopedSpan span(tracer_, "commit.apply", request);
    Result<sqopt::ApplyOutcome> out = engine_.Apply(batch);
    if (!out.ok()) {
      ++result_->failed;
      return Status::OK();
    }
    if (out->snapshot_version != expected) {
      result_->versions_contiguous = false;
    }
    ++commits_;
    constraint_checks_ += static_cast<double>(out->constraint_checks);
    // Clone opens the commit; the WAL append (fsync inside it) is the
    // last phase before publish. Only their lengths are measured.
    const int64_t start = tracer_->span(span.id()).start_ns;
    const int64_t end = Tracer::NowNs();
    const auto clone_ns = static_cast<int64_t>(out->clone_micros) * 1000;
    const auto wal_ns = static_cast<int64_t>(out->wal_micros) * 1000;
    const auto fsync_ns = static_cast<int64_t>(out->fsync_micros) * 1000;
    tracer_->Add("commit.clone", start, start + clone_ns, span.id());
    const int32_t wal =
        tracer_->Add("commit.wal", end - wal_ns, end, span.id());
    tracer_->Add("commit.fsync", end - fsync_ns, end, wal);
    return Status::OK();
  }

  // Plan build on a miss: Prepare after the cache was dropped, minus its
  // parse (timed just before) and minus the optimizer time its own
  // report records. Run after the replay, because dropping the cache
  // would change the replay's hit rate.
  Status PlanCost(const std::vector<std::string>& texts) {
    for (const std::string& text : texts) {
      const uint32_t request = next_request_++;
      ScopedSpan op(tracer_, "op.plan", request);
      int64_t parse_ns = 0;
      {
        ScopedSpan span(tracer_, "plan.parse", request);
        SQOPT_RETURN_IF_ERROR(engine_.Parse(text).status());
        parse_ns = Tracer::NowNs() - tracer_->span(span.id()).start_ns;
      }
      engine_.SetServeOptions(engine_.options().serve);  // drops plans
      ScopedSpan span(tracer_, "plan.prepare_miss", request);
      Result<sqopt::PreparedQuery> prepared = engine_.Prepare(text);
      SQOPT_RETURN_IF_ERROR(prepared.status());
      const int64_t start = tracer_->span(span.id()).start_ns;
      const int64_t prepare_ns = Tracer::NowNs() - start;
      const int64_t optimize_ns = prepared->report().total_ns;
      tracer_->Add("plan.optimize", start, start + optimize_ns, span.id());
      plan_us_.push_back(
          static_cast<double>(prepare_ns - parse_ns - optimize_ns) / 1000.0);
    }
    return Status::OK();
  }

  void Finish(int64_t wal_bytes) {
    std::map<std::string, double>& m = result_->metrics;
    const auto dur = MicrosByName(tracer_->spans(), /*self=*/false);
    const auto self = MicrosByName(tracer_->spans(), /*self=*/true);
    auto med = [](const std::map<std::string, std::vector<double>>& by,
                  const char* name) {
      auto it = by.find(name);
      return it == by.end() ? 0.0 : Median(it->second);
    };
    const uint64_t n = totals_.reads;
    result_->client_query_p50_us = med(dur, "client.query");
    m["wire.encode_us"] = med(dur, "wire.encode");
    m["wire.decode_us"] = med(dur, "wire.decode");
    m["wire.response_bytes"] = Mean(totals_.response_bytes, n);
    m["query.parse_us"] = med(dur, "query.parse");
    m["sqo.optimize_us"] = Median(totals_.optimize_us);
    m["sqo.init_us"] = med(dur, "sqo.init");
    m["sqo.transform_us"] = med(dur, "sqo.transform");
    m["sqo.formulate_us"] = med(dur, "sqo.formulate");
    m["sqo.firings_per_query"] = Mean(totals_.firings, n);
    m["sqo.cell_writes_per_query"] = Mean(totals_.cell_writes, n);
    m["sqo.contradiction_share"] =
        Mean(static_cast<double>(totals_.contradictions), n);
    m["sqo.scan_saved_ratio"] =
        totals_.scanned_unoptimized > 0
            ? 1.0 - totals_.scanned_optimized / totals_.scanned_unoptimized
            : 0.0;
    m["api.plan_us"] = Median(plan_us_);
    m["api.execute_us"] = med(dur, "api.execute");
    m["api.plan_cache_hit_rate"] =
        Mean(static_cast<double>(totals_.cache_hits), n);
    m["exec.run_us"] = med(dur, "exec.run");
    m["exec.instances_scanned"] = Mean(totals_.instances_scanned, n);
    m["exec.predicate_evals"] = Mean(totals_.predicate_evals, n);
    m["exec.index_probes"] = Mean(totals_.index_probes, n);
    m["exec.pointer_traversals"] = Mean(totals_.pointer_traversals, n);
    m["exec.rows_out"] = Mean(totals_.rows_out, n);
    m["commit.apply_us"] = med(dur, "commit.apply");
    m["commit.clone_us"] = med(dur, "commit.clone");
    m["commit.wal_us"] = med(self, "commit.wal");
    m["commit.fsync_us"] = med(dur, "commit.fsync");
    m["commit.other_us"] = med(self, "commit.apply");
    m["commit.constraint_checks"] = Mean(constraint_checks_, commits_);
    m["persist.wal_bytes_per_commit"] =
        Mean(static_cast<double>(wal_bytes), commits_);
  }

 private:
  sqopt::Engine& engine_;
  Tracer* tracer_;
  sqopt::server::Client* client_;
  TracedResult* result_;
  uint32_t next_request_ = 1;
  ReadTotals totals_;
  uint64_t commits_ = 0;
  double constraint_checks_ = 0;
  std::vector<double> plan_us_;
};

// Distinct texts of `reads`, first sight order, at most `limit`.
std::vector<std::string> Distinct(const std::vector<std::string>& reads,
                                  size_t limit) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& text : reads) {
    if (out.size() == limit) break;
    if (seen.insert(text).second) out.push_back(text);
  }
  return out;
}

}  // namespace

Result<TracedResult> RunTraced(Serving* serving, const TracedSpec& spec,
                               Tracer* tracer) {
  SQOPT_ASSIGN_OR_RETURN(sqopt::server::Client client,
                         ConnectV2(serving->server->port()));
  TracedResult result;
  for (const std::string& text : *spec.warmup) {
    Result<Response> response = client.Query(text);
    SQOPT_RETURN_IF_ERROR(response.status());
    SQOPT_RETURN_IF_ERROR(response->ToStatus());
    result.warm_hashes.push_back(RowMultisetHash(response->rows));
  }
  auto warm_writes = [&]() -> Status {
    for (const sqopt::MutationBatch& batch : *spec.warmup_batches) {
      Result<Response> response = client.Apply(batch);
      SQOPT_RETURN_IF_ERROR(response.status());
      SQOPT_RETURN_IF_ERROR(response->ToStatus());
    }
    return Status::OK();
  };
  Replay replay(serving, tracer, &client, &result);
  const std::vector<std::string>& reads = *spec.reads;
  const std::vector<sqopt::MutationBatch>& batches = *spec.batches;
  const uint64_t invalidations_before =
      serving->engine->plan_cache_stats().invalidations;

  int64_t wal_before = 0;
  if (spec.workload == Workload::kChurn) {
    // Writes interleave with reads as they do in the untraced run.
    SQOPT_RETURN_IF_ERROR(warm_writes());
    wal_before = FileBytes(spec.wal_path);
    const size_t per_batch =
        batches.empty() ? reads.size()
                        : std::max<size_t>(1, reads.size() / batches.size());
    size_t r = 0;
    for (const sqopt::MutationBatch& batch : batches) {
      SQOPT_RETURN_IF_ERROR(replay.Commit(batch));
      for (size_t k = 0; k < per_batch && r < reads.size(); ++k, ++r) {
        SQOPT_RETURN_IF_ERROR(replay.Read(reads[r]));
      }
    }
    for (; r < reads.size(); ++r) SQOPT_RETURN_IF_ERROR(replay.Read(reads[r]));
  } else {
    // The read phase, then the commit leg, as in the untraced run.
    for (const std::string& text : reads) {
      SQOPT_RETURN_IF_ERROR(replay.Read(text));
    }
    SQOPT_RETURN_IF_ERROR(warm_writes());
    for (const sqopt::MutationBatch& batch : batches) {
      SQOPT_RETURN_IF_ERROR(replay.Commit(batch));
    }
  }
  const int64_t wal_bytes = FileBytes(spec.wal_path) - wal_before;
  result.metrics["api.plan_cache_invalidations"] = static_cast<double>(
      serving->engine->plan_cache_stats().invalidations -
      invalidations_before);
  SQOPT_RETURN_IF_ERROR(replay.PlanCost(Distinct(reads, 200)));
  replay.Finish(wal_bytes);
  return result;
}

}  // namespace sqbench
