// Shared pieces of the benchmark: set-up of the served engine, the
// closed-loop load over loopback, and the traced replay.
#ifndef SQBENCH_BENCH_H_
#define SQBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/mutation.h"
#include "common/status.h"
#include "oplist.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"

namespace sqbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// An engine served by an in-process server with the shipped defaults.
// The engine is heap-held because the server keeps its address. Call
// Stop() before assigning over a live Serving: the server must go
// before its engine.
struct Serving {
  std::unique_ptr<sqopt::Engine> engine;
  std::unique_ptr<sqopt::server::Server> server;
  // Set-up phases, milliseconds (0 for phases the workload skips).
  double open_ms = 0.0;
  double load_ms = 0.0;
  double open_dir_ms = 0.0;
  double server_start_ms = 0.0;
  double setup_s = 0.0;  // from the start of set-up to ready to serve

  void Stop();  // shuts the server down, then drops the engine
};

// Writes the churn fixture to `dir` with Engine::Save. Untimed in the
// reported set-up; `open_ms`/`load_ms` receive its phases.
sqopt::Status MakeFixture(Workload workload, const std::string& dir,
                          double* open_ms, double* load_ms);

// adhoc, scan_hot: Engine::Open + Load + Server::Start.
// churn: Engine::Open(dir) + Server::Start, fsync on.
sqopt::Result<Serving> SetUp(Workload workload, const std::string& dir);

// Peak and current resident set of this process, in MiB.
double PeakRssMb();
double RssMb();
// Resets the peak (VmHWM) to the current resident set, so a later
// PeakRssMb() covers only what ran since.
sqopt::Status ResetPeakRss();

// A fixed CPU loop, timed in milliseconds. It reads the host's speed
// at the start and end of a run; nothing is scaled by it.
double CalibrateMs();

// One measured phase over loopback. Every reader first sends `warmup`
// once, untimed; the writer sends `warmup_batches`, untimed, before its
// measured batches.
struct PhaseSpec {
  int port = 0;
  const std::vector<std::string>* warmup = nullptr;
  const std::vector<sqopt::MutationBatch>* warmup_batches = nullptr;
  const std::vector<std::vector<std::string>>* reads = nullptr;
  // Measured batches, sent in order by one writer connection.
  const std::vector<sqopt::MutationBatch>* batches = nullptr;
  // true: the writer runs beside the readers and the readers cycle
  // their lists until it is done. false: readers run their lists once,
  // then the writer runs alone.
  bool concurrent_writer = false;
  // Snapshot version before the first warm-up batch.
  uint64_t start_version = 0;
  // Keep each read's row-multiset hash for the output check (only
  // meaningful when reads don't race writes).
  bool record_hashes = false;
};

struct PhaseResult {
  std::vector<double> read_rtt_us;
  std::vector<double> read_overhead_us;  // round trip - exec_micros
  std::vector<double> commit_rtt_us;
  std::vector<double> commit_overhead_us;
  uint64_t reads_attempted = 0;
  uint64_t reads_failed = 0;
  uint64_t commits_attempted = 0;
  uint64_t commits_failed = 0;
  double read_seconds = 0.0;   // start to last reader done
  double write_seconds = 0.0;  // writer's own elapsed time
  // hashes[c][i]: hash of reads[c][i]'s response (record_hashes);
  // warm_hashes[c][i] likewise for warmup[i] (always recorded).
  std::vector<std::vector<uint64_t>> hashes;
  std::vector<std::vector<uint64_t>> warm_hashes;
  uint64_t warmup_failed = 0;
  // Every acked commit, warm-up included, was the previous one + 1.
  bool versions_contiguous = true;
  uint64_t last_version = 0;
  std::vector<std::string> errors;  // first few failure messages
};

sqopt::Result<PhaseResult> RunPhase(const PhaseSpec& spec);

// Connects and negotiates protocol v2 (kApply needs it).
sqopt::Result<sqopt::server::Client> ConnectV2(int port);

// The single-connection traced replay; see traced.cc.
struct TracedSpec {
  Workload workload = Workload::kAdhoc;
  // Sent untraced first, like the untraced run's warm-up.
  const std::vector<std::string>* warmup = nullptr;
  const std::vector<sqopt::MutationBatch>* warmup_batches = nullptr;
  const std::vector<std::string>* reads = nullptr;  // replayed prefix
  const std::vector<sqopt::MutationBatch>* batches = nullptr;
  std::string wal_path;  // empty for in-memory engines
};

struct TracedResult {
  std::map<std::string, double> metrics;
  double client_query_p50_us = 0.0;
  std::vector<uint64_t> warm_hashes;  // per warm-up read
  std::vector<uint64_t> hashes;       // per replayed read
  bool versions_contiguous = true;
  uint64_t failed = 0;
  uint64_t attempted = 0;
};

sqopt::Result<TracedResult> RunTraced(Serving* serving,
                                      const TracedSpec& spec,
                                      Tracer* tracer);

}  // namespace sqbench

#endif  // SQBENCH_BENCH_H_
