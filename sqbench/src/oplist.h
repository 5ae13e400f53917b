// Seed-generated, fixed operation lists for the three workloads. A run
// ends when its lists are done, not at a time limit, so every run with
// the same seed performs the same operations and its medians are taken
// over the same mix. Everything here is a pure function of the
// workload, the seed and the run length.
#ifndef SQBENCH_OPLIST_H_
#define SQBENCH_OPLIST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/mutation.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "workload/dbgen.h"

namespace sqbench {

enum class Workload { kAdhoc, kScanHot, kChurn };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// The database each workload serves. adhoc is the paper's Table 4.1
// DB1; scan_hot and churn share the 40k rows/class scale point. The
// database is a fixed fixture: the seed varies the traffic, not the
// data.
sqopt::DbSpec WorkloadDb(Workload workload);
inline constexpr uint64_t kDataSeed = 19910408;

struct OpLists {
  // One query list per read connection. churn's single reader cycles
  // through its list until the writer is done.
  std::vector<std::vector<std::string>> reads;
  // Untimed warm-up texts sent before the measured phase. adhoc: a
  // list disjoint from `reads` that fills the plan cache; scan_hot and
  // churn: every pool template once.
  std::vector<std::string> warmup;
  // Seed of the workload's MutationScript, and how many of its batches
  // are sent untimed first and then measured.
  uint64_t mutation_seed = 0;
  int64_t warmup_batches = 0;
  int64_t measured_batches = 0;
  // true: the writer runs beside the readers (churn). false: the
  // commit leg runs after the read phase, so reads stay read-only.
  bool concurrent_writer = false;
  // How many reads of reads[0] the single-connection traced run
  // replays, and how many measured batches it applies in-process.
  size_t traced_reads = 0;
  int64_t traced_batches = 0;
};

// `seconds` scales the list lengths so one run measures about that
// long on a 4-core host.
sqopt::Result<OpLists> MakeOpLists(Workload workload,
                                   const sqopt::Schema& schema,
                                   uint64_t seed, int seconds);

// `count` draws over ExperimentQueryPool() with Zipf(theta = 0.9)
// weights, by a fixed rank per template (see oplist.cc). The
// per-template counts are the expected counts (largest remainder
// rounding) and only their order comes from the seed, so the mix — and
// hence which template the median lands in — is the same in every run.
// Empty if the pool no longer has the six templates the ranks cover.
std::vector<std::string> ZipfTemplateList(uint64_t seed, size_t count);

// The first `count` batches of MutationScript(seed) against a fixture
// with `base_rows` extent slots per class.
sqopt::Result<std::vector<sqopt::MutationBatch>> MutationBatches(
    const sqopt::Schema& schema, std::vector<int64_t> base_rows,
    uint64_t seed, int64_t count);

// Base extent slots per class of a GenerateDatabase fixture of `spec`.
std::vector<int64_t> FixtureBaseRows(const sqopt::Schema& schema,
                                     const sqopt::DbSpec& spec);

}  // namespace sqbench

#endif  // SQBENCH_OPLIST_H_
