// The closed-loop load: one thread per connection, each sending its
// next request only after the previous reply was decoded.
#include <atomic>
#include <latch>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "stats.h"

namespace sqbench {

using sqopt::Result;
using sqopt::server::Client;
using sqopt::server::Response;

namespace {

constexpr size_t kMaxErrors = 8;

struct ReaderOut {
  std::vector<double> rtt_us;
  std::vector<double> overhead_us;
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> warm_hashes;
  uint64_t warmup_failed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

void Note(std::vector<std::string>* errors, std::string message) {
  if (errors->size() < kMaxErrors) errors->push_back(std::move(message));
}

// Sends the warm-up list, waits for the start, then sends `list` once,
// or cyclically while `keep_going` is set.
void ReadLoop(Client* client, const std::vector<std::string>& warmup,
              const std::vector<std::string>& list, bool cyclic,
              const std::atomic<bool>* keep_going, bool record_hashes,
              std::latch* warmed, std::latch* start, ReaderOut* out) {
  out->rtt_us.reserve(list.size());
  out->overhead_us.reserve(list.size());
  if (record_hashes) out->hashes.assign(list.size(), 0);
  out->warm_hashes.assign(warmup.size(), 0);
  for (size_t i = 0; i < warmup.size(); ++i) {
    Result<Response> response = client->Query(warmup[i]);
    if (!response.ok() || !response->ok()) {
      ++out->warmup_failed;
      Note(&out->errors, "warm-up query: " +
                             (response.ok() ? response->ToStatus().ToString()
                                            : response.status().ToString()));
      continue;
    }
    out->warm_hashes[i] = RowMultisetHash(response->rows);
  }
  warmed->count_down();
  start->arrive_and_wait();
  for (size_t i = 0;; ++i) {
    if (cyclic) {
      if (!keep_going->load(std::memory_order_relaxed)) break;
    } else if (i == list.size()) {
      break;
    }
    const std::string& text = list[i % list.size()];
    ++out->attempted;
    const Clock::time_point t0 = Clock::now();
    Result<Response> response = client->Query(text);
    const double rtt = MicrosBetween(t0, Clock::now());
    if (!response.ok() || !response->ok()) {
      ++out->failed;
      Note(&out->errors, "query: " + (response.ok()
                                          ? response->ToStatus().ToString()
                                          : response.status().ToString()));
      if (!response.ok()) break;  // the connection is gone
      continue;
    }
    out->rtt_us.push_back(rtt);
    out->overhead_us.push_back(rtt -
                               static_cast<double>(response->exec_micros));
    if (record_hashes && i < list.size()) {
      out->hashes[i] = RowMultisetHash(response->rows);
    }
  }
}

}  // namespace

Result<PhaseResult> RunPhase(const PhaseSpec& spec) {
  const size_t n_readers = spec.reads->size();
  std::vector<Client> readers;
  for (size_t c = 0; c < n_readers; ++c) {
    SQOPT_ASSIGN_OR_RETURN(Client client, ConnectV2(spec.port));
    readers.push_back(std::move(client));
  }
  SQOPT_ASSIGN_OR_RETURN(Client writer, ConnectV2(spec.port));

  PhaseResult result;
  std::vector<ReaderOut> outs(n_readers);
  std::atomic<bool> writer_running{true};

  uint64_t expected = spec.start_version + 1;
  // Sends `batches` in order; returns the elapsed seconds.
  auto write = [&](const std::vector<sqopt::MutationBatch>& batches,
                   bool measured) {
    const Clock::time_point t0 = Clock::now();
    for (const sqopt::MutationBatch& batch : batches) {
      if (measured) ++result.commits_attempted;
      const Clock::time_point s = Clock::now();
      Result<Response> response = writer.Apply(batch);
      const double rtt = MicrosBetween(s, Clock::now());
      if (!response.ok() || !response->ok()) {
        ++(measured ? result.commits_failed : result.warmup_failed);
        Note(&result.errors,
             "apply: " + (response.ok() ? response->ToStatus().ToString()
                                        : response.status().ToString()));
        if (!response.ok()) break;
        continue;
      }
      if (measured) {
        result.commit_rtt_us.push_back(rtt);
        result.commit_overhead_us.push_back(
            rtt - static_cast<double>(response->exec_micros));
      }
      if (response->snapshot_version != expected) {
        result.versions_contiguous = false;
        Note(&result.errors,
             "apply: acked version " +
                 std::to_string(response->snapshot_version) + ", expected " +
                 std::to_string(expected));
      }
      result.last_version = response->snapshot_version;
      expected = response->snapshot_version + 1;
    }
    return MicrosBetween(t0, Clock::now()) / 1e6;
  };

  std::latch warmed(static_cast<std::ptrdiff_t>(n_readers));
  std::latch start(static_cast<std::ptrdiff_t>(n_readers + 1));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n_readers; ++c) {
    threads.emplace_back(ReadLoop, &readers[c], std::cref(*spec.warmup),
                         std::cref((*spec.reads)[c]), spec.concurrent_writer,
                         &writer_running, spec.record_hashes, &warmed, &start,
                         &outs[c]);
  }
  // Reads warm up on the fixture as loaded. Writes warm up right before
  // the writer's measured batches, so a read phase that runs first sees
  // the fixture unchanged.
  warmed.wait();
  if (spec.concurrent_writer) write(*spec.warmup_batches, false);
  start.arrive_and_wait();
  const Clock::time_point t0 = Clock::now();
  if (spec.concurrent_writer) {
    result.write_seconds = write(*spec.batches, /*measured=*/true);
    writer_running.store(false, std::memory_order_relaxed);
  }
  for (std::thread& t : threads) t.join();
  result.read_seconds = MicrosBetween(t0, Clock::now()) / 1e6;
  if (!spec.concurrent_writer) {
    write(*spec.warmup_batches, /*measured=*/false);
    result.write_seconds = write(*spec.batches, /*measured=*/true);
  }

  for (ReaderOut& out : outs) {
    result.read_rtt_us.insert(result.read_rtt_us.end(), out.rtt_us.begin(),
                              out.rtt_us.end());
    result.read_overhead_us.insert(result.read_overhead_us.end(),
                                   out.overhead_us.begin(),
                                   out.overhead_us.end());
    result.reads_attempted += out.attempted;
    result.reads_failed += out.failed;
    result.warmup_failed += out.warmup_failed;
    for (std::string& e : out.errors) Note(&result.errors, std::move(e));
    result.hashes.push_back(std::move(out.hashes));
    result.warm_hashes.push_back(std::move(out.warm_hashes));
  }
  return result;
}

}  // namespace sqbench
