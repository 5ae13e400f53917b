#include <fstream>
#include <string>
#include <utility>

#include "bench.h"
#include "server/client.h"

namespace sqbench {

using sqopt::Engine;
using sqopt::Result;
using sqopt::Status;

namespace {

double MsSince(Clock::time_point t0) {
  return MicrosBetween(t0, Clock::now()) / 1000.0;
}

Result<Engine> OpenExperiment() {
  return Engine::Open(sqopt::SchemaSource::Experiment(),
                      sqopt::ConstraintSource::Experiment());
}

// A VmHWM:/VmRSS: line of /proc/self/status, in MiB.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

void Serving::Stop() {
  if (server) server->Shutdown();
  server.reset();
  engine.reset();
}

Status MakeFixture(Workload workload, const std::string& dir,
                   double* open_ms, double* load_ms) {
  Clock::time_point t0 = Clock::now();
  SQOPT_ASSIGN_OR_RETURN(Engine engine, OpenExperiment());
  *open_ms = MsSince(t0);
  t0 = Clock::now();
  SQOPT_RETURN_IF_ERROR(engine.Load(
      sqopt::DataSource::Generated(WorkloadDb(workload), kDataSeed)));
  *load_ms = MsSince(t0);
  return engine.Save(dir);
}

Result<Serving> SetUp(Workload workload, const std::string& dir) {
  Serving s;
  const Clock::time_point start = Clock::now();
  if (workload == Workload::kChurn) {
    SQOPT_ASSIGN_OR_RETURN(Engine engine, Engine::Open(dir));
    s.engine = std::make_unique<Engine>(std::move(engine));
    s.open_dir_ms = MsSince(start);
  } else {
    SQOPT_ASSIGN_OR_RETURN(Engine engine, OpenExperiment());
    s.engine = std::make_unique<Engine>(std::move(engine));
    s.open_ms = MsSince(start);
    const Clock::time_point t0 = Clock::now();
    SQOPT_RETURN_IF_ERROR(s.engine->Load(
        sqopt::DataSource::Generated(WorkloadDb(workload), kDataSeed)));
    s.load_ms = MsSince(t0);
  }
  const Clock::time_point t0 = Clock::now();
  SQOPT_ASSIGN_OR_RETURN(
      s.server,
      sqopt::server::Server::Start(s.engine.get(),
                                   sqopt::server::ServerOptions{}));
  s.server_start_ms = MsSince(t0);
  s.setup_s = MsSince(start) / 1000.0;
  return s;
}

double PeakRssMb() { return StatusMb("VmHWM:"); }
double RssMb() { return StatusMb("VmRSS:"); }

Status ResetPeakRss() {
  // "5" resets the peak resident set size (proc(5), clear_refs).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) return Status::Internal("cannot reset VmHWM");
  return Status::OK();
}

double CalibrateMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  // Keeps the loop from being folded away.
  volatile uint64_t sink = x;
  (void)sink;
  return MsSince(t0);
}

Result<sqopt::server::Client> ConnectV2(int port) {
  SQOPT_ASSIGN_OR_RETURN(
      sqopt::server::Client client,
      sqopt::server::Client::Connect("127.0.0.1", port,
                                     /*timeout_ms=*/60000));
  SQOPT_ASSIGN_OR_RETURN(sqopt::server::Response hello, client.Hello());
  SQOPT_RETURN_IF_ERROR(hello.ToStatus());
  return client;
}

}  // namespace sqbench
