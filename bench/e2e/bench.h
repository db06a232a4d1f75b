// The end-to-end planner benchmark (README.md): workload definitions, the
// serial oracle, the timed passes and load generator, and the outside-in
// layer replay behind the per-layer metrics.
//
// Everything here drives the planner through its public entry points; the
// span recorder below only ever wraps the benchmark's own calls.
#ifndef P2_BENCH_E2E_BENCH_H_
#define P2_BENCH_E2E_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "engine/service.h"
#include "server/planner_server.h"
#include "server/wire_protocol.h"
#include "topology/cluster.h"

namespace p2::e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// Exact rank-based percentile over raw samples: the sample at rank
/// ceil(p/100 * n) of the sorted list (tools/p2_client's
/// PercentileOfSorted). 0 for an empty list.
double Percentile(std::vector<double> samples, double p);

/// One reported number. `n` is the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t n = 0;
};
using Metrics = std::map<std::string, Metric>;

/// One plan request of a workload: a tenant cluster and one grid config.
struct Job {
  std::string tenant;  ///< "a100:4", "racked:2x4", ...
  topology::Cluster cluster;
  /// The wire preset naming `cluster` (serve_wire sends presets, as
  /// tools/p2_client does); empty for clusters no preset names.
  std::string preset_system;
  int preset_nodes = 0;
  engine::ExperimentConfig config;

  std::string Key() const { return tenant + " " + config.ToString(); }
};

/// How a workload reaches the planner.
enum class Frontend {
  kGrid,     ///< PlannerService::Submit in-process, one service per pass
  kSharded,  ///< two worker services behind an in-process cache-server plane
  kWire,     ///< a spawned p2_server over loopback through PlannerClient
};

struct Workload {
  std::string name;
  Frontend frontend = Frontend::kGrid;
  std::vector<Job> jobs;  ///< canonical order: tenant by tenant, grid order
  engine::EngineOptions engine;
  int threads = 4;  ///< pool threads of each planning service
  int measure_top_k = -1;
  std::int64_t max_programs = 0;
  /// Every timed pass loads the synthesis cache from a P2SC file that setup
  /// wrote, as repeated `p2_plan --grid --cache-file` runs do.
  bool disk_cache = false;

  /// Pool threads across all of the workload's planning services.
  int TotalThreads() const {
    return frontend == Frontend::kSharded ? 2 * threads : threads;
  }
};

/// Throws std::invalid_argument on an unknown name.
Workload MakeWorkload(const std::string& name);

engine::PlanRequest RequestFor(const Workload& workload, const Job& job);
server::PlanWireRequest WireRequestFor(const Workload& workload,
                                       const Job& job);

/// Plan quality of the oracle's results: what the user receives.
struct Quality {
  /// Share of placements on which some measured program beats the default
  /// AllReduce (the paper's headline claim).
  double outperform_frac = 0.0;
  /// Geometric mean over configs of the grid report's Speedup column: the
  /// best placement's default AllReduce over the best measured program.
  double best_speedup_geomean = 0.0;
  /// Share of configs whose predicted-best program is within the measured
  /// top-1 / top-10 of the measured programs (paper Table 5).
  double model_top1_acc = 0.0;
  double model_top10_acc = 0.0;
};

/// The correctness oracle: every job's CanonicalResultText from a serial
/// single-thread service, plus the quality of those results.
struct Oracle {
  std::vector<std::string> texts;  ///< by job index
  Quality quality;
};

Oracle ComputeOracle(const Workload& workload);
bool WriteOracle(const std::string& path, const Workload& workload,
                 const Oracle& oracle);
bool ReadOracle(const std::string& path, const Workload& workload,
                Oracle* oracle, std::string* error);

/// Plan requests attempted and failed (a non-OK status, an exception, or a
/// result differing from the oracle by a single byte). Thread-safe.
struct Tally {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};

  /// Books one request whose result text is `text` (ignored unless `ok`).
  void Check(bool ok, const std::string& text, const std::string& expected);
};

/// In-memory span recorder, written out as Chrome trace-event JSON. Spans
/// come only from the benchmark's own calls: pass -> request, and replay ->
/// request -> placement -> layer call.
class Tracer {
 public:
  /// Span names are string literals, JSON-safe as they stand: recording a
  /// span allocates nothing.
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int tid = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under `parent` (-1 for a root) and returns its id.
  int Begin(const char* name, int parent, int tid = 0);
  void End(int id);
  /// Records an already finished span and returns its id.
  int Record(const char* name, int parent, Clock::time_point start,
             Clock::time_point end, int tid = 0);

  bool WriteChromeJson(const std::string& path) const;

 private:
  std::int64_t Ns(Clock::time_point t) const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; id = index
};

/// Span helper for an optional tracer.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent) : -1) {}
  ~TraceScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- timed passes (workloads.cc) -------------------------------------------

/// One grid or sharded pass: fresh planning services plan every job once.
struct PassOutput {
  double wall_s = 0.0;
  /// Each request's latency, from its Submit to its completion.
  std::vector<double> latency_s;
  std::vector<engine::ExperimentResult> results;  ///< by job index
  /// stats() of each planning service of the pass (two on kSharded).
  std::vector<engine::PlannerServiceStats> service_stats;
  server::PlannerServerStats plane;  ///< the cache-server plane (kSharded)
};

/// Plans every job once, submitted in `order`, and checks each result
/// against the oracle after the clock stops. With `cache_file` set the
/// service persists its cache there: written when `write_cache` (setup),
/// read-only otherwise.
PassOutput RunPass(const Workload& workload,
                   const std::vector<std::size_t>& order,
                   const std::string& cache_file, bool write_cache,
                   const Oracle& oracle, Tally* tally, Tracer* tracer);

/// A p2_server child process (serve_wire), reaped by Stop() or, failing
/// that, killed by the destructor.
class ServerProcess {
 public:
  /// Spawns `binary` on an ephemeral loopback port and waits until it
  /// accepts; throws std::runtime_error on failure.
  ServerProcess(const std::string& binary, const std::string& work_dir,
                int service_threads);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Sends a shutdown frame, reaps the process and returns its peak RSS in
  /// KiB; -1 when the server did not exit cleanly.
  long Stop();

 private:
  /// Kills and reaps a still-running child.
  void Kill();

  int pid_ = -1;
  int port_ = 0;
};

/// One open-loop window against a server.
struct LoadWindow {
  double seconds = 0.0;
  std::vector<double> latency_s;  ///< each request, from its due time
  std::vector<double> late_s;     ///< how late each request was sent
  std::vector<std::int64_t> completions;  ///< by job index
};

/// Sends requests at the workload's fixed rate over its connections for
/// `seconds`, drawing request k's job from (seed, first_request + k), and
/// checks every response body against the oracle.
LoadWindow RunOpenLoop(int port, const Workload& workload,
                       const Oracle& oracle, std::uint64_t seed,
                       std::uint64_t first_request, double seconds,
                       Tally* tally, Tracer* tracer);

// --- per-layer replay and microbenchmarks (layers.cc) ----------------------

/// Replays the service's results through every layer's public functions,
/// timing each call from outside.
struct Replay {
  bool reproduced = false;
  std::string error;
  double wall_s = 0.0;
  /// Layer seconds of each job, plus the per-pass layer work tied to no
  /// job (engine construction, the P2SC load).
  std::vector<double> job_layer_s;
  double pass_layer_s = 0.0;
  Metrics metrics;  ///< synth.*, lower.*, predict.*, measure.*, replay.*
  /// What the replay's synthesis cache holds afterwards, with one hierarchy
  /// per entry: the inputs of the cache and store microbenchmarks.
  std::vector<engine::CacheFileEntry> entries;
  std::vector<core::SynthesisHierarchy> hierarchies;
  core::SynthesisOptions synthesis;
};

/// `service` holds the service's result per job: the replay measures
/// exactly the programs it marked measured and must reproduce the oracle
/// text of every job. `disk_image` is the P2SC file a disk-cache workload
/// loads per pass.
Replay ReplayLayers(const Workload& workload,
                    const std::vector<engine::ExperimentResult>& service,
                    const Oracle& oracle, const std::string& disk_image,
                    Tracer& tracer);

/// Microbenchmarks on the workload's own inputs: a cache hit, the P2SC
/// decode, the wire codec on real responses, and the RPC-minus-in-process
/// delta plus closed-loop throughput of an in-process PlannerServer.
void MeasureMicrobenches(const Workload& workload,
                         const std::vector<engine::ExperimentResult>& results,
                         const Oracle& oracle, const Replay& replay,
                         const std::string& disk_image, Tally* tally,
                         Metrics* metrics);

}  // namespace p2::e2e

#endif  // P2_BENCH_E2E_BENCH_H_
