// Workload definitions, the serial oracle, and the timed runners: grid
// passes through PlannerService::Submit, sharded passes behind an
// in-process cache-server plane, and an open-loop load generator against a
// spawned p2_server.
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "engine/report.h"
#include "server/planner_client.h"
#include "server/remote_cache_client.h"
#include "topology/presets.h"

extern char** environ;

namespace p2::e2e {

namespace {

/// The paper-scale payload every in-process workload plans for (MB/GPU).
constexpr double kPayloadBytes = 100e6;
/// serve_wire's offered load: a fixed rate spread over a fixed number of
/// connections, each a blocking PlannerClient. At this rate the replayed
/// planning work keeps the two service threads under a third busy, so
/// latency measures service. At 2000/s the queue amplified machine noise
/// and the median swung twofold between runs.
constexpr double kRequestRate = 1000.0;
constexpr int kConnections = 4;

void AddTenant(std::vector<Job>* jobs, const std::string& tenant,
               const topology::Cluster& cluster,
               const std::string& preset_system, int preset_nodes) {
  for (engine::ExperimentConfig& config : engine::FullGrid(cluster)) {
    jobs->push_back(
        Job{tenant, cluster, preset_system, preset_nodes, std::move(config)});
  }
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Quality QualityOf(const std::vector<engine::ExperimentResult>& results) {
  std::int64_t placements = 0;
  std::int64_t outperforming = 0;
  std::int64_t top1 = 0;
  std::int64_t top10 = 0;
  double log_speedup = 0.0;
  for (const engine::ExperimentResult& result : results) {
    const engine::PlacementEvaluation* best_placement = nullptr;
    const engine::ProgramEvaluation* best = nullptr;
    for (const engine::PlacementEvaluation& placement : result.placements) {
      ++placements;
      if (placement.NumOutperforming() > 0) ++outperforming;
      const auto& program = placement.programs[static_cast<std::size_t>(
          placement.BestMeasuredIndex())];
      if (best == nullptr || program.measured_seconds < best->measured_seconds) {
        best_placement = &placement;
        best = &program;
      }
    }
    log_speedup += std::log(best_placement->DefaultAllReduce().measured_seconds /
                            best->measured_seconds);
    // Rank among the measured programs only: under guided evaluation the
    // unmeasured ones carry no measurement to rank.
    std::vector<engine::RankedPair> measured;
    for (const engine::RankedPair& pair : engine::CollectPairs(result)) {
      if (result.placements[static_cast<std::size_t>(pair.placement_index)]
              .programs[static_cast<std::size_t>(pair.program_index)]
              .measured) {
        measured.push_back(pair);
      }
    }
    const int rank = engine::MeasuredRankOfPredictedBest(measured);
    if (rank < 1) ++top1;
    if (rank < 10) ++top10;
  }
  const auto configs = static_cast<double>(results.size());
  return Quality{static_cast<double>(outperforming) /
                     static_cast<double>(placements),
                 std::exp(log_speedup / configs),
                 static_cast<double>(top1) / configs,
                 static_cast<double>(top10) / configs};
}

constexpr const char* kOracleMagic = "p2-e2e-oracle";

/// Submits the jobs in `order`, each to `service_of(job)`, then collects
/// every result into `out` (by job index), marks it in `ok`, and records
/// each request's submit-to-completion latency.
void PlanAll(const Workload& workload, const std::vector<std::size_t>& order,
             const std::function<engine::PlannerService&(std::size_t)>&
                 service_of,
             PassOutput* out, std::vector<char>* ok, Tracer* tracer,
             int parent) {
  std::vector<engine::PlanHandle> handles;
  std::vector<Clock::time_point> submitted;
  handles.reserve(order.size());
  submitted.reserve(order.size());
  for (const std::size_t i : order) {
    submitted.push_back(Clock::now());
    handles.push_back(service_of(i).Submit(RequestFor(workload, workload.jobs[i])));
  }
  // Handles complete out of order and carry no completion time, so poll:
  // a 200 us tick is far below the latencies measured here.
  std::vector<Clock::time_point> completed(order.size());
  std::vector<char> done(order.size(), 0);
  for (std::size_t remaining = order.size(); remaining > 0;) {
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (done[k] == 0 &&
          handles[k].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        completed[k] = Clock::now();
        done[k] = 1;
        --remaining;
      }
    }
    if (remaining > 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    try {
      out->results[i] = handles[k].get();
      (*ok)[i] = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: %s failed: %s\n",
                   workload.jobs[i].Key().c_str(), e.what());
    }
    out->latency_s.push_back(
        std::chrono::duration<double>(completed[k] - submitted[k]).count());
    if (tracer != nullptr) {
      tracer->Record("request", parent, submitted[k], completed[k]);
    }
  }
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "grid_guided" || name == "grid_measure_all") {
    // The paper's Section 5 grid on three 64-GPU machines of different
    // hierarchy depth: 45 configs, 161 placements.
    AddTenant(&w.jobs, "a100:4", topology::MakeA100Cluster(4), "a100", 4);
    AddTenant(&w.jobs, "v100:8", topology::MakeV100Cluster(8), "v100", 8);
    AddTenant(&w.jobs, "racked:2x2", topology::MakeRackedA100Cluster(2, 2), "",
              0);
    w.engine.payload_bytes = kPayloadBytes;
    w.threads = 4;
    if (name == "grid_guided") {
      w.measure_top_k = 3;
    } else {
      w.disk_cache = true;  // measure every program, synthesis from disk
    }
  } else if (name == "deep_sharded") {
    // 128 GPUs in 2 racks of 4 nodes: depth-4 synthesis dominates. (A 4x4
    // rack peaks at 2.6-4.7 GB per run, varying with which signatures the
    // shards synthesize concurrently.)
    w.frontend = Frontend::kSharded;
    AddTenant(&w.jobs, "racked:2x4", topology::MakeRackedA100Cluster(2, 4), "",
              0);
    w.engine.payload_bytes = kPayloadBytes;
    w.threads = 2;
    w.measure_top_k = 1;
    w.max_programs = 32;
  } else if (name == "serve_wire") {
    // Small warm requests; p2_server plans under its default engine options
    // (the wire carries no payload), so the oracle does too.
    w.frontend = Frontend::kWire;
    AddTenant(&w.jobs, "a100:1", topology::MakeA100Cluster(1), "a100", 1);
    AddTenant(&w.jobs, "v100:2", topology::MakeV100Cluster(2), "v100", 2);
    w.threads = 2;
    w.measure_top_k = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

engine::PlanRequest RequestFor(const Workload& workload, const Job& job) {
  engine::PlanRequest request;
  request.axes = job.config.axes;
  request.reduction_axes = job.config.reduction_axes;
  request.measure_top_k = workload.measure_top_k;
  request.cluster = job.cluster;
  request.max_programs = workload.max_programs;
  return request;
}

server::PlanWireRequest WireRequestFor(const Workload& workload,
                                       const Job& job) {
  server::PlanWireRequest request;
  request.preset_system = job.preset_system;
  request.preset_nodes = job.preset_nodes;
  request.axes = job.config.axes;
  request.reduction_axes = job.config.reduction_axes;
  request.measure_top_k = workload.measure_top_k;
  request.max_programs = workload.max_programs;
  return request;
}

Oracle ComputeOracle(const Workload& workload) {
  engine::PlannerServiceOptions options;
  options.threads = 1;
  options.engine = workload.engine;
  engine::PlannerService service(options);
  std::vector<engine::ExperimentResult> results;
  Oracle oracle;
  for (const Job& job : workload.jobs) {
    results.push_back(service.Plan(RequestFor(workload, job)));
    oracle.texts.push_back(engine::CanonicalResultText(results.back()));
  }
  oracle.quality = QualityOf(results);
  return oracle;
}

bool WriteOracle(const std::string& path, const Workload& workload,
                 const Oracle& oracle) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  char quality[160];
  std::snprintf(quality, sizeof(quality), "%.17g %.17g %.17g %.17g\n",
                oracle.quality.outperform_frac,
                oracle.quality.best_speedup_geomean,
                oracle.quality.model_top1_acc, oracle.quality.model_top10_acc);
  out << kOracleMagic << ' ' << workload.name << ' ' << oracle.texts.size()
      << '\n'
      << quality;
  for (const std::string& text : oracle.texts) out << text.size() << '\n' << text;
  out.close();
  return static_cast<bool>(out);
}

bool ReadOracle(const std::string& path, const Workload& workload,
                Oracle* oracle, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::string name;
  std::size_t count = 0;
  Quality& q = oracle->quality;
  if (!(in >> magic >> name >> count) || magic != kOracleMagic ||
      name != workload.name || count != workload.jobs.size() ||
      !(in >> q.outperform_frac >> q.best_speedup_geomean >> q.model_top1_acc >>
        q.model_top10_acc)) {
    *error = "oracle " + path + " is missing or not for " + workload.name;
    return false;
  }
  oracle->texts.assign(count, "");
  for (std::string& text : oracle->texts) {
    std::size_t size = 0;
    if (!(in >> size) || in.get() != '\n' || size > (std::size_t{1} << 30)) {
      *error = "oracle " + path + " is truncated";
      return false;
    }
    text.resize(size);
    if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
      *error = "oracle " + path + " is truncated";
      return false;
    }
  }
  return true;
}

void Tally::Check(bool ok, const std::string& text,
                  const std::string& expected) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (!ok || text != expected) failed.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::Begin(const char* name, int parent, int tid) {
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  const std::int64_t now = Ns(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

int Tracer::Record(const char* name, int parent, Clock::time_point start,
                   Clock::time_point end, int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, Ns(start), Ns(end), parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  char buf[160];
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  span.tid, static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, id,
                  span.parent);
    out << (id == 0 ? "" : ",") << "\n{\"name\":\"" << span.name << "\","
        << buf;
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

PassOutput RunPass(const Workload& workload,
                   const std::vector<std::size_t>& order,
                   const std::string& cache_file, bool write_cache,
                   const Oracle& oracle, Tally* tally, Tracer* tracer) {
  // Hand memory freed by earlier passes back first, so peak RSS is that of
  // the largest single pass, as in a one-pass p2_plan run, not the
  // allocator's fragmentation accumulated over many passes.
  malloc_trim(0);
  PassOutput out;
  out.results.resize(workload.jobs.size());
  std::vector<char> ok(workload.jobs.size(), 0);
  engine::PlannerServiceOptions options;
  options.threads = workload.threads;
  options.engine = workload.engine;

  const auto start = Clock::now();
  {
    TraceScope pass(tracer, "pass", -1);
    if (workload.frontend == Frontend::kSharded) {
      // Two worker services behind an in-process cache-server plane. The
      // plane answers lookups on its connection threads; its own service
      // never plans, so it needs no pool.
      engine::PlannerService plane_service;
      server::PlannerServerOptions plane_options;
      plane_options.cache_server = true;
      server::PlannerServer plane(plane_service, plane_options);
      std::vector<std::unique_ptr<engine::PlannerService>> shards;
      for (int s = 0; s < 2; ++s) {
        options.remote_cache =
            std::make_shared<server::RemoteCacheClient>(plane.port());
        shards.push_back(std::make_unique<engine::PlannerService>(options));
      }
      // Grid index modulo the shard count, as engine::ShardIndices splits.
      PlanAll(workload, order,
              [&](std::size_t i) -> engine::PlannerService& {
                return *shards[i % shards.size()];
              },
              &out, &ok, tracer, pass.id());
      for (const auto& shard : shards) out.service_stats.push_back(shard->stats());
      out.plane = plane.stats();
      shards.clear();  // the shards drain before the plane stops
    } else {
      options.cache_file = cache_file;
      options.cache_readonly = !cache_file.empty() && !write_cache;
      engine::PlannerService service(options);
      if (options.cache_readonly &&
          service.cache_load_status() != engine::CacheLoadStatus::kOk) {
        throw std::runtime_error("cache file " + cache_file +
                                 " did not load: " +
                                 service.cache_load_message());
      }
      PlanAll(workload, order,
              [&](std::size_t) -> engine::PlannerService& { return service; },
              &out, &ok, tracer, pass.id());
      std::string error;
      if (write_cache && !service.SaveCache(&error)) {
        throw std::runtime_error("cannot save " + cache_file + ": " + error);
      }
      out.service_stats.push_back(service.stats());
    }
  }
  out.wall_s = SecondsSince(start);

  for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
    tally->Check(ok[i] != 0,
                 ok[i] != 0 ? engine::CanonicalResultText(out.results[i]) : "",
                 oracle.texts[i]);
  }
  return out;
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& work_dir,
                             int service_threads) {
  static std::atomic<int> spawned{0};
  const std::string port_file = work_dir + "/p2_server-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(spawned++) + ".port";
  std::filesystem::remove(port_file);
  std::vector<std::string> args = {
      binary, "--port=0", "--port-file=" + port_file,
      "--service-threads=" + std::to_string(service_threads)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
  pid_ = pid;
  // tools/p2_server renames the port file into place only once it accepts.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (port_ <= 0) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = port;
      break;
    }
    int status = 0;
    const bool exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (exited || Clock::now() > deadline) {
      if (exited) pid_ = -1;
      Kill();  // no destructor runs for a throwing constructor
      throw std::runtime_error(exited ? "p2_server exited during start-up"
                                      : "p2_server did not start in 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::filesystem::remove(port_file);
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

long ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  bool acknowledged = false;
  try {
    server::PlannerClient client(port_);
    acknowledged = client.Shutdown();
  } catch (const std::exception&) {
  }
  if (!acknowledged) ::kill(pid_, SIGKILL);
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  const bool clean = acknowledged && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return clean ? usage.ru_maxrss : -1;
}

LoadWindow RunOpenLoop(int port, const Workload& workload,
                       const Oracle& oracle, std::uint64_t seed,
                       std::uint64_t first_request, double seconds,
                       Tally* tally, Tracer* tracer) {
  const std::size_t num_jobs = workload.jobs.size();
  std::vector<server::PlanWireRequest> requests;
  for (const Job& job : workload.jobs) {
    requests.push_back(WireRequestFor(workload, job));
  }
  // Every connection is open before the schedule starts, so connection
  // set-up is not charged to the first requests.
  std::vector<std::unique_ptr<server::PlannerClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<server::PlannerClient>(port));
  }
  struct Lane {
    std::vector<double> latency_s;
    std::vector<double> late_s;
    std::vector<std::int64_t> completions;
  };
  std::vector<Lane> lanes(kConnections);
  const auto total = static_cast<std::int64_t>(seconds * kRequestRate);
  TraceScope window(tracer, "window", -1);
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Lane& lane = lanes[static_cast<std::size_t>(c)];
      lane.completions.assign(num_jobs, 0);
      try {
        for (std::int64_t k = c; k < total; k += kConnections) {
          const std::size_t job =
              SplitMix64(seed ^ SplitMix64(first_request +
                                           static_cast<std::uint64_t>(k))) %
              num_jobs;
          // Timed from when the request was due, not when it was sent: a
          // stalled response delays the requests queued behind it, and
          // that wait is charged to them.
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k) / kRequestRate));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const server::PlanWireResponse response =
              clients[static_cast<std::size_t>(c)]->Plan(requests[job]);
          const auto done = Clock::now();
          lane.latency_s.push_back(
              std::chrono::duration<double>(done - due).count());
          lane.late_s.push_back(
              std::chrono::duration<double>(sent - due).count());
          ++lane.completions[job];
          tally->Check(response.status == server::WireStatus::kOk,
                       response.body, oracle.texts[job]);
          if (tracer != nullptr) {
            tracer->Record("request", window.id(), due, done, c + 1);
          }
        }
      } catch (const std::exception& e) {
        // The lane stops; the failure is counted, never swallowed.
        tally->Check(false, "", "");
        std::fprintf(stderr, "e2e_bench: load lane %d: %s\n", c, e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadWindow out;
  out.seconds = SecondsSince(start);
  out.completions.assign(num_jobs, 0);
  for (const Lane& lane : lanes) {
    out.latency_s.insert(out.latency_s.end(), lane.latency_s.begin(),
                         lane.latency_s.end());
    out.late_s.insert(out.late_s.end(), lane.late_s.begin(), lane.late_s.end());
    for (std::size_t j = 0; j < num_jobs; ++j) {
      out.completions[j] += lane.completions[j];
    }
  }
  return out;
}

}  // namespace p2::e2e
