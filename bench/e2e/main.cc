// e2e_bench: one workload of the end-to-end planner benchmark (README.md).
//
//   e2e_bench --workload=NAME --write-oracle=PATH
//   e2e_bench --workload=NAME --oracle=PATH --seed=N --seconds=S
//             --work-dir=DIR [--server-bin=PATH] [--trace-out=PATH]
//
// The first form computes the serial single-thread reference of every job
// and writes it to PATH. The second runs the workload for about S seconds
// and prints one JSON object: the end-to-end metrics, or with --trace-out
// the per-layer metrics of a traced run whose spans are written to PATH as
// Chrome trace-event JSON. Every result is checked against the reference;
// the exit code is 0 only when all of them matched.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "engine/json_export.h"
#include "engine/report.h"
#include "server/planner_client.h"

namespace p2::e2e {
namespace {

/// serve_wire discards this much open-loop traffic after start-up: the
/// first window after a server starts reads a much higher tail.
constexpr double kWarmupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string oracle;
  std::string write_oracle;
  std::string work_dir = ".";
  std::string server_bin;
  std::string trace_out;
};

struct Report {
  Metrics metrics;
  Tally tally;
  std::string error;
};

/// Closed-loop passes for about `seconds` (at least two).
struct PassWindow {
  std::vector<double> walls;
  std::vector<double> latency_s;  ///< every request of every pass
  PassOutput last;
};

/// Runs a set-up at least three times, and until two seconds have been
/// spent (at most 50 times), so that setup_s is a median over enough
/// samples to ride out a cold first one. `once` returns the seconds of one
/// set-up.
std::vector<double> RepeatSetup(const std::function<double()>& once) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 3 || (total < 2.0 && seconds.size() < 50)) {
    seconds.push_back(once());
    total += seconds.back();
  }
  return seconds;
}

void AddSetup(const std::vector<double>& seconds, Metrics* m) {
  (*m)["setup_s"] = {Percentile(seconds, 50.0), "s",
                     static_cast<std::int64_t>(seconds.size())};
}

void AddQuality(const Workload& workload, const Oracle& oracle, Metrics* m) {
  const auto n = static_cast<std::int64_t>(workload.jobs.size());
  const Quality& q = oracle.quality;
  (*m)["outperform_frac"] = {q.outperform_frac, "share", n};
  (*m)["best_speedup_geomean"] = {q.best_speedup_geomean, "x", n};
  (*m)["model_top1_acc"] = {q.model_top1_acc, "share", n};
  (*m)["model_top10_acc"] = {q.model_top10_acc, "share", n};
}

void AddLatency(const std::vector<double>& latency_s, Metrics* m) {
  const auto n = static_cast<std::int64_t>(latency_s.size());
  (*m)["latency_p50_ms"] = {Percentile(latency_s, 50.0) * 1e3, "ms", n};
  (*m)["latency_p90_ms"] = {Percentile(latency_s, 90.0) * 1e3, "ms", n};
}

/// Counters the per-layer view takes from the planner's public stats().
void AddCounters(const engine::SynthesisCacheStats& cache,
                 const server::PlannerServerStats& plane, Metrics* m) {
  const auto count = [m](const char* name, std::int64_t value) {
    (*m)[name] = {static_cast<double>(value), "count", 1};
  };
  count("cache.hits", cache.hits);
  count("cache.misses", cache.misses);
  count("cache.deferred_lookups", cache.deferred_lookups);
  count("cache.remote_hits", cache.remote_hits);
  count("cache.remote_errors", cache.remote_errors);
  const std::int64_t lookups = cache.hits + cache.misses;
  (*m)["cache.hit_ratio"] = {
      lookups > 0 ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
                  : 0.0,
      "share", lookups};
  count("plane.lookups", plane.cache_lookups);
  count("plane.grants", plane.cache_grants);
  count("plane.retries", plane.cache_retries);
  count("plane.publishes", plane.cache_publishes);
}

/// The integer after "key": in the first "object":{...} of a stats
/// document (server/planner_server.h's StatsJson); 0 when absent.
std::int64_t JsonCount(const std::string& json, const std::string& object,
                       const std::string& key) {
  std::size_t at = json.find("\"" + object + "\":{");
  if (at == std::string::npos) return 0;
  at = json.find("\"" + key + "\":", at);
  if (at == std::string::npos) return 0;
  return std::strtoll(json.c_str() + at + key.size() + 3, nullptr, 10);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void RunGridWorkload(const Workload& workload, const Args& args,
                     const Oracle& oracle, Report* report) {
  Metrics& m = report->metrics;
  // The seed shuffles the submission order of every pass.
  std::mt19937_64 rng(args.seed);
  const auto shuffled = [&] {
    std::vector<std::size_t> order(workload.jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    return order;
  };
  const std::string cache_file =
      workload.disk_cache ? args.work_dir + "/" + workload.name + "-" +
                                std::to_string(::getpid()) + ".p2sc"
                          : "";
  const auto run_window = [&](double seconds, Tracer* tracer) {
    PassWindow window;
    const auto start = Clock::now();
    while (window.walls.size() < 2 ||
           SecondsSince(start) + Percentile(window.walls, 50.0) <= seconds) {
      window.last = PassOutput{};  // RunPass starts from a trimmed heap
      window.last = RunPass(workload, shuffled(), cache_file, false, oracle,
                            &report->tally, tracer);
      window.walls.push_back(window.last.wall_s);
      window.latency_s.insert(window.latency_s.end(),
                              window.last.latency_s.begin(),
                              window.last.latency_s.end());
    }
    return window;
  };

  // Set-up is a cold pass in grid order, as p2_plan --grid submits; on a
  // disk-cache workload it also writes the P2SC file every timed pass loads.
  std::vector<std::size_t> grid_order(workload.jobs.size());
  std::iota(grid_order.begin(), grid_order.end(), std::size_t{0});
  const std::vector<double> setup_s = RepeatSetup([&] {
    if (!cache_file.empty()) std::filesystem::remove(cache_file);
    return RunPass(workload, grid_order, cache_file, true, oracle,
                   &report->tally, nullptr)
        .wall_s;
  });
  const bool traced = !args.trace_out.empty();
  const PassWindow untraced =
      run_window(traced ? args.seconds / 2 : args.seconds, nullptr);
  if (!traced) {
    AddLatency(untraced.latency_s, &m);
    // Plans per second of the median pass: a pass plans every job once.
    m["plans_per_s"] = {static_cast<double>(workload.jobs.size()) /
                            Percentile(untraced.walls, 50.0),
                        "1/s", static_cast<std::int64_t>(untraced.walls.size())};
    AddSetup(setup_s, &m);
    AddQuality(workload, oracle, &m);
  } else {
    Tracer tracer;
    const PassWindow window = run_window(args.seconds / 2, &tracer);
    const std::string image = cache_file.empty() ? "" : ReadFile(cache_file);
    const Replay replay =
        ReplayLayers(workload, window.last.results, oracle, image, tracer);
    m.insert(replay.metrics.begin(), replay.metrics.end());
    if (replay.reproduced) {
      MeasureMicrobenches(workload, window.last.results, oracle, replay, image,
                          &report->tally, &m);
    } else {
      report->error = replay.error;
    }
    engine::SynthesisCacheStats cache;
    for (const engine::PlannerServiceStats& stats : window.last.service_stats) {
      cache.hits += stats.cache.hits;
      cache.misses += stats.cache.misses;
      cache.deferred_lookups += stats.cache.deferred_lookups;
      cache.remote_hits += stats.cache.remote_hits;
      cache.remote_errors += stats.cache.remote_errors;
    }
    AddCounters(cache, window.last.plane, &m);
    const double pass_s = Percentile(window.walls, 50.0);
    double layer_s = replay.pass_layer_s;
    for (const double s : replay.job_layer_s) layer_s += s;
    m["pool.busy_share"] = {
        layer_s / (pass_s * workload.TotalThreads()), "share",
        static_cast<std::int64_t>(window.walls.size())};
    m["loadgen.late_p90_ms"] = {0.0, "ms", 0};  // a closed loop is never late
    m["trace.overhead_share"] = {
        pass_s / Percentile(untraced.walls, 50.0) - 1.0, "share",
        static_cast<std::int64_t>(window.walls.size())};
    if (!tracer.WriteChromeJson(args.trace_out)) {
      report->error = "cannot write " + args.trace_out;
    }
  }
  if (!cache_file.empty()) std::filesystem::remove(cache_file);
}

void RunWireWorkload(const Workload& workload, const Args& args,
                     const Oracle& oracle, Report* report) {
  Metrics& m = report->metrics;
  Tally& tally = report->tally;
  // Set-up: start the server and plan every distinct request once, cold,
  // filling the cache the timed traffic hits. The last server stays up.
  std::unique_ptr<ServerProcess> server;
  const std::vector<double> setup_s = RepeatSetup([&] {
    if (server != nullptr) server->Stop();
    const auto start = Clock::now();
    server = std::make_unique<ServerProcess>(args.server_bin, args.work_dir,
                                             workload.threads);
    server::PlannerClient client(server->port());
    for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
      const server::PlanWireResponse response =
          client.Plan(WireRequestFor(workload, workload.jobs[j]));
      tally.Check(response.status == server::WireStatus::kOk, response.body,
                  oracle.texts[j]);
    }
    return SecondsSince(start);
  });
  // Each window draws its own stretch of the seeded request sequence.
  constexpr std::uint64_t kStretch = std::uint64_t{1} << 40;
  RunOpenLoop(server->port(), workload, oracle, args.seed, 0, kWarmupSeconds,
              &tally, nullptr);
  const bool traced = !args.trace_out.empty();
  const LoadWindow untraced =
      RunOpenLoop(server->port(), workload, oracle, args.seed, kStretch,
                  traced ? args.seconds / 2 : args.seconds, &tally, nullptr);
  if (!traced) {
    const long rss_kb = server->Stop();
    if (rss_kb < 0) report->error = "p2_server did not shut down cleanly";
    AddLatency(untraced.latency_s, &m);
    m["plans_per_s"] = {
        static_cast<double>(untraced.latency_s.size()) / untraced.seconds,
        "1/s", static_cast<std::int64_t>(untraced.latency_s.size())};
    AddSetup(setup_s, &m);
    m["peak_rss_mb"] = {static_cast<double>(rss_kb) / 1024.0, "MB", 1};
    AddQuality(workload, oracle, &m);
    return;
  }

  Tracer tracer;
  const auto stats_json = [&] {
    server::PlannerClient client(server->port());
    return client.Stats().json;
  };
  const std::string before = stats_json();
  const LoadWindow window =
      RunOpenLoop(server->port(), workload, oracle, args.seed, 2 * kStretch,
                  args.seconds / 2, &tally, &tracer);
  const std::string after = stats_json();
  if (server->Stop() < 0) report->error = "p2_server did not shut down cleanly";
  const auto delta = [&](const char* object, const char* key) {
    return JsonCount(after, object, key) - JsonCount(before, object, key);
  };
  engine::SynthesisCacheStats cache;
  cache.hits = delta("cache", "hits");
  cache.misses = delta("cache", "misses");
  cache.deferred_lookups = delta("cache", "deferred_lookups");
  cache.remote_hits = delta("cache", "remote_hits");
  cache.remote_errors = delta("cache", "remote_errors");
  server::PlannerServerStats plane;
  plane.cache_lookups = delta("server", "cache_lookups");
  plane.cache_grants = delta("server", "cache_grants");
  plane.cache_retries = delta("server", "cache_retries");
  plane.cache_publishes = delta("server", "cache_publishes");
  AddCounters(cache, plane, &m);

  // The replay needs the service's results; the wire only carries their
  // text, so plan them in-process exactly as the oracle did.
  engine::PlannerServiceOptions options;
  options.engine = workload.engine;
  engine::PlannerService service(options);
  std::vector<engine::ExperimentResult> results;
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    results.push_back(service.Plan(RequestFor(workload, workload.jobs[j])));
    tally.Check(true, engine::CanonicalResultText(results.back()),
                oracle.texts[j]);
  }
  const Replay replay = ReplayLayers(workload, results, oracle, "", tracer);
  m.insert(replay.metrics.begin(), replay.metrics.end());
  if (replay.reproduced) {
    MeasureMicrobenches(workload, results, oracle, replay, "", &tally, &m);
  } else {
    report->error = replay.error;
  }
  double busy_s = 0.0;
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    busy_s += static_cast<double>(window.completions[j]) * replay.job_layer_s[j];
  }
  m["pool.busy_share"] = {busy_s / (window.seconds * workload.TotalThreads()),
                          "share",
                          static_cast<std::int64_t>(window.latency_s.size())};
  m["loadgen.late_p90_ms"] = {Percentile(window.late_s, 90.0) * 1e3, "ms",
                              static_cast<std::int64_t>(window.late_s.size())};
  m["trace.overhead_share"] = {Percentile(window.latency_s, 50.0) /
                                       Percentile(untraced.latency_s, 50.0) -
                                   1.0,
                               "share",
                               static_cast<std::int64_t>(window.latency_s.size())};
  if (!tracer.WriteChromeJson(args.trace_out)) {
    report->error = "cannot write " + args.trace_out;
  }
}

void PrintReport(const Workload& workload, const Report& report) {
  const std::int64_t attempted = report.tally.attempted.load();
  const std::int64_t failed = report.tally.failed.load();
  const bool correct = attempted > 0 && failed == 0 && report.error.empty();
  std::printf(
      "{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"error\":\"%s\",\"metrics\":{",
      workload.name.c_str(), correct ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      engine::JsonEscape(report.error).c_str());
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%lld}",
                first ? "" : ",", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str(), static_cast<long long>(metric.n));
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (key == "--oracle") {
      args->oracle = value;
    } else if (key == "--write-oracle") {
      args->write_oracle = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--server-bin") {
      args->server_bin = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

}  // namespace
}  // namespace p2::e2e

int main(int argc, char** argv) {
  using namespace p2::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=NAME (--write-oracle=PATH | "
                 "--oracle=PATH --seed=N --seconds=S --work-dir=DIR "
                 "[--server-bin=PATH] [--trace-out=PATH])\n");
    return 2;
  }
  try {
    const Workload workload = MakeWorkload(args.workload);
    if (!args.write_oracle.empty()) {
      return WriteOracle(args.write_oracle, workload, ComputeOracle(workload))
                 ? 0
                 : 1;
    }
    Oracle oracle;
    std::string error;
    if (!ReadOracle(args.oracle, workload, &oracle, &error)) {
      std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
      return 1;
    }
    Report report;
    if (workload.frontend == Frontend::kWire) {
      RunWireWorkload(workload, args, oracle, &report);
    } else {
      RunGridWorkload(workload, args, oracle, &report);
    }
    PrintReport(workload, report);
    return report.tally.failed.load() == 0 && report.error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
