// p2_client: loadgen + end-to-end determinism oracle for p2_server.
// `p2_client --help` lists the flags; a bad flag exits 2.
//
// Replays the experiment grid (or one config) over N concurrent
// connections. With --check-identical it first computes every config's
// CanonicalResultText on an in-process single-threaded PlannerService and
// asserts each OK response body is byte-identical — the wire, the server's
// concurrency, and the shared-cache interleavings must not change a single
// byte of any plan. --deadline-storm=K gives every Kth request a 1 ms
// deadline, so a fraction of requests abort mid-flight (DEADLINE_EXCEEDED);
// the oracle then also proves survivors are unperturbed by their
// neighbours' aborts. Exit 0 iff no protocol errors, no body mismatches,
// and (under --check-identical) at least one body was compared.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "engine/cli.h"
#include "engine/experiment_grid.h"
#include "engine/report.h"
#include "engine/service.h"
#include "server/planner_client.h"

namespace {

struct Tally {
  std::mutex mu;
  long long ok = 0;
  long long deadline_exceeded = 0;
  long long cancelled = 0;
  long long rejected = 0;
  long long failures = 0;   ///< unexpected statuses / transport errors
  long long mismatches = 0; ///< OK bodies differing from the serial reference
  std::vector<double> latencies;  ///< per-request wall-clock (seconds)
};

/// Exact rank-based percentile over sorted samples: the value at rank
/// ceil(p/100 * n), clamped to [1, n].
double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  std::string port_file;
  std::string system = "a100";
  int nodes = 2;
  bool grid = false;
  std::vector<std::int64_t> axes;
  std::vector<int> reduce;
  int concurrency = 1;
  bool check_identical = false;
  std::int64_t deadline_storm = 0;
  int top_k = -1;
  std::int64_t max_programs = 0;
  bool want_stats = false;
  bool want_shutdown = false;
  const std::vector<p2::Flag> flags = {
      {"port", &port, "the server's TCP port on 127.0.0.1", 1, 65535},
      {"port-file", &port_file, "poll PATH (~30 s) for the server's port"},
      p2::engine::SystemFlag(&system),
      p2::engine::NodesFlag(&nodes),
      {"grid", &grid, "replay the system's whole experiment grid"},
      {"axes", &axes, "plan one config with these axis sizes", 1},
      {"reduce", &reduce, "the config's reduction axis indices", 0},
      {"concurrency", &concurrency, "replay over N connections (default 1)",
       1, p2::kMaxFlagThreads},
      {"check-identical", &check_identical,
       "require every OK body to equal a serial reference"},
      {"deadline-storm", &deadline_storm,
       "give every Kth request a 1 ms deadline (0: none)", 0},
      // Unlike p2_plan's --top-k=0, measure_top_k=0 is a real guided mode.
      {"top-k", &top_k,
       "measure the top-k programs; -1 (default): server's", -1},
      {"max-programs", &max_programs,
       "cap each hierarchy's programs; 0 (default): server's", 0},
      {"stats", &want_stats, "print the server's stats JSON"},
      {"shutdown", &want_shutdown, "drain and stop the server"},
  };
  std::string error;
  if (!p2::ParseFlags({argv + 1, argv + argc}, flags,
                      "p2_client: loadgen + determinism oracle for p2_server\n"
                      "\n"
                      "usage: p2_client --port=N|--port-file=PATH "
                      "[--grid|--axes=A,B --reduce=I] [FLAGS]\n",
                      nullptr, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (port < 0 && !port_file.empty()) {
    port = p2::server::PortFromFile(port_file);
  }
  if (port <= 0) {
    std::fprintf(stderr, "need --port=N or a readable --port-file\n");
    return 2;
  }

  const p2::topology::Cluster cluster =
      p2::engine::ClusterFromPreset(p2::engine::TopologyPreset{system, nodes});
  std::vector<p2::engine::ExperimentConfig> configs;
  if (grid) {
    configs = p2::engine::FullGrid(cluster);
  } else if (axes.empty()) {
    // A stats- or shutdown-only invocation needs no plan work at all.
    if (!want_stats && !want_shutdown) {
      std::fprintf(stderr, "need --grid or --axes=... [--reduce=...]\n");
      return 2;
    }
  } else {
    configs.push_back(p2::engine::ExperimentConfig{axes, reduce});
  }

  // The serial reference: same requests, one in-process service, one
  // thread. Its CanonicalResultText per config is what every OK response
  // body must equal byte-for-byte.
  std::vector<std::string> expected(configs.size());
  if (check_identical) {
    p2::engine::PlannerService reference;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      p2::engine::PlanRequest request;
      request.axes = configs[i].axes;
      request.reduction_axes = configs[i].reduction_axes;
      request.measure_top_k = top_k;
      request.max_programs = max_programs;
      request.cluster = cluster;
      expected[i] =
          p2::engine::CanonicalResultText(reference.Plan(std::move(request)));
    }
  }

  Tally tally;
  std::atomic<bool> abort_run{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (int t = 0; t < concurrency; ++t) {
    workers.emplace_back([&, t] {
      try {
        p2::server::PlannerClient client(port);
        for (std::size_t i = 0; i < configs.size(); ++i) {
          if (abort_run.load(std::memory_order_relaxed)) return;
          p2::server::PlanWireRequest request;
          request.preset_system = system;
          request.preset_nodes = nodes;
          request.axes = configs[i].axes;
          request.reduction_axes = configs[i].reduction_axes;
          request.measure_top_k = top_k;
          request.max_programs = max_programs;
          const bool stormed =
              deadline_storm > 0 &&
              static_cast<long long>(i) % deadline_storm == 0;
          if (stormed) request.deadline_ms = 1;
          const auto sent = std::chrono::steady_clock::now();
          const p2::server::PlanWireResponse response = client.Plan(request);
          const double elapsed = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - sent)
                                     .count();
          std::lock_guard<std::mutex> lock(tally.mu);
          tally.latencies.push_back(elapsed);
          switch (response.status) {
            case p2::server::WireStatus::kOk:
              ++tally.ok;
              if (check_identical && response.body != expected[i]) {
                ++tally.mismatches;
                std::fprintf(stderr,
                             "BODY MISMATCH thread %d config %zu (%s)\n", t,
                             i, configs[i].ToString().c_str());
              }
              break;
            case p2::server::WireStatus::kDeadlineExceeded:
              ++tally.deadline_exceeded;
              if (!stormed) ++tally.failures;
              break;
            case p2::server::WireStatus::kCancelled:
              ++tally.cancelled;
              if (!stormed) ++tally.failures;
              break;
            case p2::server::WireStatus::kResourceExhausted:
              // Admission-capped servers shed load by design; counted, not
              // failed.
              ++tally.rejected;
              break;
            default:
              ++tally.failures;
              std::fprintf(stderr, "thread %d config %zu: %s (%s)\n", t, i,
                           p2::server::ToString(response.status),
                           response.message.c_str());
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(tally.mu);
        ++tally.failures;
        std::fprintf(stderr, "thread %d: %s\n", t, e.what());
        abort_run.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  if (want_stats) {
    try {
      p2::server::PlannerClient client(port);
      const auto stats = client.Stats();
      if (stats.status != p2::server::WireStatus::kOk) {
        std::fprintf(stderr, "stats request failed: %s\n", stats.json.c_str());
        ++tally.failures;
      } else {
        std::printf("%s\n", stats.json.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stats connection failed: %s\n", e.what());
      ++tally.failures;
    }
  }
  if (want_shutdown) {
    try {
      p2::server::PlannerClient client(port);
      if (!client.Shutdown()) {
        std::fprintf(stderr, "shutdown not acknowledged\n");
        ++tally.failures;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shutdown connection failed: %s\n", e.what());
      ++tally.failures;
    }
  }

  std::fprintf(stderr,
               "p2_client: %lld ok, %lld deadline-exceeded, %lld cancelled, "
               "%lld rejected, %lld mismatches, %lld failures\n",
               tally.ok, tally.deadline_exceeded, tally.cancelled,
               tally.rejected, tally.mismatches, tally.failures);
  if (!tally.latencies.empty()) {
    // Exact client-observed percentiles (all completed requests, whatever
    // their status — a shed or deadline-exceeded request still cost its
    // caller that wall-clock).
    std::sort(tally.latencies.begin(), tally.latencies.end());
    std::fprintf(stderr,
                 "p2_client latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms "
                 "(%zu requests)\n",
                 PercentileOfSorted(tally.latencies, 50.0) * 1e3,
                 PercentileOfSorted(tally.latencies, 95.0) * 1e3,
                 PercentileOfSorted(tally.latencies, 99.0) * 1e3,
                 tally.latencies.size());
  }
  if (tally.failures > 0 || tally.mismatches > 0) return 1;
  if (check_identical && tally.ok == 0) {
    std::fprintf(stderr, "--check-identical compared zero bodies\n");
    return 1;
  }
  return 0;
}
