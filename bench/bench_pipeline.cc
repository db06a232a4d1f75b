// Benchmarks the staged evaluation pipeline (ISSUE 1) against the serial
// monolith it replaced, on a Table-3-style grid: one A100 system, several
// axis configurations, every reduction axis of each. Six variants; all but
// the serial reference run through a PlannerService (ISSUE 4) — the
// process-wide owner of the shared synthesis cache, worker pool and
// persistent store:
//
//   serial        — per-placement Engine::EvaluatePlacement, one thread:
//                   every placement synthesizes its own hierarchy, with no
//                   cache, pool or service (the cacheless reference; the
//                   pipeline itself has no cacheless mode)
//   cached        — synthesize once per hierarchy signature, one thread
//   cached+par    — signature cache plus a shared worker pool
//   warm(disk)    — second planner process (ISSUE 3): the whole grid served
//                   from a cache file a previous run persisted, so synthesis
//                   wall-clock collapses to the cost of map lookups
//   concurrent(N) — ISSUE 4: N overlapping queries Submit()ted to one shared
//                   service, their work items interleaved on one pool, with
//                   cross-query signature dedup (including in-flight dedup:
//                   two queries racing on one uncached signature synthesize
//                   it once)
//   multi-tenant  — ISSUE 5: the same grid for TWO distinct clusters (a
//                   4-node A100 system and an 8-node V100 system, both 64
//                   devices) through ONE multi-tenant service; their
//                   reduction factorizations overlap, so the shared cache
//                   must synthesize strictly fewer times in total than two
//                   independent single-cluster services — with per-request
//                   results byte-identical to the dedicated services
//
// Plus a cancel-storm smoke (ISSUE 7): the grid submitted concurrently with
// a deterministic ~50% of the handles cancelled mid-flight — survivors must
// stay byte-identical to serial (cancellation never perturbs its neighbors).
//
// And a contended tail-latency gate: every worker starts on a hot
// config whose first synthesis is fault-stalled for a long beat, with
// independent background traffic queued behind. Deferring workers run that
// traffic during the stall instead of sleeping through it, so the stall
// must not stack onto the queue: the run must actually defer
// (deferred_lookups > 0), stay byte-identical to serial, and keep its exact
// client-side p99 within an absolute bound — the stall, plus the p99 of the
// hot copies planned alone (stall disarmed, no background) in the same run,
// plus a fixed slack. Exact per-request latencies (sorted, rank-based) feed
// the gate — histogram buckets are too coarse for it.
//
// And a sharded scale-out gate (ISSUE 10): the grid split by index across 2
// worker services behind an in-process cache plane (a PlannerServer in
// cache-server mode, each worker consulting it over the framed-TCP
// RemoteCacheBackend). The workers' combined synthesis-run total must stay
// strictly below 2 independent full-grid runs, at least one signature must
// be served off the plane, and the shard blocks — merged in reverse order —
// must be byte-identical to the serial rendering of the whole grid.
//
// Everything is also written machine-readably to BENCH_pipeline.json
// (override the path with --json=PATH). A path that cannot be opened exits
// 2 before any variant runs; a failed final write exits 1.
//
// Reported per variant: wall-clock, placements evaluated, unique synthesis
// hierarchies, cache hit rate and the re-synthesis time the cache avoided.
// Prediction-only (like the paper's simulator-guided sweep): the grid's cost
// is dominated by syntax-guided synthesis, which is exactly what the cache
// removes. Exits non-zero if any variant's output diverges from serial, if
// the warm run fails to cut synthesis wall-clock by >= 90%, or if the
// concurrent variant fails its dedup gate (strictly fewer total synthesis
// runs than the same queries on independent services).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <filesystem>
#include <future>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/format.h"
#include "engine/experiment_grid.h"
#include "engine/report.h"
#include "engine/service.h"
#include "server/planner_server.h"
#include "server/remote_cache_client.h"
#include "topology/presets.h"

namespace {

using p2::FormatSeconds;
using p2::TextTable;
using p2::engine::CanonicalResultText;
using p2::engine::Engine;
using p2::engine::EngineOptions;
using p2::engine::ExperimentResult;
using p2::engine::PlanCancelled;
using p2::engine::PlanHandle;
using p2::engine::PlannerService;
using p2::engine::PlannerServiceOptions;
using p2::engine::PlanRequest;

struct GridConfig {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
};

// The options of a service planning under `engine`'s knobs. Every service
// variant plans on its own registry-built engine for the cluster its
// requests name, equal to the serial variant's `engine`.
PlannerServiceOptions ServiceOptionsFor(const Engine& engine,
                                        PlannerServiceOptions options = {}) {
  options.engine = engine.options();
  return options;
}

PlanRequest RequestFor(const p2::topology::Cluster& cluster,
                       const GridConfig& cfg) {
  PlanRequest request;
  request.axes = cfg.axes;
  request.reduction_axes = cfg.reduction_axes;
  request.cluster = cluster;
  return request;
}

// A Table-3-style grid on the racked (three-level) A100 system: several axis
// configurations, all reducing over a 16-wide axis. Under kReductionAxes the
// synthesis hierarchy of a placement is the reduction axis's factorization
// over the [rack node gpu] levels — the same four signatures recur across
// every experiment of the grid, which is exactly the reuse the cache mines
// (and, for the concurrent variant, the cross-query dedup the shared
// service mines).
std::vector<GridConfig> MakeGrid() {
  return {
      {{16, 4}, {0}},    {{16, 2, 2}, {0}}, {{4, 16}, {1}},
      {{2, 16, 2}, {1}}, {{2, 2, 16}, {2}}, {{8, 4, 2}, {0}},
  };
}

struct VariantResult {
  double seconds = 0.0;
  double synth_seconds = 0.0;  ///< wall-clock actually spent synthesizing
  std::int64_t placements = 0;
  std::int64_t unique = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t disk_hits = 0;
  double saved_seconds = 0.0;
};

void Accumulate(const ExperimentResult& result, VariantResult* v) {
  v->placements += result.pipeline.num_placements;
  v->unique += result.pipeline.unique_hierarchies;
  v->hits += result.pipeline.cache.hits;
  v->misses += result.pipeline.cache.misses;
  v->disk_hits += result.pipeline.cache.disk_hits;
  v->saved_seconds += result.pipeline.cache.seconds_saved;
  v->synth_seconds += result.pipeline.synthesis_seconds;
}

// The serial reference: each config's placements evaluated one by one
// through Engine::EvaluatePlacement, which synthesizes every placement's
// hierarchy afresh.
VariantResult RunSerial(const Engine& engine,
                        const std::vector<GridConfig>& grid,
                        std::vector<ExperimentResult>* results) {
  VariantResult v;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& cfg : grid) {
    ExperimentResult result;
    result.axes = cfg.axes;
    result.reduction_axes = cfg.reduction_axes;
    result.algo = engine.options().algo;
    result.payload_bytes = engine.payload_bytes();
    for (const auto& matrix : engine.SynthesizePlacements(cfg.axes)) {
      result.placements.push_back(
          engine.EvaluatePlacement(matrix, cfg.reduction_axes));
    }
    const auto n = static_cast<std::int64_t>(result.placements.size());
    v.placements += n;
    v.unique += n;  // no dedup: one synthesis per placement
    v.synth_seconds += result.TotalSynthesisSeconds();
    results->push_back(std::move(result));
  }
  v.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return v;
}

VariantResult RunGrid(const Engine& engine,
                      const PlannerServiceOptions& options,
                      const std::vector<GridConfig>& grid,
                      std::vector<ExperimentResult>* results) {
  VariantResult v;
  // One service for the whole grid: the shared cache carries synthesis
  // results across experiments (e.g. reduce=0 of [8 2 2 2] and of [16 2 2]
  // can share hierarchies).
  PlannerService service(ServiceOptionsFor(engine, options));
  const auto start = std::chrono::steady_clock::now();
  for (const auto& cfg : grid) {
    ExperimentResult result = service.Plan(RequestFor(engine.cluster(), cfg));
    Accumulate(result, &v);
    if (results != nullptr) results->push_back(std::move(result));
  }
  v.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // No-op unless options.cache_file is set (and not readonly): persists the
  // grid's synthesis results for the warm-from-disk variant.
  std::string error;
  if (!service.SaveCache(&error)) {
    std::fprintf(stderr, "cache save failed: %s\n", error.c_str());
  }
  return v;
}

// The concurrent-queries variant: all configs Submit()ted at once to one
// shared service, collected in submission order.
VariantResult RunGridConcurrently(const Engine& engine, int threads,
                                  const std::vector<GridConfig>& grid,
                                  std::vector<ExperimentResult>* results,
                                  std::int64_t* total_misses) {
  VariantResult v;
  PlannerService service(
      ServiceOptionsFor(engine, PlannerServiceOptions{.threads = threads}));
  const auto start = std::chrono::steady_clock::now();
  std::vector<PlanHandle> futures;
  futures.reserve(grid.size());
  for (const auto& cfg : grid) {
    futures.push_back(service.Submit(RequestFor(engine.cluster(), cfg)));
  }
  for (auto& future : futures) {
    ExperimentResult result = future.get();
    Accumulate(result, &v);
    if (results != nullptr) results->push_back(std::move(result));
  }
  v.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  *total_misses = service.stats().cache.misses;
  return v;
}

// The multi-tenant variant: both clusters' grids Submit()ted at once to one
// shared service, each request naming its cluster.
VariantResult RunGridMultiTenant(const std::vector<p2::topology::Cluster>& clusters,
                                 const EngineOptions& engine_options,
                                 int threads,
                                 const std::vector<GridConfig>& grid,
                                 std::vector<ExperimentResult>* results,
                                 std::int64_t* total_misses,
                                 std::int64_t* cross_tenant_hits) {
  VariantResult v;
  PlannerServiceOptions options;
  options.threads = threads;
  options.engine = engine_options;
  PlannerService service(options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<PlanHandle> futures;
  futures.reserve(clusters.size() * grid.size());
  for (const auto& cluster : clusters) {
    for (const auto& cfg : grid) {
      futures.push_back(service.Submit(RequestFor(cluster, cfg)));
    }
  }
  for (auto& future : futures) {
    ExperimentResult result = future.get();
    Accumulate(result, &v);
    if (results != nullptr) results->push_back(std::move(result));
  }
  v.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto stats = service.stats();
  *total_misses = stats.cache.misses;
  *cross_tenant_hits = stats.cache.cross_tenant_hits;
  return v;
}

// The contended tail-latency scenario. It isolates what a pool
// thread does while a signature it needs is being synthesized by someone
// else.
//
//   - `copies` copies of the grid's FIRST config go in first — at least as
//     many as there are threads, so every worker starts on the hot config.
//   - A fault hook stalls exactly ONE synthesis layer (the first to run,
//     necessarily a hot-config signature) for a long beat. The owner sleeps
//     in it; every other hot copy promptly finds that signature in flight.
//   - Two copies each of the remaining configs queue behind as independent
//     background traffic.
//
// The non-owner workers register continuations and run the background
// requests DURING the stall, so the tail is the stall itself, not the stall
// plus everything queued behind it. A scheduler that parked those workers
// would instead add the background requests' service time on top.
//
// One collector thread per handle records the exact submit→complete latency
// the moment its request resolves; the p50/p99 are rank-based over the
// sorted exact samples (the gate needs finer resolution than the service
// histogram's log2 buckets). With `stall` false and a one-config `grid` the
// hook stays disarmed and nothing queues behind: the hot copies alone on a
// fresh service, the uncontended reference. A scheduler that parked its
// workers through the stall would add the background traffic's service
// time on top of it, which that reference leaves out.
constexpr int kContendedStallMs = 500;
/// Allowance on top of stall + the hot config's uncontended p99 for
/// scheduling noise. Over 10 runs of `bench_pipeline 4` (Release, 4-core
/// x86 Linux), contended p99 - stall - hot uncontended p99 ranged from
/// -51.0 ms to -34.1 ms; the slack is that spread's width (16.9 ms),
/// rounded up.
constexpr double kContendedSlackMs = 20.0;

struct ContendedResult {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  std::int64_t deferred_lookups = 0;
  bool identical = true;  ///< every output byte-identical to serial
};

ContendedResult RunContended(const Engine& engine, int threads, bool stall,
                             const std::vector<GridConfig>& grid, int copies,
                             const std::vector<ExperimentResult>& serial) {
  ContendedResult r;
  PlannerService service(
      ServiceOptionsFor(engine, PlannerServiceOptions{.threads = threads}));
  // Armed-once: only the FIRST frontier layer to synthesize stalls — the
  // hot-signature owner. (exchange first, so the sleeping call has already
  // disarmed the hook for everyone else.)
  auto armed = std::make_shared<std::atomic<bool>>(stall);
  p2::FaultScope stall_hook([armed](std::string_view point) {
    if (point == "synth.layer" && armed->exchange(false)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kContendedStallMs));
    }
  });
  // `copies` hot requests (grid[0]) first, then two copies of each other
  // config as background traffic.
  std::vector<std::size_t> config_of;
  for (int c = 0; c < copies; ++c) config_of.push_back(0);
  for (std::size_t g = 1; g < grid.size(); ++g) {
    config_of.push_back(g);
    config_of.push_back(g);
  }
  const std::size_t n = config_of.size();
  std::vector<PlanHandle> handles;
  handles.reserve(n);
  std::vector<std::chrono::steady_clock::time_point> submitted(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PlanRequest request =
        RequestFor(engine.cluster(), grid[config_of[i]]);
    submitted[handles.size()] = std::chrono::steady_clock::now();
    handles.push_back(service.Submit(request));
  }
  std::vector<double> latencies(n);
  std::vector<ExperimentResult> results(n);
  std::vector<std::thread> collectors;
  collectors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    collectors.emplace_back([&, i] {
      results[i] = handles[i].get();
      latencies[i] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - submitted[i])
                         .count();
    });
  }
  for (auto& t : collectors) t.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (CanonicalResultText(results[i]) !=
        CanonicalResultText(serial[config_of[i]])) {
      r.identical = false;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto rank = [&](double p) {
    std::size_t k =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (k < 1) k = 1;
    if (k > n) k = n;
    return latencies[k - 1];
  };
  r.p50_seconds = rank(0.50);
  r.p99_seconds = rank(0.99);
  const auto stats = service.stats();
  r.deferred_lookups = stats.cache.deferred_lookups;
  return r;
}

// The cancel-storm smoke (ISSUE 7): the whole grid Submit()ted at once,
// then a deterministic ~50% of the handles cancelled while the requests are
// (possibly) in flight. The robustness contract under test: cancellation
// may only abort the requests it targets — every survivor's output stays
// byte-identical to the serial reference, and no un-cancelled request may
// abort. A cancelled request that wins the race and completes anyway is
// fine (completion beats abortion); its output must then also match.
bool RunCancelStorm(const Engine& engine, int threads,
                    const std::vector<GridConfig>& grid,
                    const std::vector<ExperimentResult>& serial_results,
                    std::int64_t* cancelled_out) {
  std::mt19937 rng(20260808);
  PlannerService service(
      ServiceOptionsFor(engine, PlannerServiceOptions{.threads = threads}));
  std::vector<PlanHandle> handles;
  std::vector<bool> storm;
  for (const auto& cfg : grid) {
    handles.push_back(service.Submit(RequestFor(engine.cluster(), cfg)));
    storm.push_back(rng() % 2 == 0);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (storm[i]) handles[i].Cancel();
  }
  bool ok = true;
  std::int64_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    try {
      const ExperimentResult result = handles[i].get();
      if (CanonicalResultText(result) !=
          CanonicalResultText(serial_results[i])) {
        ok = false;
      }
    } catch (const PlanCancelled&) {
      ++cancelled;
      if (!storm[i]) ok = false;  // only targeted requests may abort
    }
  }
  *cancelled_out = cancelled;
  return ok;
}

bool SameResults(const std::vector<ExperimentResult>& a,
                 const std::vector<ExperimentResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    // Byte-identity over the deterministic portion (programs, predictions,
    // measurements) — the very contract the service's deterministic merge
    // promises at any thread count and under any request overlap.
    if (CanonicalResultText(a[e]) != CanonicalResultText(b[e])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  std::vector<std::string> positional;
  std::string error;
  if (!p2::ParseFlags({argv + 1, argv + argc},
                      {{"json", &json_path,
                        "write the JSON results to PATH\n"
                        "(default BENCH_pipeline.json)"}},
                      "bench_pipeline: the planning pipeline's variants and "
                      "gates\n"
                      "\n"
                      "usage: bench_pipeline [THREADS] [FLAGS]\n"
                      "  THREADS       the shared pool's worker threads "
                      "(default 4)\n",
                      &positional, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (positional.size() > 1) {
    std::fprintf(stderr, "THREADS given more than once\n");
    return 2;
  }
  std::int64_t threads_arg = 4;
  if (!positional.empty() &&
      !p2::ParseFlagInt(positional[0], 1, p2::kMaxFlagThreads, &threads_arg)) {
    std::fprintf(stderr, "THREADS takes integers in [1, %d], got \"%s\"\n",
                 p2::kMaxFlagThreads, positional[0].c_str());
    return 2;
  }
  const int threads = static_cast<int>(threads_arg);
  // Opened before any work starts, so a path that cannot be written costs
  // no benchmark run.
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot write %s\n", json_path.c_str());
    return 2;
  }

  EngineOptions opts;
  opts.payload_bytes = 1e9;
  opts.measure = false;  // prediction-only sweep (paper Section 5 workflow)
  const Engine engine(p2::topology::MakeRackedA100Cluster(2, 2), opts);
  const auto grid = MakeGrid();

  std::printf(
      "Pipeline bench: %zu experiments on %s\n"
      "(prediction-only; serial = per-placement Engine::EvaluatePlacement)"
      "\n\n",
      grid.size(), engine.cluster().ToString().c_str());

  std::vector<ExperimentResult> serial_results;
  const auto serial = RunSerial(engine, grid, &serial_results);

  // The cached variant doubles as the warm variant's seeder: its service
  // persists the grid's synthesis results on exit (load and save both sit
  // outside the timed region, so the timing is unaffected).
  const std::string cache_path =
      (std::filesystem::temp_directory_path() /
       ("p2_bench_pipeline_cache_" + std::to_string(::getpid()) + ".bin"))
          .string();
  PlannerServiceOptions cached_options;
  cached_options.cache_file = cache_path;
  std::vector<ExperimentResult> cached_results;
  const auto cached = RunGrid(engine, cached_options, grid, &cached_results);

  std::vector<ExperimentResult> parallel_results;
  const auto parallel =
      RunGrid(engine, PlannerServiceOptions{.threads = threads}, grid,
              &parallel_results);

  // Warm-from-disk: a fresh service (standing in for a second planner
  // process) replays the grid from the file the cached variant persisted.
  PlannerServiceOptions warm_options = cached_options;
  warm_options.cache_readonly = true;
  std::vector<ExperimentResult> warm_results;
  const auto warm = RunGrid(engine, warm_options, grid, &warm_results);
  std::filesystem::remove(cache_path);

  // ISSUE 4 acceptance setup: N overlapping queries on one shared service
  // vs the same N queries on N independent single-query services. The
  // shared run must synthesize strictly fewer times in total — every
  // signature two queries share is synthesized once between them instead of
  // once each.
  constexpr std::size_t kConcurrentQueries = 4;
  const std::vector<GridConfig> queries(grid.begin(),
                                        grid.begin() + kConcurrentQueries);
  std::int64_t independent_misses = 0;
  for (const auto& cfg : queries) {
    PlannerService service(ServiceOptionsFor(engine));
    const auto result = service.Plan(RequestFor(engine.cluster(), cfg));
    independent_misses += result.pipeline.cache.misses;
  }
  std::vector<ExperimentResult> concurrent_results;
  std::int64_t shared_misses = 0;
  const auto concurrent = RunGridConcurrently(
      engine, threads, queries, &concurrent_results, &shared_misses);

  // ISSUE 5 acceptance setup: the same grid for two DISTINCT clusters — a
  // flat 4-node A100 system ([4 16] hierarchy) and an 8-node V100 system
  // ([8 8]), both 64 devices — once through two independent single-cluster
  // services, once through one multi-tenant service. The hierarchy
  // signature is cluster-independent, so the reduction factorizations the
  // two machines share (e.g. (2,8) and (4,4) of a 16-wide axis) must dedup
  // across tenants: strictly fewer misses, nonzero cross-tenant hits,
  // per-request outputs byte-identical to the dedicated services.
  const auto a100_cluster = p2::topology::MakeA100Cluster(4);
  const auto v100_cluster = p2::topology::MakeV100Cluster(8);
  std::vector<ExperimentResult> dedicated_results;
  std::int64_t dedicated_misses = 0;
  for (const auto& cluster : {a100_cluster, v100_cluster}) {
    PlannerService service(ServiceOptionsFor(engine));
    for (const auto& cfg : grid) {
      dedicated_results.push_back(service.Plan(RequestFor(cluster, cfg)));
    }
    dedicated_misses += service.stats().cache.misses;
  }
  std::vector<ExperimentResult> tenant_results;
  std::int64_t tenant_misses = 0;
  std::int64_t cross_tenant_hits = 0;
  const auto multi_tenant = RunGridMultiTenant(
      {a100_cluster, v100_cluster}, opts, threads, grid, &tenant_results,
      &tenant_misses, &cross_tenant_hits);

  TextTable table({"Variant", "Wall(s)", "Synth(s)", "Placements", "Unique",
                   "Cache", "Disk", "Saved(s)", "Speedup"});
  auto row = [&](const char* name, const VariantResult& v) {
    char cache[64];
    std::snprintf(cache, sizeof(cache), "%lld/%lld",
                  static_cast<long long>(v.hits),
                  static_cast<long long>(v.hits + v.misses));
    table.AddRow({name, FormatSeconds(v.seconds),
                  FormatSeconds(v.synth_seconds), std::to_string(v.placements),
                  std::to_string(v.unique), cache,
                  std::to_string(v.disk_hits), FormatSeconds(v.saved_seconds),
                  p2::engine::FormatSpeedup(serial.seconds / v.seconds)});
  };
  row("serial", serial);
  row("cached", cached);
  char label[32];
  std::snprintf(label, sizeof(label), "cached+par(%d)", threads);
  row(label, parallel);
  row("warm(disk)", warm);
  std::snprintf(label, sizeof(label), "concurrent(%zu)", kConcurrentQueries);
  row(label, concurrent);
  row("multi-tenant(2)", multi_tenant);
  std::printf("%s\n", table.Render().c_str());

  const std::vector<ExperimentResult> serial_queries(
      serial_results.begin(), serial_results.begin() + kConcurrentQueries);
  const bool identical = SameResults(serial_results, cached_results) &&
                         SameResults(serial_results, parallel_results) &&
                         SameResults(serial_results, warm_results) &&
                         SameResults(serial_queries, concurrent_results) &&
                         SameResults(dedicated_results, tenant_results);
  std::printf("outputs identical across variants: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("cached+parallel speedup over serial: %.2fx\n",
              serial.seconds / parallel.seconds);

  // ISSUE 3 acceptance: warm from disk must remove >= 90% of the cached
  // run's synthesis wall-clock (every signature is a disk hit, so nothing is
  // synthesized). The absolute floor guards against flakiness when the cold
  // synthesis time is itself near the clock's resolution.
  const double reduction =
      cached.synth_seconds > 0.0
          ? 1.0 - warm.synth_seconds / cached.synth_seconds
          : 1.0;
  const bool warm_ok =
      warm.misses == 0 &&
      (reduction >= 0.9 || warm.synth_seconds < 5e-3);
  std::printf(
      "warm-from-disk synthesis time: %.4fs vs %.4fs cold (%.1f%% reduction, "
      "%lld disk hits): %s\n",
      warm.synth_seconds, cached.synth_seconds, 100.0 * reduction,
      static_cast<long long>(warm.disk_hits),
      warm_ok ? "ok" : "NO — BUG");

  // ISSUE 4 acceptance: overlapping queries through one shared service must
  // synthesize strictly fewer times in total than independent services —
  // the shared-signature dedup across queries.
  const bool concurrent_ok = shared_misses < independent_misses;
  std::printf(
      "concurrent(%zu) total synthesis runs: %lld shared vs %lld "
      "independent: %s\n",
      kConcurrentQueries, static_cast<long long>(shared_misses),
      static_cast<long long>(independent_misses),
      concurrent_ok ? "ok" : "NO — BUG");

  // ISSUE 5 acceptance: two overlapping-hierarchy tenants through one
  // multi-tenant service must synthesize strictly fewer times in total than
  // two independent single-cluster services, and the sharing must show up
  // as cross-tenant hits.
  const bool multi_tenant_ok =
      tenant_misses < dedicated_misses && cross_tenant_hits > 0;
  std::printf(
      "multi-tenant(2) total synthesis runs: %lld shared vs %lld dedicated "
      "(%lld cross-tenant hits): %s\n",
      static_cast<long long>(tenant_misses),
      static_cast<long long>(dedicated_misses),
      static_cast<long long>(cross_tenant_hits),
      multi_tenant_ok ? "ok" : "NO — BUG");

  // ISSUE 7 acceptance: random mid-flight cancellation must never perturb
  // the survivors — their outputs stay byte-identical to the serial run.
  std::int64_t storm_cancelled = 0;
  const bool storm_ok =
      RunCancelStorm(engine, threads, grid, serial_results, &storm_cancelled);
  std::printf(
      "cancel-storm: %lld/%zu requests aborted, survivors byte-identical to "
      "serial: %s\n",
      static_cast<long long>(storm_cancelled), grid.size(),
      storm_ok ? "ok" : "NO — BUG");

  // ISSUE 9 acceptance: under contention (every worker racing on one hot
  // config whose owner is stalled, independent traffic queued behind), the
  // scheduler must actually defer, stay byte-identical to serial, and keep
  // its exact client-side p99 within stall + the hot config's uncontended
  // p99 + slack.
  constexpr int kContendedThreads = 3;
  constexpr int kContendedCopies = 4;  // hot copies, >= threads
  const int kContendedBackground = 2 * (static_cast<int>(grid.size()) - 1);
  const auto uncontended =
      RunContended(engine, kContendedThreads, /*stall=*/false, {grid[0]},
                   kContendedCopies, serial_results);
  const auto deferred =
      RunContended(engine, kContendedThreads, /*stall=*/true, grid,
                   kContendedCopies, serial_results);
  const double bound_ms =
      kContendedStallMs + uncontended.p99_seconds * 1e3 + kContendedSlackMs;
  std::printf(
      "contended(%d hot + %d background, %d threads): p99 %.3f ms / p50 "
      "%.3f ms (%lld deferred lookups) vs uncontended hot p99 %.3f ms / p50 "
      "%.3f ms\n",
      kContendedCopies, kContendedBackground, kContendedThreads,
      deferred.p99_seconds * 1e3, deferred.p50_seconds * 1e3,
      static_cast<long long>(deferred.deferred_lookups),
      uncontended.p99_seconds * 1e3, uncontended.p50_seconds * 1e3);
  const bool contended_identical = deferred.identical && uncontended.identical;
  const bool contended_ok = deferred.deferred_lookups > 0 &&
                            contended_identical &&
                            deferred.p99_seconds * 1e3 <= bound_ms;
  std::printf(
      "contended gate: deferred_lookups=%lld identical=%s p99 %.3fms <= "
      "%.3fms (%d ms stall + %.3fms uncontended hot p99 + %.0fms slack): "
      "%s\n",
      static_cast<long long>(deferred.deferred_lookups),
      contended_identical ? "yes" : "NO", deferred.p99_seconds * 1e3,
      bound_ms, kContendedStallMs, uncontended.p99_seconds * 1e3,
      kContendedSlackMs, contended_ok ? "ok" : "NO — BUG");

  // ISSUE 10 acceptance: the grid sharded across worker services behind a
  // remote cache plane (an in-process PlannerServer in cache-server mode,
  // each worker consulting it through the framed-TCP RemoteCacheBackend).
  // The shards are disjoint configs but their synthesis signatures overlap,
  // so the plane's ownership grants must keep the workers' combined
  // synthesis-run total strictly below N independent full-grid runs — and
  // the shard blocks, merged in any order, must be byte-identical to the
  // serial rendering of the whole grid.
  constexpr int kShardWorkers = 2;
  const auto block_of = [&](std::size_t i, const ExperimentResult& result) {
    return p2::engine::ShardBlock{
        static_cast<std::int64_t>(i),
        p2::engine::ExperimentConfig{grid[i].axes, grid[i].reduction_axes}
            .ToString(),
        CanonicalResultText(result)};
  };
  std::string serial_grid_text;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    serial_grid_text += p2::engine::RenderShardBlock(block_of(i, serial_results[i]));
  }
  // The plane answers lookups on its connection threads and never plans.
  PlannerService plane_service;
  p2::server::PlannerServerOptions plane_options;
  plane_options.cache_server = true;
  p2::server::PlannerServer plane(plane_service, plane_options);
  std::vector<std::string> shard_texts(kShardWorkers);
  std::vector<std::int64_t> worker_misses(kShardWorkers, 0);
  std::vector<std::int64_t> worker_remote_hits(kShardWorkers, 0);
  std::vector<std::int64_t> worker_remote_errors(kShardWorkers, 0);
  {
    std::vector<std::thread> shard_threads;
    for (int w = 0; w < kShardWorkers; ++w) {
      shard_threads.emplace_back([&, w] {
        PlannerServiceOptions options;
        options.threads = 2;
        options.remote_cache =
            std::make_shared<p2::server::RemoteCacheClient>(plane.port());
        PlannerService worker(ServiceOptionsFor(engine, options));
        for (std::size_t i : p2::engine::ShardIndices(
                 grid.size(), w, kShardWorkers)) {
          shard_texts[static_cast<std::size_t>(w)] +=
              p2::engine::RenderShardBlock(block_of(
                  i, worker.Plan(RequestFor(engine.cluster(), grid[i]))));
        }
        const auto stats = worker.stats();
        worker_misses[static_cast<std::size_t>(w)] = stats.cache.misses;
        worker_remote_hits[static_cast<std::size_t>(w)] =
            stats.cache.remote_hits;
        worker_remote_errors[static_cast<std::size_t>(w)] =
            stats.cache.remote_errors;
      });
    }
    for (auto& t : shard_threads) t.join();
  }
  std::int64_t sharded_misses = 0, sharded_remote_hits = 0,
               sharded_remote_errors = 0;
  for (int w = 0; w < kShardWorkers; ++w) {
    sharded_misses += worker_misses[static_cast<std::size_t>(w)];
    sharded_remote_hits += worker_remote_hits[static_cast<std::size_t>(w)];
    sharded_remote_errors += worker_remote_errors[static_cast<std::size_t>(w)];
  }
  // Merge with the shard files in reverse order: the merge must not care.
  std::vector<p2::engine::ShardBlock> shard_blocks;
  bool sharded_identical = true;
  {
    std::string shard_error;
    for (int w = kShardWorkers - 1; w >= 0; --w) {
      std::vector<p2::engine::ShardBlock> parsed;
      if (!p2::engine::ParseShardBlocks(
              shard_texts[static_cast<std::size_t>(w)], &parsed,
              &shard_error)) {
        std::fprintf(stderr, "shard %d unparsable: %s\n", w,
                     shard_error.c_str());
        sharded_identical = false;
      }
      shard_blocks.insert(shard_blocks.end(), parsed.begin(), parsed.end());
    }
    std::string merged;
    if (!p2::engine::MergeShardBlocks(std::move(shard_blocks),
                                      static_cast<std::int64_t>(grid.size()),
                                      &merged, &shard_error)) {
      std::fprintf(stderr, "shard merge failed: %s\n", shard_error.c_str());
      sharded_identical = false;
    } else if (merged != serial_grid_text) {
      sharded_identical = false;
    }
  }
  // N independent runs = N processes each covering the full grid with a
  // cold local cache: N x the cached variant's synthesis-run count.
  const std::int64_t independent_sharded_misses = kShardWorkers * cached.misses;
  const bool sharded_ok = sharded_misses < independent_sharded_misses &&
                          sharded_remote_hits > 0 &&
                          sharded_remote_errors == 0 && sharded_identical;
  std::printf(
      "sharded gate: %lld synthesis runs across %d workers < %lld "
      "independent, %lld remote hits, %lld remote errors, merged "
      "byte-identical=%s: %s\n",
      static_cast<long long>(sharded_misses), kShardWorkers,
      static_cast<long long>(independent_sharded_misses),
      static_cast<long long>(sharded_remote_hits),
      static_cast<long long>(sharded_remote_errors),
      sharded_identical ? "yes" : "NO", sharded_ok ? "ok" : "NO — BUG");

  // Machine-readable dump: every variant's headline numbers plus the
  // contended and sharded gates, for CI artifacts and trend tracking.
  const std::pair<std::string, const VariantResult*> variants[] = {
      {"serial", &serial},
      {"cached", &cached},
      {"cached+par", &parallel},
      {"warm_disk", &warm},
      {"concurrent", &concurrent},
      {"multi_tenant", &multi_tenant},
  };
  std::fprintf(json, "{\n  \"threads\": %d,\n  \"variants\": [\n", threads);
  bool first = true;
  for (const auto& [name, v] : variants) {
    std::fprintf(
        json,
        "%s    {\"name\": \"%s\", \"misses\": %lld, \"hits\": %lld, "
        "\"seconds\": %.6f, \"synth_seconds\": %.6f}",
        first ? "" : ",\n", name.c_str(), static_cast<long long>(v->misses),
        static_cast<long long>(v->hits), v->seconds, v->synth_seconds);
    first = false;
  }
  std::fprintf(
      json,
      "\n  ],\n  \"contended\": {\n"
      "    \"threads\": %d, \"hot_copies\": %d, \"background\": %d,\n"
      "    \"deferred_p50_ms\": %.6f, \"deferred_p99_ms\": %.6f,\n"
      "    \"uncontended_hot_p99_ms\": %.6f, \"bound_ms\": %.6f,\n"
      "    \"deferred_lookups\": %lld,\n"
      "    \"identical\": %s, \"ok\": %s\n  },\n",
      kContendedThreads, kContendedCopies, kContendedBackground,
      deferred.p50_seconds * 1e3, deferred.p99_seconds * 1e3,
      uncontended.p99_seconds * 1e3, bound_ms,
      static_cast<long long>(deferred.deferred_lookups),
      contended_identical ? "true" : "false", contended_ok ? "true" : "false");
  std::fprintf(
      json,
      "  \"sharded\": {\n"
      "    \"workers\": %d, \"total_misses\": %lld,\n"
      "    \"independent_misses\": %lld, \"remote_hits\": %lld,\n"
      "    \"remote_errors\": %lld, \"identical\": %s, \"ok\": %s\n"
      "  }\n}\n",
      kShardWorkers, static_cast<long long>(sharded_misses),
      static_cast<long long>(independent_sharded_misses),
      static_cast<long long>(sharded_remote_hits),
      static_cast<long long>(sharded_remote_errors),
      sharded_identical ? "true" : "false", sharded_ok ? "true" : "false");
  const bool written = std::ferror(json) == 0;
  if (std::fclose(json) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return identical && warm_ok && concurrent_ok && multi_tenant_ok &&
                 storm_ok && contended_ok && sharded_ok
             ? 0
             : 1;
}
