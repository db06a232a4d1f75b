// The outside-in per-layer view: a replay of one pass of the service's work
// through each layer's public functions, plus microbenchmarks of the layers
// a replay cannot reach, all on the workload's own inputs.
#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/lowering.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/cache_store.h"
#include "engine/report.h"
#include "engine/synthesis_cache.h"
#include "server/planner_client.h"

namespace p2::e2e {

namespace {

struct LayerTotals {
  std::int64_t calls = 0;
  double busy_s = 0.0;
  double max_s = 0.0;
};

double PerCallUs(const LayerTotals& t) {
  return t.calls > 0 ? t.busy_s / static_cast<double>(t.calls) * 1e6 : 0.0;
}

/// Median seconds of `op` over at least `min_samples` calls, continuing for
/// up to `budget_s`; `samples` receives the count.
template <class Op>
double MedianSeconds(int min_samples, double budget_s, std::int64_t* samples,
                     Op&& op) {
  std::vector<double> seconds;
  const auto begin = Clock::now();
  while (static_cast<int>(seconds.size()) < min_samples ||
         (seconds.size() < 10000 && SecondsSince(begin) < budget_s)) {
    const auto start = Clock::now();
    op();
    seconds.push_back(SecondsSince(start));
  }
  *samples = static_cast<std::int64_t>(seconds.size());
  return Percentile(std::move(seconds), 50.0);
}

}  // namespace

Replay ReplayLayers(const Workload& workload,
                    const std::vector<engine::ExperimentResult>& service,
                    const Oracle& oracle, const std::string& disk_image,
                    Tracer& tracer) {
  Replay out;
  engine::EngineOptions options = workload.engine;
  if (workload.max_programs > 0) {
    options.synthesis.max_programs = workload.max_programs;
  }
  out.synthesis = options.synthesis;
  const core::SynthesisOptions& synth = out.synthesis;

  std::map<std::string_view, LayerTotals> totals;  // keyed by literals
  double* sink = &out.pass_layer_s;  // the job (or pass) being replayed
  // One call into `layer`, recorded as a leaf span under `parent`.
  const auto call = [&](const char* layer, int parent, auto&& op) {
    const auto start = Clock::now();
    auto result = op();
    const auto end = Clock::now();
    tracer.Record(layer, parent, start, end);
    const double s = std::chrono::duration<double>(end - start).count();
    LayerTotals& t = totals[layer];
    ++t.calls;
    t.busy_s += s;
    t.max_s = std::max(t.max_s, s);
    *sink += s;
    return result;
  };

  engine::SynthesisCache cache;
  if (workload.frontend == Frontend::kWire) {
    // The served window is all cache hits, so the cache is warmed outside
    // the replay and only the hits are replayed.
    for (const Job& job : workload.jobs) {
      for (const auto& matrix : core::EnumeratePlacements(
               job.cluster.hierarchy(), job.config.axes)) {
        cache.GetOrSynthesize(
            core::SynthesisHierarchy::Build(matrix, job.config.reduction_axes,
                                            options.hierarchy_kind,
                                            options.collapse_hierarchy),
            synth);
      }
    }
  }

  std::vector<engine::ExperimentResult> replayed(workload.jobs.size());
  std::vector<core::SynthesisHierarchy> hierarchies;
  std::int64_t states = 0;
  out.job_layer_s.assign(workload.jobs.size(), 0.0);
  const auto start = Clock::now();
  const int root = tracer.Begin("replay", -1);
  // Per pass, a fresh service builds one engine per tenant and a disk-cache
  // workload loads the P2SC file once.
  std::map<std::string, std::unique_ptr<engine::Engine>> engines;
  for (const Job& job : workload.jobs) {
    if (engines.count(job.tenant) != 0) continue;
    engines[job.tenant] = call("engine/engine", root, [&] {
      return std::make_unique<engine::Engine>(job.cluster, options);
    });
  }
  if (workload.disk_cache) {
    engine::CacheFileContents contents =
        call("engine/cache_store", root,
             [&] { return engine::CacheStore::DecodeFile(disk_image); });
    if (contents.status != engine::CacheLoadStatus::kOk) {
      out.error = "the P2SC image did not decode: " + contents.message;
    }
    call("engine/cache_store", root, [&] {
      std::vector<std::pair<std::string, core::SynthesisResult>> entries;
      for (engine::CacheFileEntry& entry : contents.entries) {
        entries.emplace_back(std::move(entry.key), std::move(entry.result));
      }
      return cache.Preload(std::move(entries));
    });
  }

  for (std::size_t j = 0; j < workload.jobs.size() && out.error.empty(); ++j) {
    const Job& job = workload.jobs[j];
    const engine::ExperimentResult& expected = service[j];
    sink = &out.job_layer_s[j];
    // Declared first, so the span closes after the request's locals die.
    const TraceScope request_span(&tracer, "replay.request", root);
    const int request = request_span.id();
    const engine::Engine& engine = *engines[job.tenant];
    const auto placements = call("core/placement", request, [&] {
      return engine.SynthesizePlacements(job.config.axes);
    });
    engine::ExperimentResult& result = replayed[j];
    result.axes = job.config.axes;
    result.reduction_axes = job.config.reduction_axes;
    result.algo = options.algo;
    result.payload_bytes = engine.payload_bytes();
    if (placements.size() != expected.placements.size()) {
      out.error = job.Key() + ": placement count differs";
    }
    for (std::size_t i = 0; i < placements.size() && out.error.empty(); ++i) {
      const TraceScope placement_span(&tracer, "replay.placement", request);
      const int placement = placement_span.id();
      core::SynthesisHierarchy sh = call("core/synthesis_hierarchy", placement, [&] {
        return core::SynthesisHierarchy::Build(
            placements[i], job.config.reduction_axes, options.hierarchy_kind,
            options.collapse_hierarchy);
      });
      // The pipeline's lookup path: a non-blocking lookup, and on a miss
      // the owner synthesizes and publishes.
      engine::SynthesisCache::DeferredLookup deferred;
      auto looked = call("engine/synthesis_cache", placement, [&] {
        return cache.TryLookup(sh, synth, [] {}, &deferred);
      });
      std::shared_ptr<const core::SynthesisResult> synthesis = looked.result;
      if (looked.state != engine::SynthesisCache::TryLookupState::kReady) {
        synthesis = call("core/synthesizer", placement, [&] {
          return std::make_shared<const core::SynthesisResult>(
              core::SynthesizePrograms(sh, synth));
        });
        states += synthesis->stats.states_visited;
        call("engine/synthesis_cache", placement, [&] {
          cache.CompleteOwned(sh, synth, synthesis);
          return 0;
        });
      }

      // Lower and predict every program as Pipeline::Evaluate does: the
      // default AllReduce first, the synthesized copy of it dropped.
      engine::PlacementEvaluation eval;
      eval.matrix = placements[i];
      std::vector<core::LoweredProgram> lowered;
      const auto add = [&](const core::Program& program,
                           core::LoweredProgram lowered_program) {
        engine::ProgramEvaluation e;
        e.program = program;
        e.text = call("core/reduction_dsl", placement, [&] {
          return core::ToString(program, sh.level_names());
        });
        e.num_steps = static_cast<int>(program.size());
        e.predicted_seconds = call("cost/cost_model", placement, [&] {
          return engine.cost_model().PredictProgram(
              lowered_program, engine.payload_bytes(), options.algo);
        });
        eval.programs.push_back(std::move(e));
        lowered.push_back(std::move(lowered_program));
      };
      const core::Program default_ar = engine::DefaultAllReduceProgram();
      add(default_ar, call("core/lowering", placement, [&] {
            return core::LowerProgram(sh, default_ar);
          }));
      eval.programs.front().is_default_allreduce = true;
      for (const core::Program& program : synthesis->programs) {
        core::LoweredProgram lowered_program = call(
            "core/lowering", placement,
            [&] { return core::LowerProgram(sh, program); });
        if (lowered_program.steps.size() == 1 &&
            lowered_program.steps[0].op == core::Collective::kAllReduce &&
            lowered_program.steps[0].groups == lowered.front().steps[0].groups) {
          continue;
        }
        add(program, std::move(lowered_program));
      }
      // Measure exactly what the service measured.
      const auto& service_programs = expected.placements[i].programs;
      if (service_programs.size() != eval.programs.size()) {
        out.error = job.Key() + ": program count differs";
      }
      for (std::size_t k = 0; k < eval.programs.size() && out.error.empty();
           ++k) {
        if (!service_programs[k].measured) continue;
        eval.programs[k].measured_seconds = call("runtime/executor", placement, [&] {
          return engine.executor().MeasureProgram(
              lowered[k], engine.payload_bytes(), options.algo);
        });
        eval.programs[k].measured = true;
      }
      result.placements.push_back(std::move(eval));
      hierarchies.push_back(std::move(sh));
    }
  }
  tracer.End(root);
  out.wall_s = SecondsSince(start);

  for (std::size_t j = 0; j < replayed.size() && out.error.empty(); ++j) {
    if (engine::CanonicalResultText(replayed[j]) != oracle.texts[j]) {
      out.error = workload.jobs[j].Key() + ": replay differs from the service";
    }
  }
  out.reproduced = out.error.empty();

  for (auto& [key, result] : cache.Snapshot()) {
    out.entries.push_back(engine::CacheFileEntry{key, std::move(result), 0});
  }
  std::set<std::string> seen;
  for (core::SynthesisHierarchy& sh : hierarchies) {
    if (seen.insert(engine::SynthesisCache::BaseKey(sh, synth)).second) {
      out.hierarchies.push_back(std::move(sh));
    }
  }

  const LayerTotals synth_t = totals["core/synthesizer"];
  const LayerTotals lower_t = totals["core/lowering"];
  const LayerTotals predict_t = totals["cost/cost_model"];
  const LayerTotals measure_t = totals["runtime/executor"];
  Metrics& m = out.metrics;
  m["synth.calls"] = {static_cast<double>(synth_t.calls), "count", synth_t.calls};
  m["synth.busy_s"] = {synth_t.busy_s, "s", synth_t.calls};
  m["synth.max_call_s"] = {synth_t.max_s, "s", synth_t.calls};
  m["synth.states_per_s"] = {
      synth_t.busy_s > 0 ? static_cast<double>(states) / synth_t.busy_s : 0.0,
      "1/s", synth_t.calls};
  m["lower.calls"] = {static_cast<double>(lower_t.calls), "count", lower_t.calls};
  m["lower.us_per_call"] = {PerCallUs(lower_t), "us", lower_t.calls};
  m["lower.busy_s"] = {lower_t.busy_s, "s", lower_t.calls};
  m["predict.calls"] = {static_cast<double>(predict_t.calls), "count",
                        predict_t.calls};
  m["predict.us_per_call"] = {PerCallUs(predict_t), "us", predict_t.calls};
  m["measure.calls"] = {static_cast<double>(measure_t.calls), "count",
                        measure_t.calls};
  m["measure.us_per_call"] = {PerCallUs(measure_t), "us", measure_t.calls};
  m["measure.busy_s"] = {measure_t.busy_s, "s", measure_t.calls};
  double layer_s = 0.0;
  std::int64_t layer_calls = 0;
  for (const auto& [name, t] : totals) {
    layer_s += t.busy_s;
    layer_calls += t.calls;
  }
  // Layer calls are the replay's leaves, so their self time is their whole
  // duration; the rest of the replay's wall-clock is the benchmark's own.
  m["replay.layer_share"] = {out.wall_s > 0 ? layer_s / out.wall_s : 0.0,
                             "share", layer_calls};
  return out;
}

void MeasureMicrobenches(const Workload& workload,
                         const std::vector<engine::ExperimentResult>& results,
                         const Oracle& oracle, const Replay& replay,
                         const std::string& disk_image, Tally* tally,
                         Metrics* metrics) {
  Metrics& m = *metrics;
  std::int64_t n = 0;

  // A cache hit through the blocking lookup, over every signature.
  {
    engine::SynthesisCache cache;
    std::vector<std::pair<std::string, core::SynthesisResult>> entries;
    for (const engine::CacheFileEntry& entry : replay.entries) {
      entries.emplace_back(entry.key, entry.result);
    }
    cache.Preload(std::move(entries));
    std::size_t next = 0;
    const double hit_s = MedianSeconds(2000, 0.2, &n, [&] {
      cache.GetOrSynthesize(
          replay.hierarchies[next++ % replay.hierarchies.size()],
          replay.synthesis);
    });
    if (cache.stats().misses != 0) {
      throw std::runtime_error("cache microbenchmark missed a preloaded entry");
    }
    m["cache.hit_us"] = {hit_s * 1e6, "us", n};
  }

  // The P2SC decode of the pass's cache image (the file itself on a
  // disk-cache workload).
  {
    const std::string image = disk_image.empty()
                                  ? engine::CacheStore::EncodeFile(replay.entries)
                                  : disk_image;
    bool decoded = true;
    const double load_s = MedianSeconds(5, 0.3, &n, [&] {
      decoded = decoded && engine::CacheStore::DecodeFile(image).status ==
                               engine::CacheLoadStatus::kOk;
    });
    if (!decoded) throw std::runtime_error("P2SC image did not decode");
    const auto bytes = static_cast<double>(image.size());
    m["store.load_s"] = {load_s, "s", n};
    m["store.file_bytes"] = {bytes, "bytes", 1};
    m["store.decode_mb_per_s"] = {load_s > 0 ? bytes / load_s / 1e6 : 0.0,
                                  "MB/s", n};
  }

  // The wire codec on every real response of the pass.
  {
    std::vector<server::PlanWireResponse> responses;
    std::vector<std::string> frames;
    double frame_bytes = 0.0;
    for (const engine::ExperimentResult& result : results) {
      server::PlanWireResponse response;
      response.body = engine::CanonicalResultText(result);
      response.stats = result.pipeline;
      frames.push_back(server::EncodeFrame(server::Frame{
          server::FrameType::kPlanResponse, server::EncodePlanResponse(response)}));
      frame_bytes += static_cast<double>(frames.back().size());
      responses.push_back(std::move(response));
    }
    const int min_calls = 20 * static_cast<int>(responses.size());
    std::size_t next = 0;
    const double encode_s = MedianSeconds(min_calls, 0.2, &n, [&] {
      const auto& response = responses[next++ % responses.size()];
      server::EncodeFrame(server::Frame{server::FrameType::kPlanResponse,
                                        server::EncodePlanResponse(response)});
    });
    m["wire.encode_us"] = {encode_s * 1e6, "us", n};
    bool round_trips = true;
    next = 0;
    const double decode_s = MedianSeconds(min_calls, 0.2, &n, [&] {
      const std::size_t j = next++ % frames.size();
      server::Frame frame;
      std::size_t consumed = 0;
      server::PlanWireResponse decoded;
      std::string error;
      round_trips = round_trips &&
                    server::DecodeFrame(frames[j], &frame, &consumed) ==
                        server::FrameDecodeStatus::kOk &&
                    server::DecodePlanResponse(frame.payload, &decoded, &error) &&
                    decoded.body.size() == responses[j].body.size();
    });
    if (!round_trips) throw std::runtime_error("wire round trip failed");
    m["wire.decode_us"] = {decode_s * 1e6, "us", n};
    m["wire.response_bytes"] = {
        frame_bytes / static_cast<double>(frames.size()), "bytes",
        static_cast<std::int64_t>(frames.size())};
  }

  // Client Plan through an in-process PlannerServer minus the in-process
  // Plan, alternating on the workload's cheapest request, then closed-loop
  // throughput over the same server.
  {
    std::size_t probe = 0;
    for (std::size_t j = 1; j < oracle.texts.size(); ++j) {
      if (oracle.texts[j].size() < oracle.texts[probe].size()) probe = j;
    }
    const Job& job = workload.jobs[probe];
    const std::string& expected = oracle.texts[probe];
    engine::PlannerServiceOptions options;
    options.threads = workload.threads;
    options.engine = workload.engine;
    engine::PlannerService service(options);
    server::PlannerServer plan_server(service);
    server::PlanWireRequest wire = WireRequestFor(workload, job);
    wire.has_cluster = true;
    wire.cluster = job.cluster;
    const engine::PlanRequest request = RequestFor(workload, job);
    constexpr int kRounds = 300;
    std::vector<double> rpc_s;
    std::vector<double> local_s;
    {
      server::PlannerClient client(plan_server.port());
      for (int k = 0; k < kRounds + 20; ++k) {
        const auto rpc_start = Clock::now();
        const server::PlanWireResponse response = client.Plan(wire);
        const double rpc = SecondsSince(rpc_start);
        const auto local_start = Clock::now();
        const engine::ExperimentResult local = service.Plan(request);
        const double in_process = SecondsSince(local_start);
        tally->Check(response.status == server::WireStatus::kOk, response.body,
                     expected);
        tally->Check(true, engine::CanonicalResultText(local), expected);
        if (k >= 20) {  // the first rounds warm both paths
          rpc_s.push_back(rpc);
          local_s.push_back(in_process);
        }
      }
    }
    m["rpc.overhead_us"] = {
        (Percentile(rpc_s, 50.0) - Percentile(local_s, 50.0)) * 1e6, "us",
        kRounds};

    constexpr int kClients = 4;
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> completed{0};
    std::vector<std::unique_ptr<server::PlannerClient>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<server::PlannerClient>(plan_server.port()));
    }
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          while (!stop.load(std::memory_order_relaxed)) {
            const server::PlanWireResponse response =
                clients[static_cast<std::size_t>(c)]->Plan(wire);
            tally->Check(response.status == server::WireStatus::kOk,
                         response.body, expected);
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          tally->Check(false, "", "");  // counted as a failed request
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double elapsed = SecondsSince(start);
    m["server.closed_loop_rps"] = {
        static_cast<double>(completed.load()) / elapsed, "1/s",
        completed.load()};
  }
}

}  // namespace p2::e2e
