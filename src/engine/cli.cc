#include "engine/cli.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "common/format.h"
#include "core/fusion.h"
#include "engine/engine.h"
#include "engine/experiment_grid.h"
#include "engine/report.h"
#include "engine/service.h"
#include "topology/presets.h"

namespace p2::engine {

namespace {

// The best measured program of a finished experiment together with the
// placement holding it.
struct BestOfExperiment {
  const PlacementEvaluation* placement = nullptr;
  const ProgramEvaluation* program = nullptr;
};

BestOfExperiment FindBest(const ExperimentResult& result) {
  BestOfExperiment best;
  for (const auto& eval : result.placements) {
    const int index = eval.BestMeasuredIndex();
    if (index < 0) continue;
    const auto& program = eval.programs[static_cast<std::size_t>(index)];
    if (best.program == nullptr ||
        program.measured_seconds < best.program->measured_seconds) {
      best.placement = &eval;
      best.program = &program;
    }
  }
  return best;
}

std::string MaybeFused(const CliOptions& options,
                       const PlacementEvaluation& eval,
                       const ProgramEvaluation& best,
                       const std::vector<int>& reduction_axes) {
  std::string text = best.text;
  if (!options.fuse) return text;
  const auto sh = core::SynthesisHierarchy::Build(
      eval.matrix, reduction_axes,
      core::SynthesisHierarchyKind::kReductionAxes);
  const auto fused = core::FuseProgram(sh, best.program);
  if (fused.steps_removed > 0) {
    text += "  [fused to " + core::ToString(fused.program, sh.level_names()) +
            "]";
  }
  return text;
}

constexpr std::string_view kUsage =
    "p2_plan: synthesize parallelism placements and reduction strategies\n"
    "\n"
    "usage: p2_plan --system=a100|v100 --nodes=N --axes=A,B[,C] "
    "--reduce=I[,J] [FLAGS]\n"
    "       p2_plan --system=a100|v100 --nodes=N --grid [FLAGS]\n"
    "       p2_plan --topology=SYS:N[,SYS:N...] --grid [FLAGS]\n";

/// Appends the comma-separated SYS:NODES presets of one --topology value.
bool AppendTopologies(const std::string& value,
                      std::vector<TopologyPreset>* topologies,
                      std::string* error) {
  std::stringstream ss(value);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    const auto colon = entry.find(':');
    std::int64_t nodes = 0;
    if (colon == std::string::npos ||
        !ParseFlagInt(std::string_view(entry).substr(colon + 1), 1,
                      topology::kMaxNodes, &nodes)) {
      *error = "entries must be SYS:NODES (e.g. a100:4) with NODES in [1, " +
               std::to_string(topology::kMaxNodes) + "], got \"" + entry +
               "\"";
      return false;
    }
    TopologyPreset preset{entry.substr(0, colon), static_cast<int>(nodes)};
    if (!IsPresetSystem(preset.system)) {
      *error = "system must be a100 or v100, got \"" + preset.system + "\"";
      return false;
    }
    // A duplicate preset would plan the same grid twice through the same
    // tenant and report it as two tenants' worth of work.
    if (std::find(topologies->begin(), topologies->end(), preset) !=
        topologies->end()) {
      *error = "lists " + entry + " twice";
      return false;
    }
    topologies->push_back(std::move(preset));
  }
  return true;
}

std::vector<Flag> CliFlags(CliOptions* o) {
  return {
      SystemFlag(&o->system),
      NodesFlag(&o->nodes),
      {"topology",
       [o](const std::string& value, std::string* error) {
         return AppendTopologies(value, &o->topologies, error);
       },
       "one or more system presets as SYS:NODES (e.g.\n"
       "a100:4,v100:2; repeatable). One preset is shorthand\n"
       "for --system/--nodes; several presets require --grid\n"
       "and plan every preset's grid through ONE multi-tenant\n"
       "service — clusters with overlapping reduction\n"
       "factorizations synthesize shared hierarchies once\n"
       "between them (cross-tenant cache hits)"},
      {"axes", &o->axes, "parallelism axis sizes (product must equal #GPUs)",
       1},
      {"reduce", &o->reduction_axes, "reduction axis indices", 0},
      {"grid", &o->grid,
       "plan the paper's full experiment grid for the system\n"
       "instead of one --axes/--reduce config; every config\n"
       "is submitted concurrently to one shared planning\n"
       "service, so configs with isomorphic hierarchies\n"
       "synthesize once between them"},
      {"algo",
       [o](const std::string& value, std::string* error) {
         if (value == "ring") {
           o->algo = core::NcclAlgo::kRing;
         } else if (value == "tree") {
           o->algo = core::NcclAlgo::kTree;
         } else {
           *error = "must be ring or tree";
           return false;
         }
         return true;
       },
       "NCCL algorithm: ring (default) or tree"},
      {"payload-mb", &o->payload_mb,
       "per-GPU payload in MB (default: 2^29*nodes floats)", 1},
      {"top-k", &o->top_k, "measure only the top-k programs by prediction",
       0},
      {"service-threads", &o->service_threads,
       "size of the planning service's shared worker\n"
       "pool (default 1; results are identical at any count)",
       1, kMaxFlagThreads},
      {"fuse", &o->fuse, "fuse consecutive fusible steps before evaluating"},
      {"cache-file", &o->cache_file,
       "load/save the persistent synthesis cache at PATH:\n"
       "known hierarchies skip synthesis across planner runs;\n"
       "a corrupt file starts cold with a warning and is\n"
       "rewritten atomically on exit (unreadable or\n"
       "newer-format-version files are never overwritten)"},
      {"cache-readonly", &o->cache_readonly,
       "use the cache file without creating or\n"
       "modifying it (requires --cache-file)"},
      {"cache-max-entries", &o->cache_max_entries,
       "keep at most N synthesis-cache entries,\n"
       "evicting least-recently-used first (default:\n"
       "unbounded); eviction never changes results, an\n"
       "evicted hierarchy is simply re-synthesized",
       1},
      {"cache-ttl-seconds", &o->cache_ttl_seconds,
       "skip cache-file entries first persisted more\n"
       "than N seconds ago when loading (they are pruned from\n"
       "the file on the next save; default: never expire).\n"
       "Entries from files written before stamps existed have\n"
       "unknown age and are never expired",
       1},
      {"deadline-ms", &o->deadline_ms,
       "per-request deadline in milliseconds: a config\n"
       "still planning when it expires is abandoned\n"
       "(reported, not fatal) and its worker slots freed\n"
       "(default: no deadline)",
       1},
      {"max-in-flight", &o->max_in_flight,
       "admit at most N concurrently planning requests;\n"
       "submissions beyond the cap are rejected and reported\n"
       "instead of silently queuing (default: unbounded)",
       1},
      // 0 is meaningful: cancel whatever is still running the moment the
      // drain starts.
      {"drain-grace-ms", &o->drain_grace_ms,
       "on shutdown, give still-running requests N ms to\n"
       "finish before cancelling them (default: wait for\n"
       "them indefinitely)",
       0},
  };
}

}  // namespace

std::optional<CliOptions> ParseCliOptions(
    const std::vector<std::string>& args, std::string* error) {
  CliOptions opts;
  // --system and --nodes start unset, so that naming them beside --topology
  // is caught; their defaults are filled in after parsing.
  opts.system.clear();
  opts.nodes = 0;
  if (!ParseFlags(args, CliFlags(&opts), kUsage, nullptr, error)) {
    return std::nullopt;
  }
  const bool system_or_nodes_given = !opts.system.empty() || opts.nodes != 0;
  if (opts.system.empty()) opts.system = CliOptions().system;
  if (opts.nodes == 0) opts.nodes = CliOptions().nodes;
  if (!opts.topologies.empty() && system_or_nodes_given) {
    *error = "--topology already names the systems; drop --system/--nodes";
    return std::nullopt;
  }
  if (opts.topologies.size() > 1 && !opts.grid) {
    // A single --axes config cannot fit several device counts at once; the
    // multi-tenant form plans each preset's own grid.
    *error = "multiple --topology presets require --grid";
    return std::nullopt;
  }
  if (opts.topologies.size() == 1) {
    // One preset is pure shorthand: fold it into --system/--nodes so every
    // downstream path (and RunCli's single-cluster report) is unchanged.
    opts.system = opts.topologies.front().system;
    opts.nodes = opts.topologies.front().nodes;
  }
  if (opts.grid) {
    if (!opts.axes.empty() || !opts.reduction_axes.empty()) {
      *error = "--grid chooses the configs itself; drop --axes/--reduce";
      return std::nullopt;
    }
    if (opts.fuse) {
      // The grid report is a per-config summary with no program column to
      // annotate; silently accepting --fuse would let the user believe
      // fused programs were evaluated.
      *error = "--fuse is not supported with --grid (the grid report has no "
               "per-program detail to annotate); run the config standalone";
      return std::nullopt;
    }
  } else {
    if (opts.axes.empty()) {
      *error = "missing --axes (see --help)";
      return std::nullopt;
    }
    if (opts.reduction_axes.empty()) {
      *error = "missing --reduce (see --help)";
      return std::nullopt;
    }
    for (int a : opts.reduction_axes) {
      if (a >= static_cast<int>(opts.axes.size())) {
        *error = "--reduce index out of range";
        return std::nullopt;
      }
    }
  }
  if (opts.cache_readonly && opts.cache_file.empty()) {
    *error = "--cache-readonly requires --cache-file";
    return std::nullopt;
  }
  return opts;
}

bool IsPresetSystem(std::string_view system) {
  return system == "a100" || system == "v100";
}

Flag SystemFlag(std::string* system) {
  return {"system",
          [system](const std::string& value, std::string* error) {
            if (!IsPresetSystem(value)) {
              *error = "must be a100 or v100, got \"" + value + "\"";
              return false;
            }
            *system = value;
            return true;
          },
          "GPU system model (Fig. 9 of the paper): a100 or v100"};
}

Flag NodesFlag(int* nodes) {
  return {"nodes", nodes, "number of nodes", 1, topology::kMaxNodes};
}

topology::Cluster ClusterFromPreset(const TopologyPreset& preset) {
  return preset.system == "a100" ? topology::MakeA100Cluster(preset.nodes)
                                 : topology::MakeV100Cluster(preset.nodes);
}

namespace {

// The single translation point from CLI flags to the service's options,
// engine knobs included.
PlannerServiceOptions ServiceOptionsFromCli(const CliOptions& options) {
  PlannerServiceOptions svc;
  svc.threads = options.service_threads;
  svc.cache_file = options.cache_file;
  svc.cache_readonly = options.cache_readonly;
  svc.cache_max_entries = options.cache_max_entries;
  svc.cache_ttl_seconds = options.cache_ttl_seconds;
  svc.max_in_flight = options.max_in_flight;
  if (options.drain_grace_ms >= 0) {
    svc.drain_grace = std::chrono::milliseconds(options.drain_grace_ms);
  }
  svc.engine.algo = options.algo;
  if (options.payload_mb > 0) {
    svc.engine.payload_bytes = options.payload_mb * 1e6;
  }
  return svc;
}

PlanRequest RequestForConfig(const ExperimentConfig& config,
                             const topology::Cluster& cluster,
                             const CliOptions& options) {
  PlanRequest request;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.measure_top_k = options.top_k > 0 ? options.top_k : -1;
  request.cluster = cluster;
  if (options.deadline_ms > 0) {
    request.deadline = std::chrono::milliseconds(options.deadline_ms);
  }
  return request;
}

/// One preset's share of an invocation: its configs, their handles, and
/// the configs that completed with their results, in config order.
struct PresetRun {
  topology::Cluster cluster;
  std::vector<ExperimentConfig> configs;
  std::vector<PlanHandle> handles;
  std::vector<ExperimentConfig> done_configs;
  std::vector<ExperimentResult> results;
};

/// Collects every handle of `run`, pairing survivors with their configs; a
/// rejected, cancelled or expired config becomes a warning line instead of
/// killing the whole invocation (its siblings' results are unaffected —
/// that is the service's determinism contract).
void CollectResults(PresetRun& run, std::ostream& os) {
  for (std::size_t i = 0; i < run.handles.size(); ++i) {
    try {
      run.results.push_back(run.handles[i].get());
      run.done_configs.push_back(run.configs[i]);
    } catch (const PlanRejected& e) {
      os << "warning: config " << run.configs[i].ToString()
         << " rejected: " << e.what() << '\n';
    } catch (const RequestAborted& e) {
      os << "warning: config " << run.configs[i].ToString()
         << " abandoned: " << e.what() << '\n';
    }
  }
}

void AppendCacheLoadWarnings(const PlannerService& service,
                             const CliOptions& options, std::ostream& os) {
  if (IsCorrupt(service.cache_load_status())) {
    os << "warning: cache file " << options.cache_file << ": "
       << ToString(service.cache_load_status()) << " ("
       << service.cache_load_message() << "); starting cold\n";
  } else if (options.cache_readonly &&
             service.cache_load_status() == CacheLoadStatus::kNoFile) {
    // A writable cold start is normal, but readonly names a file the user
    // expects to exist — running cold here is a silent latency regression.
    os << "warning: cache file " << options.cache_file
       << " does not exist; --cache-readonly runs cold\n";
  }
}

void RenderGridTable(const PresetRun& run, std::ostream& os) {
  // One summary row per config; the full per-placement detail of a config
  // is what the single-config invocation is for.
  TextTable table({"Config", "Placements", "AllReduce(s)", "Best(s)",
                   "Speedup", "Best placement"});
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto& result = run.results[i];
    const BestOfExperiment best = FindBest(result);
    if (best.program == nullptr) continue;
    const double baseline = best.placement->DefaultAllReduce().measured_seconds;
    table.AddRow({run.done_configs[i].ToString(),
                  std::to_string(result.placements.size()),
                  FormatSeconds(baseline),
                  FormatSeconds(best.program->measured_seconds),
                  FormatSpeedup(baseline / best.program->measured_seconds),
                  best.placement->matrix.ToString()});
  }
  os << table.Render();
}

void RenderConfigTable(const CliOptions& options,
                       const ExperimentResult& result, std::ostream& os) {
  TextTable table({"Placement", "Programs", "AllReduce(s)", "Best(s)",
                   "Speedup", "Best program"});
  for (const auto& eval : result.placements) {
    const auto& best =
        eval.programs[static_cast<std::size_t>(eval.BestMeasuredIndex())];
    table.AddRow({eval.matrix.ToString(), std::to_string(eval.programs.size()),
                  FormatSeconds(eval.DefaultAllReduce().measured_seconds),
                  FormatSeconds(best.measured_seconds),
                  FormatSpeedup(eval.DefaultAllReduce().measured_seconds /
                                best.measured_seconds),
                  MaybeFused(options, eval, best, result.reduction_axes)});
  }
  os << table.Render();
  os << '\n' << RenderPipelineStats(result.pipeline) << '\n';
}

}  // namespace

int RunCli(const CliOptions& options, std::string* output) {
  // --system/--nodes name a one-preset list; a single --topology preset is
  // folded into them by ParseCliOptions.
  const std::vector<TopologyPreset> presets =
      options.topologies.empty()
          ? std::vector<TopologyPreset>{{options.system, options.nodes}}
          : options.topologies;
  std::ostringstream os;
  std::vector<PresetRun> runs;
  runs.reserve(presets.size());
  for (const TopologyPreset& preset : presets) {
    PresetRun& run = runs.emplace_back();
    run.cluster = ClusterFromPreset(preset);
    if (options.grid) {
      run.configs = FullGrid(run.cluster);
      continue;
    }
    // ParseCliOptions admits one preset without --grid.
    std::int64_t axis_product = 1;
    for (std::int64_t a : options.axes) axis_product *= a;
    if (axis_product != run.cluster.num_devices()) {
      os << "error: axes multiply to " << axis_product
         << " but the system has " << run.cluster.num_devices() << " GPUs\n";
      *output = os.str();
      return 1;
    }
    run.configs.push_back(
        ExperimentConfig{options.axes, options.reduction_axes});
  }

  // One service per invocation: the single owner of the shared cache, the
  // worker pool and the optional persistent store. Every preset's requests
  // are submitted before any is collected, so they overlap on the pool and
  // hierarchies recurring across configs and clusters synthesize once,
  // while the report below stays in preset + config order.
  PlannerService service(ServiceOptionsFromCli(options));
  AppendCacheLoadWarnings(service, options, os);
  for (PresetRun& run : runs) {
    run.handles.reserve(run.configs.size());
    for (const auto& config : run.configs) {
      run.handles.push_back(
          service.Submit(RequestForConfig(config, run.cluster, options)));
    }
  }
  bool any_completed = false;
  for (PresetRun& run : runs) {
    CollectResults(run, os);
    any_completed = any_completed || !run.results.empty();
  }
  if (!any_completed) {
    os << "error: no config completed\n";
    *output = os.str();
    return 1;
  }

  std::string save_error;
  if (!service.SaveCache(&save_error)) {
    os << "warning: could not save cache file " << options.cache_file << ": "
       << save_error << '\n';
  }

  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r > 0) os << '\n';
    os << "system: " << runs[r].cluster.ToString() << ", "
       << core::ToString(options.algo) << ", payload "
       << service.EngineFor(runs[r].cluster).payload_bytes() / 1e6
       << " MB/GPU\n\n";
    if (options.grid) {
      RenderGridTable(runs[r], os);
    } else {
      RenderConfigTable(options, runs[r].results.front(), os);
    }
  }
  // Service-wide figures render exactly once per invocation — per-tenant
  // rows and cross-tenant hits included, and the one-time disk preload.
  if (options.grid || !options.cache_file.empty()) {
    os << '\n' << RenderServiceStats(service.stats()) << '\n';
  }
  *output = os.str();
  return 0;
}

}  // namespace p2::engine
