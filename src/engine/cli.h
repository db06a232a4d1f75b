// Argument parsing and driver for the p2_plan command-line tool, kept in
// the library so it is unit-testable. `p2_plan --help` prints the flags,
// rendered from the table in cli.cc (common/flags.h); a bad flag exits 2.
//
// All planning goes through one PlannerService (engine/service.h) per
// invocation, as requests naming their preset's cluster: --system/--nodes
// name one preset, --topology one or more. Each preset plans one --axes
// config or, with --grid, its whole experiment grid; every request is
// submitted before any is collected, so configs sharing synthesis
// hierarchies are synthesized once between them — across clusters too
// (reported as cross-tenant hits) — and the report renders per preset.
#ifndef P2_ENGINE_CLI_H_
#define P2_ENGINE_CLI_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "core/collective.h"
#include "topology/cluster.h"

namespace p2::engine {

/// One `--topology` entry: a named system preset at a node count.
struct TopologyPreset {
  std::string system;  // "a100" or "v100"
  int nodes = 1;

  friend bool operator==(const TopologyPreset&, const TopologyPreset&) =
      default;
};

struct CliOptions {
  std::string system = "a100";  // "a100" or "v100"
  int nodes = 2;
  /// `--topology` presets. Empty = the one preset --system/--nodes name
  /// (a single --topology preset is folded into them). More than one preset
  /// requires --grid.
  std::vector<TopologyPreset> topologies;
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
  core::NcclAlgo algo = core::NcclAlgo::kRing;
  std::int64_t payload_mb = 0;  // 0 => the paper's default
  int top_k = 0;            // 0 => measure everything
  int service_threads = 1;  // the shared service pool's worker threads
  bool fuse = false;        // apply the fusion pass before evaluation
  bool grid = false;        // run the full experiment grid concurrently
  std::string cache_file;   // persistent synthesis cache (empty = off)
  bool cache_readonly = false;  // load the cache file but never write it
  std::int64_t cache_max_entries = 0;  // LRU cap; 0 = unbounded
  std::int64_t cache_ttl_seconds = 0;  // expire loaded entries; 0 = never
  std::int64_t deadline_ms = 0;     // per-request deadline; 0 = none
  std::int64_t max_in_flight = 0;   // service admission cap; 0 = unbounded
  std::int64_t drain_grace_ms = -1;  // shutdown grace; -1 = wait forever
};

/// Parses argv-style arguments. On error returns std::nullopt and fills
/// `error` with a message (also used for --help).
std::optional<CliOptions> ParseCliOptions(
    const std::vector<std::string>& args, std::string* error);

/// True for the names of the system presets: "a100" and "v100".
bool IsPresetSystem(std::string_view system);

/// The `--system` and `--nodes` rows of every tool that names a preset
/// cluster (p2_plan, p2_client, p2_shard).
Flag SystemFlag(std::string* system);
Flag NodesFlag(int* nodes);

/// Builds the cluster one preset describes.
topology::Cluster ClusterFromPreset(const TopologyPreset& preset);

/// Runs the full plan and renders the report table. Returns the process
/// exit code.
int RunCli(const CliOptions& options, std::string* output);

}  // namespace p2::engine

#endif  // P2_ENGINE_CLI_H_
