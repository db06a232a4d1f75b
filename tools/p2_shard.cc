// p2_shard: distributed experiment-grid worker + merger.
// `p2_shard --help` lists the flags; a bad flag exits 2.
//
// Worker mode (--shard-index=I --num-shards=N) owns every grid config whose
// index ≡ I (mod N), plans them through its own in-process PlannerService,
// and writes its configs as shard blocks (engine/experiment_grid.h) to --out
// (default stdout). With --cache-port[-file] the service's synthesis cache
// consults the cache plane of a `p2_server --cache-server` before
// synthesizing and publishes completions back, so N workers collectively
// synthesize each signature once; without it (or when the plane is
// unreachable) the worker degrades to local-only synthesis and still
// produces identical bytes. The last stdout line is the greppable footer the
// CI smoke asserts on:
//
//   p2_shard[I/N]: X configs, remote_hits=R remote_errors=E synthesized=M
//
// (synthesized = the worker's cache misses, i.e. signatures it ran the
// synthesizer for.)
//
// Merge mode (--merge FILE...) reassembles shard outputs into the serial
// grid order. It validates exact coverage against the same grid (every
// config exactly once) and writes a byte-identical copy of what a
// --num-shards=1 worker run would have produced. Exit 0 only on full
// coverage.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "engine/cli.h"
#include "engine/experiment_grid.h"
#include "engine/report.h"
#include "engine/service.h"
#include "server/planner_client.h"
#include "server/remote_cache_client.h"

namespace {

bool WriteOutput(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "p2_shard: cannot write %s\n", out_path.c_str());
    return false;
  }
  return true;
}

int RunMerge(std::size_t grid_size, const std::string& out_path,
             const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "p2_shard: --merge needs at least one shard file\n");
    return 2;
  }
  std::vector<p2::engine::ShardBlock> blocks;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "p2_shard: cannot read %s\n", file.c_str());
      return 1;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    std::vector<p2::engine::ShardBlock> shard;
    std::string error;
    if (!p2::engine::ParseShardBlocks(contents.str(), &shard, &error)) {
      std::fprintf(stderr, "p2_shard: %s: %s\n", file.c_str(), error.c_str());
      return 1;
    }
    for (auto& block : shard) blocks.push_back(std::move(block));
  }
  std::string merged;
  std::string error;
  if (!p2::engine::MergeShardBlocks(std::move(blocks),
                                    static_cast<std::int64_t>(grid_size),
                                    &merged, &error)) {
    std::fprintf(stderr, "p2_shard: merge failed: %s\n", error.c_str());
    return 1;
  }
  if (!WriteOutput(out_path, merged)) return 1;
  std::fprintf(stderr, "p2_shard: merged %zu configs from %zu shard files\n",
               grid_size, files.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int shard_index = 0;
  int num_shards = 1;
  std::string system = "a100";
  int nodes = 2;
  p2::engine::PlannerServiceOptions service_options;
  service_options.threads = 2;
  int cache_port = -1;
  std::string cache_port_file;
  std::string out_path;
  bool merge = false;
  std::vector<std::string> merge_files;
  const std::vector<p2::Flag> flags = {
      {"shard-index", &shard_index,
       "plan the grid configs whose index is I mod N", 0},
      {"num-shards", &num_shards, "N, the number of shards (default 1)", 1},
      p2::engine::SystemFlag(&system),
      p2::engine::NodesFlag(&nodes),
      {"service-threads", &service_options.threads,
       "size of the worker's service pool (default 2)", 1, p2::kMaxFlagThreads},
      {"cache-port", &cache_port, "consult the cache plane on this port", 1,
       65535},
      {"cache-port-file", &cache_port_file,
       "poll PATH (~30 s) for the cache plane's port"},
      {"out", &out_path, "write the shard blocks to PATH (default stdout)"},
      {"merge", &merge, "merge the shard FILEs instead of planning"},
  };
  std::string error;
  if (!p2::ParseFlags({argv + 1, argv + argc}, flags,
                      "p2_shard: distributed experiment-grid worker + merger\n"
                      "\n"
                      "usage: p2_shard --shard-index=I --num-shards=N [FLAGS]\n"
                      "       p2_shard --merge [FLAGS] FILE...\n",
                      &merge_files, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const p2::topology::Cluster cluster = p2::engine::ClusterFromPreset(
      p2::engine::TopologyPreset{system, nodes});
  const auto grid = p2::engine::FullGrid(cluster);
  if (merge) return RunMerge(grid.size(), out_path, merge_files);
  if (!merge_files.empty()) {
    std::fprintf(stderr, "p2_shard: positional files need --merge\n");
    return 2;
  }
  if (shard_index >= num_shards) {
    std::fprintf(stderr,
                 "p2_shard: --shard-index must be less than --num-shards\n");
    return 2;
  }
  if (!cache_port_file.empty()) {
    cache_port = p2::server::PortFromFile(cache_port_file);
    if (cache_port < 0) {
      std::fprintf(stderr, "p2_shard: no port appeared in %s\n",
                   cache_port_file.c_str());
      return 1;
    }
  }

  const auto indices = p2::engine::ShardIndices(
      grid.size(), shard_index, num_shards);

  if (cache_port >= 0) {
    service_options.remote_cache =
        std::make_shared<p2::server::RemoteCacheClient>(cache_port);
  }
  p2::engine::PlannerService service(service_options);

  std::string output;
  try {
    for (const std::size_t i : indices) {
      p2::engine::PlanRequest request;
      request.cluster = cluster;
      request.axes = grid[i].axes;
      request.reduction_axes = grid[i].reduction_axes;
      const p2::engine::ExperimentResult result =
          service.Plan(std::move(request));
      output += p2::engine::RenderShardBlock(p2::engine::ShardBlock{
          static_cast<std::int64_t>(i), grid[i].ToString(),
          p2::engine::CanonicalResultText(result)});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2_shard: plan failed: %s\n", e.what());
    return 1;
  }

  if (!WriteOutput(out_path, output)) return 1;
  const p2::engine::PlannerServiceStats stats = service.stats();
  std::printf(
      "p2_shard[%d/%d]: %zu configs, remote_hits=%lld remote_errors=%lld "
      "synthesized=%lld\n",
      shard_index, num_shards, indices.size(),
      static_cast<long long>(stats.cache.remote_hits),
      static_cast<long long>(stats.cache.remote_errors),
      static_cast<long long>(stats.cache.misses));
  return 0;
}
