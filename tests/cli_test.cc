#include "engine/cli.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include "test_temp_path.h"

#include <cctype>
#include <filesystem>
#include <fstream>

namespace p2::engine {
namespace {

std::string TempPath(const std::string& tag) {
  return p2::test::TempPath("p2_cli_test", tag);
}

std::optional<CliOptions> Parse(std::initializer_list<const char*> args,
                                std::string* error) {
  std::vector<std::string> v;
  for (const char* a : args) v.emplace_back(a);
  return ParseCliOptions(v, error);
}

TEST(Cli, ParsesFullCommandLine) {
  std::string error;
  const auto opts = Parse({"--system=v100", "--nodes=4", "--axes=8,2,2",
                           "--reduce=0,2", "--algo=tree", "--payload-mb=512",
                           "--top-k=5", "--fuse"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->system, "v100");
  EXPECT_EQ(opts->nodes, 4);
  EXPECT_EQ(opts->axes, (std::vector<std::int64_t>{8, 2, 2}));
  EXPECT_EQ(opts->reduction_axes, (std::vector<int>{0, 2}));
  EXPECT_EQ(opts->algo, core::NcclAlgo::kTree);
  EXPECT_DOUBLE_EQ(opts->payload_mb, 512.0);
  EXPECT_EQ(opts->top_k, 5);
  EXPECT_TRUE(opts->fuse);
}

TEST(Cli, DefaultsAreSane) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->system, "a100");
  EXPECT_EQ(opts->nodes, 2);
  EXPECT_EQ(opts->algo, core::NcclAlgo::kRing);
  EXPECT_EQ(opts->top_k, 0);
  EXPECT_FALSE(opts->fuse);
}

TEST(Cli, HelpProducesUsage) {
  std::string error;
  EXPECT_FALSE(Parse({"--help"}, &error).has_value());
  EXPECT_NE(error.find("usage:"), std::string::npos);
}

TEST(Cli, RejectsMissingAxes) {
  std::string error;
  EXPECT_FALSE(Parse({"--reduce=0"}, &error).has_value());
  EXPECT_NE(error.find("--axes"), std::string::npos);
}

TEST(Cli, RejectsMissingReduce) {
  std::string error;
  EXPECT_FALSE(Parse({"--axes=8,4"}, &error).has_value());
  EXPECT_NE(error.find("--reduce"), std::string::npos);
}

TEST(Cli, RejectsBadValues) {
  std::string error;
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--system=h100"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--algo=mesh"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--axes=8,x", "--reduce=0"}, &error).has_value());
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=5"}, &error).has_value());
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--nodes=0"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "bogus"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--axes=-8,4", "--reduce=0"}, &error).has_value());
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--service-threads=100000"}, &error)
          .has_value());
}

TEST(Cli, RejectsValuesThatWouldNarrowToInt) {
  // Each of these once parsed as 2^32 + x read as x: a different, valid
  // plan (reduce axis 0, 2 nodes, an a100:1 grid, top-1).
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"--nodes=2", "--axes=8,4", "--reduce=4294967296"}, "--reduce"},
      {{"--nodes=4294967298", "--axes=8,4", "--reduce=0"}, "--nodes"},
      {{"--topology=a100:4294967297", "--grid"}, "--topology"},
      {{"--nodes=2", "--axes=8,4", "--reduce=0", "--top-k=4294967297"},
       "--top-k"},
  };
  for (const auto& [args, flag] : cases) {
    std::string error;
    EXPECT_FALSE(ParseCliOptions(args, &error).has_value()) << flag;
    EXPECT_EQ(error.rfind(flag + " ", 0), 0u) << error;
  }
}

TEST(Cli, ParsesServiceThreads) {
  std::string error;
  const auto opts = Parse(
      {"--axes=8,4", "--reduce=0", "--service-threads=6"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->service_threads, 6);
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--service-threads=0"}, &error)
          .has_value());
}

TEST(Cli, ParsesRobustnessFlags) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--deadline-ms=250",
                           "--max-in-flight=4", "--drain-grace-ms=100"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->deadline_ms, 250);
  EXPECT_EQ(opts->max_in_flight, 4);
  EXPECT_EQ(opts->drain_grace_ms, 100);
}

TEST(Cli, RobustnessFlagDefaultsAreOff) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->deadline_ms, 0);      // no deadline
  EXPECT_EQ(opts->max_in_flight, 0);    // unbounded admission
  EXPECT_EQ(opts->drain_grace_ms, -1);  // drain waits indefinitely
}

TEST(Cli, DrainGraceZeroIsValid) {
  // 0 is meaningful — cancel in-flight work the moment the drain starts —
  // and must not be folded into "unset".
  std::string error;
  const auto opts =
      Parse({"--axes=8,4", "--reduce=0", "--drain-grace-ms=0"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->drain_grace_ms, 0);
}

TEST(Cli, RejectsBadRobustnessValues) {
  std::string error;
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--deadline-ms=0"}, &error)
                   .has_value());
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--deadline-ms=x"}, &error)
                   .has_value());
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--max-in-flight=-1"}, &error)
          .has_value());
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--drain-grace-ms=-1"}, &error)
          .has_value());
  // A mistyped flag hits the generic unrecognized-flag path, not a silent
  // accept.
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--deadline=250"}, &error)
                   .has_value());
  EXPECT_NE(error.find("unrecognized"), std::string::npos) << error;
}

TEST(Cli, GridExcludesExplicitConfig) {
  std::string error;
  const auto opts = Parse({"--grid", "--nodes=1"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;  // --grid needs no --axes/--reduce
  EXPECT_TRUE(opts->grid);
  EXPECT_FALSE(Parse({"--grid", "--axes=8,4", "--reduce=0"}, &error)
                   .has_value());
  EXPECT_NE(error.find("--grid"), std::string::npos);
  // --fuse has no effect on the grid summary; silently accepting it would
  // mislead.
  EXPECT_FALSE(Parse({"--grid", "--fuse"}, &error).has_value());
  EXPECT_NE(error.find("--fuse"), std::string::npos);
}

TEST(Cli, GridRunPlansEveryConfigThroughOneService) {
  std::string error;
  const auto opts = Parse({"--grid", "--nodes=1", "--payload-mb=100",
                           "--top-k=2", "--service-threads=4"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);
  EXPECT_NE(output.find("Config"), std::string::npos);
  // Single-axis, two-axis and three-axis configs all present.
  EXPECT_NE(output.find("[16] reduce 0"), std::string::npos);
  EXPECT_NE(output.find("[2 8] reduce 1"), std::string::npos);
  EXPECT_NE(output.find("[2 2 4] reduce 0 2"), std::string::npos);
  // The service footer renders exactly once, with the cross-query totals.
  const auto first = output.find("\nservice:");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(output.find("\nservice:", first + 1), std::string::npos);
}

TEST(Cli, ParsesTopologyPresets) {
  std::string error;
  // Comma-separated and repeated flags both append.
  const auto opts = Parse({"--grid", "--topology=a100:2,v100:2",
                           "--topology=v100:4"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  ASSERT_EQ(opts->topologies.size(), 3u);
  EXPECT_EQ(opts->topologies[0], (TopologyPreset{"a100", 2}));
  EXPECT_EQ(opts->topologies[1], (TopologyPreset{"v100", 2}));
  EXPECT_EQ(opts->topologies[2], (TopologyPreset{"v100", 4}));
  EXPECT_EQ(ClusterFromPreset(opts->topologies[0]).num_devices(), 32);
  EXPECT_EQ(ClusterFromPreset(opts->topologies[1]).num_devices(), 16);
}

TEST(Cli, SingleTopologyPresetIsSystemNodesShorthand) {
  std::string error;
  const auto opts = Parse({"--topology=v100:4", "--axes=8,4", "--reduce=0"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->system, "v100");
  EXPECT_EQ(opts->nodes, 4);
}

TEST(Cli, RejectsBadTopologySpecs) {
  std::string error;
  EXPECT_FALSE(Parse({"--grid", "--topology=a100"}, &error).has_value());
  EXPECT_NE(error.find("SYS:NODES"), std::string::npos);
  EXPECT_FALSE(Parse({"--grid", "--topology=h100:2"}, &error).has_value());
  EXPECT_FALSE(Parse({"--grid", "--topology=a100:0"}, &error).has_value());
  EXPECT_FALSE(Parse({"--grid", "--topology="}, &error).has_value());
  // Duplicates would double-report one tenant's grid.
  EXPECT_FALSE(
      Parse({"--grid", "--topology=a100:2,a100:2"}, &error).has_value());
  EXPECT_NE(error.find("twice"), std::string::npos);
  // Mixing the two cluster-selection forms is ambiguous.
  EXPECT_FALSE(
      Parse({"--grid", "--topology=a100:2", "--nodes=4"}, &error).has_value());
  EXPECT_NE(error.find("--system/--nodes"), std::string::npos);
  // Several presets mean several device counts: only --grid fits.
  EXPECT_FALSE(Parse({"--topology=a100:2,v100:2", "--axes=8,4", "--reduce=0"},
                     &error)
                   .has_value());
  EXPECT_NE(error.find("--grid"), std::string::npos);
}

TEST(Cli, ParsesCacheMaxEntries) {
  std::string error;
  const auto opts = Parse(
      {"--axes=8,4", "--reduce=0", "--cache-max-entries=64"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->cache_max_entries, 64);
  const auto defaults = Parse({"--axes=8,4", "--reduce=0"}, &error);
  ASSERT_TRUE(defaults.has_value()) << error;
  EXPECT_EQ(defaults->cache_max_entries, 0);  // unbounded
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--cache-max-entries=0"}, &error)
          .has_value());
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--cache-max-entries=x"}, &error)
          .has_value());
}

TEST(Cli, MultiTopologyGridPlansEveryClusterThroughOneService) {
  std::string error;
  // a100:1 (16 GPUs, [1 16]) and v100:2 (16 GPUs, [2 8]): their grids both
  // contain 8-wide reduction axes whose factorizations coincide, so the
  // shared multi-tenant service must report cross-tenant cache hits.
  const auto opts = Parse({"--grid", "--topology=a100:1,v100:2",
                           "--payload-mb=100", "--top-k=1",
                           "--service-threads=4"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);
  // One per-tenant section per preset...
  EXPECT_NE(output.find("1 nodes, each with 16 A100"), std::string::npos);
  EXPECT_NE(output.find("2 nodes, each with 8 V100"), std::string::npos);
  // ...with each tenant's own grid table.
  EXPECT_NE(output.find("[16] reduce 0"), std::string::npos);  // a100:1
  EXPECT_NE(output.find("[2 8] reduce 1"), std::string::npos);
  // The service footer renders exactly once, with per-tenant rows and the
  // cross-tenant sharing the single shared cache produced.
  const auto first = output.find("\nservice:");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(output.find("\nservice:", first + 1), std::string::npos);
  EXPECT_NE(output.find("cross-tenant hits"), std::string::npos);
  EXPECT_NE(output.find("tenant 0 ["), std::string::npos);
  EXPECT_NE(output.find("tenant 1 ["), std::string::npos);
}

TEST(Cli, ParsesCacheFlags) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0",
                           "--cache-file=/tmp/p2.cache", "--cache-readonly"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->cache_file, "/tmp/p2.cache");
  EXPECT_TRUE(opts->cache_readonly);

  const auto defaults = Parse({"--axes=8,4", "--reduce=0"}, &error);
  ASSERT_TRUE(defaults.has_value()) << error;
  EXPECT_TRUE(defaults->cache_file.empty());
  EXPECT_FALSE(defaults->cache_readonly);
}

TEST(Cli, CacheReadonlyRequiresCacheFile) {
  std::string error;
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--cache-readonly"}, &error)
          .has_value());
  EXPECT_NE(error.find("--cache-file"), std::string::npos);
}

TEST(Cli, RejectsEmptyCacheFilePath) {
  std::string error;
  EXPECT_FALSE(
      Parse({"--axes=8,4", "--reduce=0", "--cache-file="}, &error)
          .has_value());
  EXPECT_NE(error.find("--cache-file"), std::string::npos);
}

TEST(Cli, UnknownFlagsErrorInsteadOfBeingIgnored) {
  std::string error;
  // Keyed form.
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--bogus=1"}, &error)
                   .has_value());
  EXPECT_NE(error.find("unrecognized flag: --bogus"), std::string::npos);
  // Bare form — a mistyped boolean flag must not silently change the plan.
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "--fusee"}, &error)
                   .has_value());
  EXPECT_NE(error.find("unrecognized flag: --fusee"), std::string::npos);
  // Non-flag junk keeps its own message.
  EXPECT_FALSE(Parse({"--axes=8,4", "--reduce=0", "fuse"}, &error)
                   .has_value());
  EXPECT_NE(error.find("unrecognized argument: fuse"), std::string::npos);
}

TEST(Cli, SystemAndNodesNameOnePreset) {
  std::string error;
  const auto a100 = Parse({"--axes=8,4", "--reduce=0", "--nodes=2"}, &error);
  ASSERT_TRUE(a100.has_value());
  EXPECT_EQ(ClusterFromPreset({a100->system, a100->nodes}).num_devices(), 32);
  const auto v100 = Parse({"--system=v100", "--nodes=4", "--axes=8,4",
                           "--reduce=0"},
                          &error);
  ASSERT_TRUE(v100.has_value());
  EXPECT_EQ(ClusterFromPreset({v100->system, v100->nodes}).num_devices(), 32);
}

TEST(Cli, RunReportsAxisMismatch) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--nodes=4"}, &error);
  ASSERT_TRUE(opts.has_value());
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 1);
  EXPECT_NE(output.find("error"), std::string::npos);
}

TEST(Cli, RunProducesRankedTable) {
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--nodes=2",
                           "--payload-mb=100", "--top-k=5"},
                          &error);
  ASSERT_TRUE(opts.has_value());
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);
  EXPECT_NE(output.find("Placement"), std::string::npos);
  EXPECT_NE(output.find("[[1 8] [2 2]]"), std::string::npos);
  EXPECT_NE(output.find("Speedup"), std::string::npos);
}

TEST(Cli, RunWarmStartsFromACacheFile) {
  const std::string path = TempPath("warm");
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--nodes=2",
                           "--payload-mb=100", "--top-k=3",
                           ("--cache-file=" + path).c_str()},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;

  std::string cold_output;
  ASSERT_EQ(RunCli(*opts, &cold_output), 0);
  EXPECT_EQ(cold_output.find("disk hits"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(path));

  std::string warm_output;
  ASSERT_EQ(RunCli(*opts, &warm_output), 0);
  EXPECT_NE(warm_output.find("entries loaded"), std::string::npos);
  // The reported disk-hit count must be a nonzero integer (parsed, not a
  // substring check — "10 disk hits" contains "0 disk hits").
  const auto marker = warm_output.find(" disk hits");
  ASSERT_NE(marker, std::string::npos);
  auto digits_begin = marker;
  while (digits_begin > 0 &&
         std::isdigit(static_cast<unsigned char>(warm_output[digits_begin - 1]))) {
    --digits_begin;
  }
  ASSERT_LT(digits_begin, marker);
  EXPECT_GT(std::stoll(warm_output.substr(digits_begin, marker - digits_begin)),
            0);
  std::filesystem::remove(path);
}

TEST(Cli, RunReadonlyNeverCreatesTheCacheFile) {
  const std::string path = TempPath("readonly");
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--nodes=2",
                           "--payload-mb=100", "--top-k=3",
                           ("--cache-file=" + path).c_str(),
                           "--cache-readonly"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);  // cold but successful
  EXPECT_FALSE(std::filesystem::exists(path));
  // Readonly names a file the user expects to exist: running cold must not
  // be silent.
  EXPECT_NE(output.find("warning"), std::string::npos);
  EXPECT_NE(output.find("runs cold"), std::string::npos);
}

TEST(Cli, RunWarnsOnCorruptCacheFileAndStillPlans) {
  const std::string path = TempPath("corrupt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a cache file";
  }
  std::string error;
  const auto opts = Parse({"--axes=8,4", "--reduce=0", "--nodes=2",
                           "--payload-mb=100", "--top-k=3",
                           ("--cache-file=" + path).c_str()},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);
  EXPECT_NE(output.find("warning"), std::string::npos);
  EXPECT_NE(output.find("starting cold"), std::string::npos);
  EXPECT_NE(output.find("Placement"), std::string::npos);  // still planned

  // The save-over-corrupt rewrite left a loadable file behind.
  std::string warm_output;
  EXPECT_EQ(RunCli(*opts, &warm_output), 0);
  EXPECT_EQ(warm_output.find("warning"), std::string::npos);
  EXPECT_NE(warm_output.find("disk hits"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Cli, FuseAnnotatesFusiblePrograms) {
  std::string error;
  const auto opts = Parse({"--axes=4,4", "--reduce=0", "--nodes=2",
                           "--system=v100", "--payload-mb=100", "--fuse"},
                          &error);
  ASSERT_TRUE(opts.has_value());
  std::string output;
  EXPECT_EQ(RunCli(*opts, &output), 0);
}

}  // namespace
}  // namespace p2::engine
