// Differential test for cross-run cache persistence (ISSUE 3, re-homed
// under the planning service in ISSUE 4): a cold experiment grid is run,
// saved, and re-run warm from disk by a fresh PlannerService (standing in
// for a second planner process). The warm run must be byte-identical modulo
// wall-clock — same programs, predictions and measurements, same report
// table — while reporting synthesis_seconds == 0 for every cached signature
// and serving every hierarchy as a disk hit.
#include <gtest/gtest.h>

#include <unistd.h>

#include "test_temp_path.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/cli.h"
#include "engine/json_export.h"
#include "engine/report.h"
#include "engine/service.h"
#include "engine/synthesis_cache.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

std::string TempPath(const std::string& tag) {
  return p2::test::TempPath("p2_pipeline_persistence_test", tag);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
}

// A small grid whose experiments share synthesis hierarchies, exercising
// in-run dedup and cross-run persistence together.
struct GridConfig {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
};

std::vector<GridConfig> SmallGrid() {
  return {{{8, 2, 2}, {0}}, {{8, 4}, {0}}, {{4, 8}, {1}}};
}

// Strips the wall-clock fields (the only run-to-run nondeterminism, plus the
// cache-state-dependent hit counters) so cold and warm runs can be compared
// byte for byte via their JSON form.
ExperimentResult WithoutTimings(ExperimentResult result) {
  for (auto& p : result.placements) {
    p.synthesis_seconds = 0.0;
    p.synthesis_stats.seconds = 0.0;
  }
  result.pipeline = PipelineStats{};
  return result;
}

PlannerServiceOptions PersistentOptions(const std::string& path,
                                        bool readonly = false) {
  PlannerServiceOptions options;
  options.threads = 2;
  options.cache_file = path;
  options.cache_readonly = readonly;
  options.engine = FastOptions();
  return options;
}

PlanRequest RequestFor(
    const std::vector<std::int64_t>& axes, const std::vector<int>& reduce,
    const topology::Cluster& cluster = topology::MakeA100Cluster(2)) {
  PlanRequest request;
  request.axes = axes;
  request.reduction_axes = reduce;
  request.cluster = cluster;
  return request;
}

TEST(PipelinePersistence, WarmRunIsByteIdenticalWithZeroSynthesisSeconds) {
  const std::string path = TempPath("differential");
  const auto grid = SmallGrid();

  // Cold run: nothing on disk yet.
  std::vector<ExperimentResult> cold;
  {
    PlannerService service(PersistentOptions(path));
    EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kNoFile);
    EXPECT_EQ(service.cache_entries_loaded(), 0);
    for (const auto& cfg : grid) {
      cold.push_back(service.Plan(RequestFor(cfg.axes, cfg.reduction_axes)));
    }
    for (const auto& result : cold) {
      EXPECT_EQ(result.pipeline.cache.disk_hits, 0);
    }
    ASSERT_TRUE(service.SaveCache());
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  // Warm run: a fresh service — a different "process" — reads the file.
  PlannerService service(PersistentOptions(path));
  EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kOk);
  EXPECT_GT(service.cache_entries_loaded(), 0);
  std::vector<ExperimentResult> warm;
  for (const auto& cfg : grid) {
    warm.push_back(service.Plan(RequestFor(cfg.axes, cfg.reduction_axes)));
  }

  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t e = 0; e < warm.size(); ++e) {
    // Byte-identical results once wall-clock is stripped.
    EXPECT_EQ(ToJson(WithoutTimings(warm[e])), ToJson(WithoutTimings(cold[e])))
        << "experiment " << e;
    // Every signature came off disk: no synthesis ran at all...
    EXPECT_EQ(warm[e].pipeline.cache.misses, 0) << "experiment " << e;
    EXPECT_EQ(warm[e].pipeline.cache.disk_hits,
              warm[e].pipeline.cache.hits)
        << "experiment " << e;
    EXPECT_GT(warm[e].pipeline.cache.disk_hits, 0) << "experiment " << e;
    EXPECT_GE(warm[e].pipeline.cache.disk_seconds_saved, 0.0);
    // ...so every cached placement reports zero synthesis time.
    for (const auto& p : warm[e].placements) {
      EXPECT_EQ(p.synthesis_seconds, 0.0) << "experiment " << e;
      EXPECT_EQ(p.synthesis_stats.seconds, 0.0) << "experiment " << e;
    }
  }
  // The preload is a property of the service, reported once — not repeated
  // per experiment like the old PipelineStats field.
  EXPECT_EQ(service.stats().cache_entries_loaded,
            service.cache_entries_loaded());
  std::filesystem::remove(path);
}

TEST(PipelinePersistence, ReportTableIsByteIdenticalColdVsWarm) {
  const std::string path = TempPath("report");
  std::string error;
  const std::vector<std::string> args = {
      "--axes=8,4",    "--reduce=0",
      "--nodes=2",     "--payload-mb=100",
      "--top-k=3",     "--cache-file=" + path};
  const auto options = ParseCliOptions(args, &error);
  ASSERT_TRUE(options.has_value()) << error;

  std::string cold_output;
  ASSERT_EQ(RunCli(*options, &cold_output), 0);
  std::string warm_output;
  ASSERT_EQ(RunCli(*options, &warm_output), 0);

  // The ranked table (everything before the pipeline-stats footer) is fully
  // deterministic and must not change when synthesis is skipped.
  const auto table_of = [](const std::string& output) {
    const auto footer = output.find("\npipeline:");
    return output.substr(0, footer);
  };
  EXPECT_EQ(table_of(warm_output), table_of(cold_output));
  // The warm footer reports the disk hits the cold run could not have had.
  EXPECT_EQ(cold_output.find("disk hits"), std::string::npos);
  EXPECT_NE(warm_output.find("disk hits"), std::string::npos);
  EXPECT_NE(warm_output.find("entries loaded"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(PipelinePersistence, ReadonlyNeverCreatesOrModifiesTheFile) {
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> reduce = {0};

  // Readonly against a missing file: runs cold, never creates the file.
  const std::string missing = TempPath("readonly_missing");
  {
    PlannerService service(PersistentOptions(missing, /*readonly=*/true));
    EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kNoFile);
    const auto result = service.Plan(RequestFor(axes, reduce));
    EXPECT_GT(result.pipeline.cache.misses, 0);
    EXPECT_TRUE(service.SaveCache());  // a successful no-op
  }
  EXPECT_FALSE(std::filesystem::exists(missing));

  // Readonly against an existing file: serves disk hits, leaves the bytes
  // untouched even though the run synthesized nothing new to add.
  const std::string path = TempPath("readonly");
  {
    PlannerService writer(PersistentOptions(path));
    writer.Plan(RequestFor(axes, reduce));
    ASSERT_TRUE(writer.SaveCache());
  }
  const std::string bytes_before = ReadFile(path);
  {
    PlannerService reader(PersistentOptions(path, /*readonly=*/true));
    EXPECT_EQ(reader.cache_load_status(), CacheLoadStatus::kOk);
    const auto result = reader.Plan(RequestFor(axes, reduce));
    EXPECT_EQ(result.pipeline.cache.misses, 0);
    EXPECT_GT(result.pipeline.cache.disk_hits, 0);
    // Even new synthesis results must not leak to disk under readonly.
    const std::vector<std::int64_t> other_axes = {4, 8};
    const std::vector<int> other_reduce = {1};
    reader.Plan(RequestFor(other_axes, other_reduce));
    EXPECT_TRUE(reader.SaveCache());
  }
  EXPECT_EQ(ReadFile(path), bytes_before);
  std::filesystem::remove(path);
}

TEST(PipelinePersistence, CorruptFileRunsColdAndIsRepairedOnSave) {
  const std::string path = TempPath("corrupt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a cache file";
  }
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> reduce = {0};
  {
    PlannerService service(PersistentOptions(path));
    EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kBadMagic);
    EXPECT_TRUE(IsCorrupt(service.cache_load_status()));
    EXPECT_FALSE(service.cache_load_message().empty());
    // Cold, not a crash.
    const auto result = service.Plan(RequestFor(axes, reduce));
    EXPECT_GT(result.pipeline.cache.misses, 0);
    ASSERT_TRUE(service.SaveCache());  // save-over-corrupt recovers
  }
  PlannerService service(PersistentOptions(path));
  EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kOk);
  const auto result = service.Plan(RequestFor(axes, reduce));
  EXPECT_EQ(result.pipeline.cache.misses, 0);
  EXPECT_GT(result.pipeline.cache.disk_hits, 0);
  std::filesystem::remove(path);
}

TEST(PipelinePersistence, SingleClusterFileWarmsAMultiTenantService) {
  // ISSUE 5: the persisted cache is keyed by hierarchy signature, which is
  // cluster-independent — so a file written by a classic single-cluster run
  // warms EVERY tenant of a multi-tenant service whose placements pose the
  // same synthesis problems.
  const std::string path = TempPath("multi_tenant_warm");
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> reduce = {0};

  // Writer: a dedicated single-cluster service on the A100 system.
  {
    PlannerService writer(PersistentOptions(path));
    writer.Plan(RequestFor(axes, reduce));
    ASSERT_TRUE(writer.SaveCache());
  }

  // Reader: a multi-tenant service serving the A100 *and* a V100 cluster.
  // The V100 tenant's (8, 4) placements factor the reduction axis the same
  // way over an equally-deep hierarchy, so even the tenant the writer never
  // saw is served from disk.
  PlannerService service(PersistentOptions(path, /*readonly=*/true));
  EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kOk);
  EXPECT_GT(service.cache_entries_loaded(), 0);

  const auto a100_result = service.Plan(RequestFor(axes, reduce));
  EXPECT_EQ(a100_result.pipeline.cache.misses, 0);
  EXPECT_GT(a100_result.pipeline.cache.disk_hits, 0);

  const PlanRequest on_v100 =
      RequestFor(axes, reduce, topology::MakeV100Cluster(4));
  const auto v100_result = service.Plan(on_v100);
  EXPECT_GT(v100_result.pipeline.cache.disk_hits, 0)
      << "the V100 tenant must reuse hierarchies the A100 run persisted";
  // Disk-warmed results still match a cold dedicated service bit for bit.
  PlannerServiceOptions cold_options;
  cold_options.engine = FastOptions();
  PlannerService cold(cold_options);
  EXPECT_EQ(ToJson(WithoutTimings(v100_result)),
            ToJson(WithoutTimings(cold.Plan(on_v100))));
  std::filesystem::remove(path);
}

TEST(PipelinePersistence, TtlExpiresStaleEntriesAndSparesStamplessOnes) {
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> reduce = {0};
  const std::string fresh_path = TempPath("ttl_fresh");
  {
    PlannerService writer(PersistentOptions(fresh_path));
    writer.Plan(RequestFor(axes, reduce));
    ASSERT_TRUE(writer.SaveCache());
  }

  // Every persisted entry carries a save stamp (format v2); the injected
  // clock then probes both sides of the TTL boundary deterministically.
  std::uint64_t stamp = 0;
  {
    CacheStore probe(fresh_path);
    const CacheFileContents contents = probe.Load();
    ASSERT_EQ(contents.status, CacheLoadStatus::kOk);
    ASSERT_FALSE(contents.entries.empty());
    for (const CacheFileEntry& entry : contents.entries) {
      EXPECT_GT(entry.saved_unix_seconds, 0u);
      stamp = std::max(stamp, entry.saved_unix_seconds);
    }
  }
  {
    CacheStore store(fresh_path);
    store.set_ttl_seconds(100);
    store.set_clock_for_test([stamp] { return stamp + 99; });  // within TTL
    SynthesisCache cache;
    EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kOk);
    EXPECT_EQ(store.entries_expired(), 0);
    EXPECT_GT(store.entries_loaded(), 0);
  }
  {
    CacheStore store(fresh_path);
    store.set_ttl_seconds(100);
    store.set_clock_for_test([stamp] { return stamp + 101; });  // past TTL
    SynthesisCache cache;
    EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kOk);
    EXPECT_EQ(store.entries_loaded(), 0);
    EXPECT_GT(store.entries_expired(), 0);
  }

  // Service level (the --cache-ttl-seconds path): a file whose stamps are
  // ancient runs cold, counts the expiry in the stats and the report, and
  // re-synthesizes instead of serving stale entries.
  const std::string stale_path = TempPath("ttl_stale");
  {
    CacheStore reader(fresh_path);
    SynthesisCache cache;
    ASSERT_EQ(reader.LoadInto(&cache), CacheLoadStatus::kOk);
    CacheStore stale(stale_path);
    stale.set_clock_for_test([] { return std::uint64_t{100}; });  // in 1970
    ASSERT_TRUE(stale.Save(cache));
  }
  {
    PlannerServiceOptions options = PersistentOptions(stale_path);
    options.cache_ttl_seconds = 3600;
    PlannerService service(options);
    EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kOk);
    EXPECT_EQ(service.cache_entries_loaded(), 0);
    EXPECT_GT(service.stats().cache_entries_expired, 0);
    const auto result = service.Plan(RequestFor(axes, reduce));
    EXPECT_GT(result.pipeline.cache.misses, 0);
    EXPECT_EQ(result.pipeline.cache.disk_hits, 0);
    EXPECT_NE(RenderServiceStats(service.stats()).find("expired"),
              std::string::npos);
  }

  // Stampless (v1-era) entries have unknown age: never expired.
  const std::string stampless_path = TempPath("ttl_stampless");
  {
    CacheStore reader(fresh_path);
    SynthesisCache cache;
    ASSERT_EQ(reader.LoadInto(&cache), CacheLoadStatus::kOk);
    CacheStore stampless(stampless_path);
    stampless.set_clock_for_test([] { return std::uint64_t{0}; });
    ASSERT_TRUE(stampless.Save(cache));
  }
  {
    PlannerServiceOptions options = PersistentOptions(stampless_path);
    options.cache_ttl_seconds = 1;
    PlannerService service(options);
    EXPECT_GT(service.cache_entries_loaded(), 0);
    EXPECT_EQ(service.stats().cache_entries_expired, 0);
    const auto result = service.Plan(RequestFor(axes, reduce));
    EXPECT_EQ(result.pipeline.cache.misses, 0);
    EXPECT_GT(result.pipeline.cache.disk_hits, 0);
  }
  std::filesystem::remove(fresh_path);
  std::filesystem::remove(stale_path);
  std::filesystem::remove(stampless_path);
}

TEST(PipelinePersistence, SecondsSavedAccumulateAcrossRuns) {
  const std::string path = TempPath("accounting");
  const std::vector<std::int64_t> axes = {8, 2, 2};
  const std::vector<int> reduce = {0};

  // Serial, so the savings accumulate in a deterministic order.
  PlannerServiceOptions options = PersistentOptions(path);
  options.threads = 1;

  double cold_counterfactual = 0.0;
  {
    PlannerService service(options);
    const auto result = service.Plan(RequestFor(axes, reduce));
    cold_counterfactual = result.TotalSynthesisSeconds();
    ASSERT_TRUE(service.SaveCache());
  }
  PlannerService service(options);
  const auto result = service.Plan(RequestFor(axes, reduce));
  // The warm run's cross-run savings equal the cold run's counterfactual
  // synthesis cost: each placement's hit re-credits its persisted seconds.
  // NEAR, not DOUBLE_EQ, out of caution: both sides sum the same doubles,
  // but via differently-ordered accumulations they could reassociate.
  EXPECT_NEAR(result.pipeline.cache.disk_seconds_saved, cold_counterfactual,
              1e-9);
  // These two accumulate in the same statements, so they are bitwise equal.
  EXPECT_DOUBLE_EQ(result.pipeline.cache.seconds_saved,
                   result.pipeline.cache.disk_seconds_saved);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace p2::engine
