#include "engine/report.h"

#include <gtest/gtest.h>

namespace p2::engine {
namespace {

ExperimentResult MakeResult(
    const std::vector<std::vector<std::pair<double, double>>>& placements) {
  ExperimentResult result;
  for (const auto& progs : placements) {
    PlacementEvaluation pe;
    pe.matrix =
        core::ParallelismMatrix(std::vector<std::vector<std::int64_t>>{{1}});
    for (const auto& [pred, meas] : progs) {
      ProgramEvaluation p;
      p.predicted_seconds = pred;
      p.measured_seconds = meas;
      pe.programs.push_back(p);
    }
    result.placements.push_back(std::move(pe));
  }
  return result;
}

TEST(Report, CollectPairsFlattens) {
  const auto result = MakeResult({{{1, 1}, {2, 2}}, {{3, 3}}});
  const auto pairs = CollectPairs(result);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[2].placement_index, 1);
  EXPECT_EQ(pairs[2].program_index, 0);
}

TEST(Report, PerfectPredictionRankZero) {
  const auto result = MakeResult({{{2, 2}, {1, 1}, {3, 3}}});
  EXPECT_EQ(MeasuredRankOfPredictedBest(CollectPairs(result)), 0);
}

TEST(Report, MispredictionGetsPositiveRank) {
  // Predicted best is the pair with pred=1 (meas=10); two pairs measure
  // faster than 10 => rank 2.
  const auto result = MakeResult({{{1, 10}, {2, 3}, {3, 5}, {4, 20}}});
  EXPECT_EQ(MeasuredRankOfPredictedBest(CollectPairs(result)), 2);
}

TEST(Report, AccuracyCounterTopK) {
  AccuracyCounter counter({1, 2, 10});
  counter.AddExperiment(MakeResult({{{1, 1}, {2, 2}}}));        // rank 0
  counter.AddExperiment(MakeResult({{{1, 10}, {2, 3}}}));        // rank 1
  counter.AddExperiment(MakeResult(
      {{{1, 10}, {2, 3}, {3, 4}, {4, 5}}}));                     // rank 3
  EXPECT_EQ(counter.total(), 3);
  EXPECT_DOUBLE_EQ(counter.Rate(0), 1.0 / 3.0);  // top-1
  EXPECT_DOUBLE_EQ(counter.Rate(1), 2.0 / 3.0);  // top-2
  EXPECT_DOUBLE_EQ(counter.Rate(2), 1.0);        // top-10
}

TEST(Report, AccuracyRatesMonotoneInK) {
  AccuracyCounter counter;
  counter.AddExperiment(MakeResult({{{1, 5}, {2, 3}, {3, 1}}}));
  for (std::size_t i = 1; i < counter.ks().size(); ++i) {
    EXPECT_GE(counter.Rate(i), counter.Rate(i - 1));
  }
}

TEST(Report, FormatSpeedup) {
  EXPECT_EQ(FormatSpeedup(1.0), "1x");
  EXPECT_EQ(FormatSpeedup(1.83), "1.83x");
  EXPECT_EQ(FormatSpeedup(2.044), "2.04x");
}

TEST(Report, ProgramShape) {
  const core::Program p = {
      core::Instruction{1, core::Form::InsideGroup(),
                        core::Collective::kReduceScatter},
      core::Instruction{1, core::Form::Parallel(0),
                        core::Collective::kAllReduce},
      core::Instruction{1, core::Form::InsideGroup(),
                        core::Collective::kAllGather}};
  EXPECT_EQ(ProgramShape(p), "RS-AR-AG");
}

TEST(Report, RankThrowsOnEmpty) {
  EXPECT_THROW(MeasuredRankOfPredictedBest({}), std::invalid_argument);
}

// Regression: the pipeline renderer appended the remote hits after it had
// already started the guided line, so they read as a guided figure.
TEST(Report, RemoteHitsStayOnThePipelineLine) {
  PipelineStats stats;
  stats.num_placements = 4;
  stats.unique_hierarchies = 2;
  stats.cache.hits = 3;
  stats.cache.misses = 1;
  stats.cache.remote_hits = 2;
  stats.guided_skipped = 5;
  const std::string rendered = RenderPipelineStats(stats);
  const std::string pipeline_line = rendered.substr(0, rendered.find('\n'));
  EXPECT_NE(pipeline_line.find(", 2 remote hits"), std::string::npos)
      << rendered;
  EXPECT_NE(
      rendered.find("\nguided: 5 measurements skipped by early stopping\n"),
      std::string::npos)
      << rendered;
}

// The pipeline:, service: and tenant lines phrase the cache counters with
// one renderer, so one record reads the same at every scope.
TEST(Report, OneCacheRenderingAtEveryScope) {
  SynthesisCacheStats cache;
  cache.hits = 9;
  cache.misses = 2;
  cache.disk_hits = 3;
  cache.remote_hits = 4;
  cache.remote_errors = 1;
  cache.subsumed_hits = 5;
  cache.deferred_lookups = 6;
  cache.continuations_fired = 6;
  cache.cross_tenant_hits = 7;
  cache.evictions = 8;
  const std::string segment =
      "cache 9 hits / 2 misses (0.00 s re-synthesis avoided), 3 disk hits "
      "(0.00 s saved across runs), 4 remote hits, 7 cross-tenant hits, 5 "
      "served by subsumption, 6 deferred lookups, 6 continuations fired, 8 "
      "evictions, 1 remote errors";

  PipelineStats pipeline;
  pipeline.cache = cache;
  EXPECT_NE(RenderPipelineStats(pipeline).find("unique hierarchies, " +
                                               segment + ", 1 thread"),
            std::string::npos)
      << RenderPipelineStats(pipeline);

  PlannerServiceStats service;
  service.cache = cache;
  TenantStats tenant;
  tenant.cache = cache;
  service.tenants = {tenant, tenant};
  const std::string rendered = RenderServiceStats(service);
  std::size_t lines = 0;
  for (auto at = rendered.find(segment); at != std::string::npos;
       at = rendered.find(segment, at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 3u) << rendered;  // the service line and both tenants
}

TEST(Report, ServiceStatsRenderRobustnessCountersOnlyWhenNonzero) {
  PlannerServiceStats stats;
  stats.requests = 3;
  // A clean run renders the classic footer, no robustness lines.
  const auto clean = RenderServiceStats(stats);
  EXPECT_EQ(clean.find("admission:"), std::string::npos);
  EXPECT_EQ(clean.find("aborted:"), std::string::npos);

  stats.rejected = 2;
  stats.peak_in_flight = 4;
  stats.cancelled = 1;
  stats.deadline_exceeded = 3;
  const auto hardened = RenderServiceStats(stats);
  EXPECT_NE(hardened.find("admission: 2 rejected, peak 4 in flight"),
            std::string::npos)
      << hardened;
  EXPECT_NE(hardened.find("aborted: 1 cancelled, 3 deadline-exceeded"),
            std::string::npos)
      << hardened;
}

TEST(Report, TenantRowsRenderRobustnessCounters) {
  PlannerServiceStats stats;
  stats.requests = 2;
  TenantStats calm;
  calm.id = 0;
  calm.cluster = "calm";
  calm.requests = 1;
  TenantStats noisy;
  noisy.id = 1;
  noisy.cluster = "noisy";
  noisy.requests = 1;
  noisy.rejected = 5;
  noisy.cancelled = 2;
  noisy.deadline_exceeded = 1;
  stats.tenants = {calm, noisy};

  const auto rendered = RenderServiceStats(stats);
  EXPECT_NE(rendered.find("5 rejected"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("2 cancelled"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("1 deadline-exceeded"), std::string::npos)
      << rendered;
  // The calm tenant's row stays free of robustness segments.
  const auto calm_row = rendered.find("tenant 0 [calm]");
  const auto noisy_row = rendered.find("tenant 1 [noisy]");
  ASSERT_NE(calm_row, std::string::npos);
  ASSERT_NE(noisy_row, std::string::npos);
  EXPECT_EQ(rendered.substr(calm_row, noisy_row - calm_row).find("rejected"),
            std::string::npos);
}

}  // namespace
}  // namespace p2::engine
