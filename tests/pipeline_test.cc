// The staged evaluation pipeline (ISSUE 1, re-homed under the planning
// service in ISSUE 4): dedup-by-signature synthesis reuse, parallel
// placement evaluation with deterministic merge, and the unmeasured-program
// safety fixes in PlacementEvaluation.
#include "engine/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/json_export.h"
#include "engine/service.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
}

// Axes (8, 2, 2) on 2 A100 nodes: 3 placements, of which the two spreading
// the reduction axis as (1, 8) are isomorphic — 2 unique signatures.
const std::vector<std::int64_t> kAxes = {8, 2, 2};
const std::vector<int> kReduce = {0};

PlannerServiceOptions ServiceOptions(int threads) {
  PlannerServiceOptions options;
  options.threads = threads;
  options.engine = FastOptions();
  return options;
}

// kAxes reduced over kReduce on 2 A100 nodes.
PlanRequest Request() {
  PlanRequest request;
  request.axes = kAxes;
  request.reduction_axes = kReduce;
  request.cluster = topology::MakeA100Cluster(2);
  return request;
}

// Strips the wall-clock fields (the only run-to-run nondeterminism) so runs
// can be compared byte for byte via their JSON form.
ExperimentResult WithoutTimings(ExperimentResult result) {
  for (auto& p : result.placements) {
    p.synthesis_seconds = 0.0;
    p.synthesis_stats.seconds = 0.0;
  }
  result.pipeline = PipelineStats{};
  return result;
}

TEST(Pipeline, ResultIsIdenticalAtAnyThreadCount) {
  PlannerService serial(ServiceOptions(1));
  const std::string reference = ToJson(WithoutTimings(serial.Plan(Request())));
  EXPECT_NE(reference.find("\"placements\":["), std::string::npos);
  for (int threads : {4, 8}) {
    PlannerService parallel(ServiceOptions(threads));
    EXPECT_EQ(ToJson(WithoutTimings(parallel.Plan(Request()))), reference)
        << "threads=" << threads;
  }
}

TEST(Pipeline, MatchesTheCachelessSerialPath) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  PlannerService cached_service(ServiceOptions(4));
  // The reference: every placement synthesized for itself, serially.
  ExperimentResult monolith;
  monolith.axes = kAxes;
  monolith.reduction_axes = kReduce;
  monolith.algo = eng.options().algo;
  monolith.payload_bytes = eng.payload_bytes();
  for (const auto& matrix : eng.SynthesizePlacements(kAxes)) {
    monolith.placements.push_back(eng.EvaluatePlacement(matrix, kReduce));
  }
  EXPECT_EQ(
      ToJson(WithoutTimings(cached_service.Plan(Request()))),
      ToJson(WithoutTimings(std::move(monolith))));
}

TEST(Pipeline, DedupsIsomorphicHierarchies) {
  PlannerService service(ServiceOptions(2));
  const auto result = service.Plan(Request());
  ASSERT_EQ(result.placements.size(), 3u);
  EXPECT_EQ(result.pipeline.num_placements, 3);
  EXPECT_EQ(result.pipeline.unique_hierarchies, 2);
  EXPECT_EQ(result.pipeline.cache.misses, 2);
  EXPECT_EQ(result.pipeline.cache.hits, 1);
  EXPECT_GE(result.pipeline.cache.seconds_saved, 0.0);
  EXPECT_EQ(result.pipeline.threads, 2);
  // The deduped placements carry the full program set nevertheless.
  for (const auto& p : result.placements) {
    EXPECT_GE(p.programs.size(), 2u);
    EXPECT_TRUE(p.programs.front().is_default_allreduce);
  }
}

TEST(Pipeline, CachePersistsAcrossRequestsOfOneService) {
  PlannerService service(ServiceOptions(1));
  const auto first = service.Plan(Request());
  EXPECT_EQ(first.pipeline.cache.misses, 2);
  const auto second = service.Plan(Request());
  EXPECT_EQ(second.pipeline.cache.misses, 0);  // everything served from cache
  EXPECT_EQ(second.pipeline.cache.hits, 3);
  EXPECT_EQ(ToJson(WithoutTimings(first)), ToJson(WithoutTimings(second)));
  // The service-wide totals aggregate both requests.
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache.misses, 2);
  EXPECT_EQ(stats.cache.hits, 4);
}

TEST(Pipeline, ExperimentResultCarriesPipelineStatsInJson) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const auto result = eng.RunExperiment(kAxes, kReduce);
  const std::string json = ToJson(result);
  EXPECT_NE(json.find("\"pipeline\":{"), std::string::npos);
  EXPECT_NE(json.find("\"unique_hierarchies\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":{\"hits\":1,"), std::string::npos);
}

TEST(PlacementEvaluation, BestMeasuredIndexFallsBackWhenNothingMeasured) {
  EngineOptions opts = FastOptions();
  opts.measure = false;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> raxes = {0};
  const auto eval = eng.EvaluatePlacement(m, raxes);
  for (const auto& p : eval.programs) EXPECT_FALSE(p.measured);
  EXPECT_EQ(eval.BestMeasuredIndex(), eval.BestPredictedIndex());
  EXPECT_EQ(eval.NumOutperforming(), 0);  // baseline was never measured
}

TEST(PlacementEvaluation, GuidedTopKZeroIsSafe) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> raxes = {0};
  const auto eval = eng.EvaluatePlacementGuided(m, raxes, 0);
  // Only the default AllReduce is measured; nothing can outperform it and
  // the best measured program is the baseline itself.
  EXPECT_EQ(eval.BestMeasuredIndex(), 0);
  EXPECT_EQ(eval.NumOutperforming(), 0);
  const int measured =
      static_cast<int>(std::count_if(eval.programs.begin(), eval.programs.end(),
                                     [](const auto& p) { return p.measured; }));
  EXPECT_EQ(measured, 1);
}

TEST(PlacementEvaluation, GuidedNegativeTopKMeasuresOnlyBaseline) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> raxes = {0};
  const auto eval = eng.EvaluatePlacementGuided(m, raxes, -1);
  const int measured =
      static_cast<int>(std::count_if(eval.programs.begin(), eval.programs.end(),
                                     [](const auto& p) { return p.measured; }));
  EXPECT_EQ(measured, 1);  // not "measure everything"
}

TEST(PlacementEvaluation, GuidedMeasuredBestIsAlwaysMeasured) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> raxes = {0};
  const auto eval = eng.EvaluatePlacementGuided(m, raxes, 3);
  const auto& best =
      eval.programs[static_cast<std::size_t>(eval.BestMeasuredIndex())];
  EXPECT_TRUE(best.measured);
  for (const auto& p : eval.programs) {
    if (p.measured) EXPECT_GE(p.measured_seconds, best.measured_seconds);
  }
}

}  // namespace
}  // namespace p2::engine
