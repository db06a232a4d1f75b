#include "engine/engine.h"

#include <gtest/gtest.h>

#include "engine/report.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.payload_bytes = 1e9;  // smaller payload to keep tests quick
  return opts;
}

TEST(Engine, DefaultPayloadMatchesPaper) {
  // (2^29 * nodes) float32 per GPU.
  const auto c4 = topology::MakeA100Cluster(4);
  EXPECT_DOUBLE_EQ(Engine::DefaultPayloadBytes(c4), 4.0 * 536870912.0 * 4);
  const auto c2 = topology::MakeV100Cluster(2);
  EXPECT_DOUBLE_EQ(Engine::DefaultPayloadBytes(c2), 4.0 * 536870912.0 * 2);
}

TEST(Engine, EvaluatePlacementStructure) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  ASSERT_GE(eval.programs.size(), 3u);
  EXPECT_TRUE(eval.programs.front().is_default_allreduce);
  for (const auto& p : eval.programs) {
    EXPECT_GT(p.predicted_seconds, 0.0);
    EXPECT_GT(p.measured_seconds, 0.0);
    EXPECT_GE(p.num_steps, 1);
    EXPECT_FALSE(p.text.empty());
  }
  EXPECT_GE(eval.synthesis_seconds, 0.0);
}

TEST(Engine, DefaultAllReduceNotDuplicated) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  int defaults = 0;
  for (const auto& p : eval.programs) {
    if (p.num_steps == 1 &&
        p.program[0].op == core::Collective::kAllReduce &&
        p.program[0].form.kind == core::Form::Kind::kInsideGroup) {
      // Only the explicitly marked default may be a root AllReduce.
      ++defaults;
    }
  }
  EXPECT_EQ(defaults, 1);
}

TEST(Engine, BestIndicesConsistent) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  const int best = eval.BestMeasuredIndex();
  for (const auto& p : eval.programs) {
    EXPECT_GE(p.measured_seconds,
              eval.programs[static_cast<std::size_t>(best)].measured_seconds);
  }
  const int best_pred = eval.BestPredictedIndex();
  for (const auto& p : eval.programs) {
    EXPECT_GE(
        p.predicted_seconds,
        eval.programs[static_cast<std::size_t>(best_pred)].predicted_seconds);
  }
}

TEST(Engine, CrossNodePlacementBenefitsFromSynthesis) {
  // Paper Result 5: cross-node reductions are where synthesized programs win.
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  EXPECT_GT(eval.NumOutperforming(), 0);
  const auto& best =
      eval.programs[static_cast<std::size_t>(eval.BestMeasuredIndex())];
  const double speedup =
      eval.DefaultAllReduce().measured_seconds / best.measured_seconds;
  EXPECT_GT(speedup, 1.1);
  EXPECT_LT(speedup, 4.0);  // the paper sees up to ~2x
}

TEST(Engine, IntraNodePlacementKeepsAllReduce) {
  // Paper Result 3: if the reduction axis fits in a node, AllReduce wins.
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const core::ParallelismMatrix m({{1, 8}, {2, 2}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  const auto& best =
      eval.programs[static_cast<std::size_t>(eval.BestMeasuredIndex())];
  const double ratio =
      best.measured_seconds / eval.DefaultAllReduce().measured_seconds;
  EXPECT_GT(ratio, 0.95);  // nothing meaningfully beats local AllReduce
}

TEST(Engine, RunExperimentAggregates) {
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> raxes = {0};
  const auto result = eng.RunExperiment(axes, raxes);
  ASSERT_EQ(result.placements.size(), 2u);  // Table 4 F1/F2
  EXPECT_GT(result.TotalPrograms(), 10);
  EXPECT_GE(result.TotalOutperforming(), 0);
  EXPECT_GT(result.TotalSynthesisSeconds(), 0.0);
  EXPECT_EQ(result.algo, core::NcclAlgo::kRing);
}

TEST(Engine, RunExperimentPlansOnTheCallersEngine) {
  // RunExperiment runs its pipeline on this engine, so the second identical
  // call finds every step it measures in the executor's step memo.
  const Engine eng(topology::MakeA100Cluster(2), FastOptions());
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> raxes = {0};
  const auto first = eng.RunExperiment(axes, raxes);
  const std::size_t memoized = eng.executor().memoized_steps();
  EXPECT_GT(memoized, 0u);
  const auto second = eng.RunExperiment(axes, raxes);
  EXPECT_EQ(eng.executor().memoized_steps(), memoized);
  EXPECT_EQ(CanonicalResultText(second), CanonicalResultText(first));
}

TEST(Engine, MeasureCanBeDisabled) {
  EngineOptions opts = FastOptions();
  opts.measure = false;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const core::ParallelismMatrix m({{1, 8}, {2, 2}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  for (const auto& p : eval.programs) {
    EXPECT_EQ(p.measured_seconds, 0.0);
    EXPECT_GT(p.predicted_seconds, 0.0);
  }
}

TEST(Engine, SynthesisSizeLimitFlowsThrough) {
  EngineOptions opts = FastOptions();
  opts.synthesis.max_program_size = 1;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  for (const auto& p : eval.programs) EXPECT_EQ(p.num_steps, 1);
}

}  // namespace
}  // namespace p2::engine
