#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include "engine/baselines.h"
#include "topology/presets.h"

namespace p2::cost {
namespace {

using core::NcclAlgo;
using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

core::LoweredProgram LowerOn(const ParallelismMatrix& m,
                             const std::vector<int>& axes,
                             const core::Program& program) {
  const auto sh = SynthesisHierarchy::Build(
      m, axes, SynthesisHierarchyKind::kReductionAxes);
  return core::LowerProgram(sh, program);
}

TEST(CostModel, RingAllReduceFormulaInsideNvSwitchNode) {
  const CostModel model(topology::MakeA100Cluster(2));
  // Groups of 4 inside nodes; each GPU uplink carries 2(n-1)/n * S.
  const auto lowered = LowerOn(ParallelismMatrix({{1, 4}, {2, 4}}), {0},
                               engine::DefaultAllReduceProgram());
  const double s = 4e9;
  const double t = model.PredictProgram(lowered, s, NcclAlgo::kRing);
  const double expected = 2.0 * 3.0 / 4.0 * s / (270e9);
  EXPECT_NEAR(t, expected, expected * 0.05);
}

TEST(CostModel, NicShareDominatesCrossNodePlacements) {
  const CostModel model(topology::MakeA100Cluster(4));
  // [[4 1] [1 16]]: 16 rings of 4, one member per node, all share each NIC.
  const auto lowered = LowerOn(ParallelismMatrix({{4, 1}, {1, 16}}), {0},
                               engine::DefaultAllReduceProgram());
  const double s = 8e9;
  const double t = model.PredictProgram(lowered, s, NcclAlgo::kRing);
  // Per ring edge: 2*(3/4)*S; each NIC direction carries 16 edges, degraded
  // by the model's static flow-count congestion (1% per extra flow).
  const double expected = 16.0 * 1.5 * s / 7.5e9 * (1.0 + 0.01 * 15);
  EXPECT_NEAR(t, expected, expected * 0.05);
}

TEST(CostModel, PlacementImpactMatchesPaperOrdering) {
  // Table 3 row B: [[1 4][4 4]] fast, [[2 2][2 8]] slow, [[4 1][1 16]]
  // slowest for reduction on axis 0.
  const CostModel model(topology::MakeA100Cluster(4));
  const auto t1 = model.PredictProgram(
      LowerOn(ParallelismMatrix({{1, 4}, {4, 4}}), {0},
              engine::DefaultAllReduceProgram()),
      8e9, NcclAlgo::kRing);
  const auto t2 = model.PredictProgram(
      LowerOn(ParallelismMatrix({{2, 2}, {2, 8}}), {0},
              engine::DefaultAllReduceProgram()),
      8e9, NcclAlgo::kRing);
  const auto t3 = model.PredictProgram(
      LowerOn(ParallelismMatrix({{4, 1}, {1, 16}}), {0},
              engine::DefaultAllReduceProgram()),
      8e9, NcclAlgo::kRing);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
  EXPECT_GT(t3 / t1, 100.0);  // the paper's orders-of-magnitude gap
}

TEST(CostModel, ReduceScatterPlusAllGatherMatchesAllReduce) {
  const CostModel model(topology::MakeA100Cluster(2));
  const ParallelismMatrix m({{2, 16}});
  const std::vector<int> axes = {0};
  const auto sh = SynthesisHierarchy::Build(
      m, axes, SynthesisHierarchyKind::kReductionAxes);
  const auto ar = core::LowerProgram(sh, engine::DefaultAllReduceProgram());
  const core::Program rs_ag = {
      core::Instruction{0, core::Form::InsideGroup(),
                        core::Collective::kReduceScatter},
      core::Instruction{0, core::Form::InsideGroup(),
                        core::Collective::kAllGather}};
  const auto rsag = core::LowerProgram(sh, rs_ag);
  const double t_ar = model.PredictProgram(ar, 8e9, NcclAlgo::kRing);
  const double t_rsag = model.PredictProgram(rsag, 8e9, NcclAlgo::kRing);
  EXPECT_NEAR(t_ar, t_rsag, t_ar * 0.02);
}

TEST(CostModel, TreeBeatsRingWhenGroupsMixLocalAndRemote) {
  // Paper Table 3 B2 behavior: [[2 2] [2 8]] reduce axis 0 (2 local x 2
  // remote) is faster with Tree than Ring.
  const CostModel model(topology::MakeA100Cluster(4));
  const auto lowered = LowerOn(ParallelismMatrix({{2, 2}, {2, 8}}), {0},
                               engine::DefaultAllReduceProgram());
  const double ring = model.PredictProgram(lowered, 8e9, NcclAlgo::kRing);
  const double tree = model.PredictProgram(lowered, 8e9, NcclAlgo::kTree);
  EXPECT_LT(tree, ring);
}

TEST(CostModel, RingBeatsTreeForFullyRemoteGroups) {
  // Paper Table 3 B3 behavior.
  const CostModel model(topology::MakeA100Cluster(4));
  const auto lowered = LowerOn(ParallelismMatrix({{4, 1}, {1, 16}}), {0},
                               engine::DefaultAllReduceProgram());
  const double ring = model.PredictProgram(lowered, 8e9, NcclAlgo::kRing);
  const double tree = model.PredictProgram(lowered, 8e9, NcclAlgo::kTree);
  EXPECT_LT(ring, tree);
}

TEST(CostModel, MonotoneInPayload) {
  const CostModel model(topology::MakeV100Cluster(2));
  const auto lowered = LowerOn(ParallelismMatrix({{2, 4}, {1, 2}}), {0},
                               engine::DefaultAllReduceProgram());
  double prev = 0.0;
  for (double s : {1e8, 1e9, 4e9, 1e10}) {
    const double t = model.PredictProgram(lowered, s, NcclAlgo::kRing);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

core::LoweredStep StepWithGroups(
    std::vector<std::vector<std::int64_t>> groups) {
  core::LoweredStep step;
  step.op = core::Collective::kAllReduce;
  step.groups = std::move(groups);
  step.in_fraction = 1.0;
  step.out_fraction = 1.0;
  return step;
}

TEST(CostModel, V100CrossDomainCostlierThanWithinDomain) {
  const CostModel model(topology::MakeV100Cluster(1));
  // Ranks {0,2}: same PCIe domain (non-adjacent on the NVLink ring).
  // Ranks {2,6}: different PCIe domains — traffic crosses the shared NIC.
  const double within = model.PredictStep(StepWithGroups({{0, 2}}), 1e9,
                                          NcclAlgo::kRing);
  const double across = model.PredictStep(StepWithGroups({{2, 6}}), 1e9,
                                          NcclAlgo::kRing);
  EXPECT_GT(across, within * 2.0);
}

TEST(CostModel, V100AdjacentPairUsesNvLink) {
  const CostModel model(topology::MakeV100Cluster(1));
  const double adjacent = model.PredictStep(StepWithGroups({{0, 1}}), 1e9,
                                            NcclAlgo::kRing);
  const double pcie = model.PredictStep(StepWithGroups({{0, 2}}), 1e9,
                                        NcclAlgo::kRing);
  EXPECT_LT(adjacent, pcie);
}

TEST(CostModel, SingleMemberGroupCostsNothing) {
  // A degenerate one-device "group" exchanges no data: zero bytes on every
  // link and zero rounds of latency (the Rounds guard), under both algos.
  const CostModel model(topology::MakeA100Cluster(2));
  for (const auto algo : {NcclAlgo::kRing, NcclAlgo::kTree}) {
    for (const auto op :
         {core::Collective::kAllReduce, core::Collective::kReduce,
          core::Collective::kBroadcast, core::Collective::kReduceScatter,
          core::Collective::kAllGather}) {
      auto step = StepWithGroups({{3}});
      step.op = op;
      EXPECT_EQ(model.PredictStep(step, 1e9, algo), 0.0)
          << core::ToString(op);
    }
  }
}

TEST(CostModel, ConcurrentGroupsShareNics) {
  const CostModel model(topology::MakeA100Cluster(2));
  // One cross-node pair vs eight concurrent cross-node pairs: the shared
  // NIC divides, so the step slows down ~8x.
  const double one =
      model.PredictStep(StepWithGroups({{0, 16}}), 1e9, NcclAlgo::kRing);
  std::vector<std::vector<std::int64_t>> eight;
  for (std::int64_t i = 0; i < 8; ++i) eight.push_back({i, 16 + i});
  const double many =
      model.PredictStep(StepWithGroups(std::move(eight)), 1e9,
                        NcclAlgo::kRing);
  // 8x the per-flow share, plus the model's 1%-per-extra-flow congestion.
  EXPECT_NEAR(many / one, 8.0 * 1.07, 0.2);
}

}  // namespace
}  // namespace p2::cost
