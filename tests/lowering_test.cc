#include "core/lowering.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/experiment_grid.h"
#include "engine/service.h"
#include "topology/presets.h"

namespace p2::core {
namespace {

// Running example, Fig 2d placement, reduction along parameter sharding.
SynthesisHierarchy Fig2dHierarchy() {
  const ParallelismMatrix m({{1, 1, 2, 2}, {1, 2, 1, 2}});
  const std::vector<int> axes = {1};
  return SynthesisHierarchy::Build(m, axes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// Fig 3b: AllReduce over local pairs, then AllReduce across servers.
// Synthesis hierarchy levels are [1(root) 1 2 1 2]; local pairs come from
// slice level 2's subtree, remote pairs from Parallel(root).
Program Fig3bProgram() {
  return {Instruction{2, Form::InsideGroup(), Collective::kAllReduce},
          Instruction{2, Form::Parallel(0), Collective::kAllReduce}};
}

// Fig 3c / Fig 10i: Reduce to local roots, AllReduce between roots,
// Broadcast back.
Program Fig3cProgram() {
  return {Instruction{2, Form::InsideGroup(), Collective::kReduce},
          Instruction{2, Form::Master(0), Collective::kAllReduce},
          Instruction{2, Form::InsideGroup(), Collective::kBroadcast}};
}

// Fig 10ii (BlueConnect): ReduceScatter locally, AllReduce across, AllGather.
Program BlueConnectProgram() {
  return {Instruction{2, Form::InsideGroup(), Collective::kReduceScatter},
          Instruction{2, Form::Parallel(0), Collective::kAllReduce},
          Instruction{2, Form::InsideGroup(), Collective::kAllGather}};
}

TEST(LowerProgram, Fig3bGroupsMatchPaper) {
  const auto sh = Fig2dHierarchy();
  const auto lowered = LowerProgram(sh, Fig3bProgram());
  ASSERT_EQ(lowered.steps.size(), 2u);
  // Step 1: AllReduce over local GPU pairs — 8 groups of 2 covering all 16.
  EXPECT_EQ(lowered.steps[0].op, Collective::kAllReduce);
  EXPECT_EQ(lowered.steps[0].groups.size(), 8u);
  std::set<std::vector<std::int64_t>> step0(lowered.steps[0].groups.begin(),
                                            lowered.steps[0].groups.end());
  // A0,A1 = devices 0,1 reduce together (Fig 3b).
  EXPECT_TRUE(step0.count({0, 1}));
  EXPECT_TRUE(step0.count({2, 3}));
  EXPECT_TRUE(step0.count({4, 5}));
  // Step 2: AllReduce across servers: {A0, C0} = {0, 8} etc.
  EXPECT_EQ(lowered.steps[1].groups.size(), 8u);
  std::set<std::vector<std::int64_t>> step1(lowered.steps[1].groups.begin(),
                                            lowered.steps[1].groups.end());
  EXPECT_TRUE(step1.count({0, 8}));
  EXPECT_TRUE(step1.count({1, 9}));
}

TEST(LowerProgram, FractionsTrackDataVolume) {
  const auto sh = Fig2dHierarchy();
  const auto lowered = LowerProgram(sh, BlueConnectProgram());
  ASSERT_EQ(lowered.steps.size(), 3u);
  // RS starts with the full payload and halves it.
  EXPECT_DOUBLE_EQ(lowered.steps[0].in_fraction, 1.0);
  EXPECT_DOUBLE_EQ(lowered.steps[0].out_fraction, 0.5);
  // Cross AllReduce moves the scattered half.
  EXPECT_DOUBLE_EQ(lowered.steps[1].in_fraction, 0.5);
  EXPECT_DOUBLE_EQ(lowered.steps[1].out_fraction, 0.5);
  // AllGather restores the full payload.
  EXPECT_DOUBLE_EQ(lowered.steps[2].in_fraction, 0.5);
  EXPECT_DOUBLE_EQ(lowered.steps[2].out_fraction, 1.0);
}

TEST(LowerProgram, RejectsInvalidProgram) {
  const auto sh = Fig2dHierarchy();
  // Fig 4a: ReduceScatter then AllReduce over the same local groups.
  const Program bad = {
      Instruction{2, Form::InsideGroup(), Collective::kReduceScatter},
      Instruction{2, Form::InsideGroup(), Collective::kAllReduce}};
  EXPECT_THROW(LowerProgram(sh, bad), std::invalid_argument);
}

TEST(CheckLowered, CanonicalProgramsValidOnFullSystem) {
  const auto sh = Fig2dHierarchy();
  for (const Program& p :
       {Fig3bProgram(), Fig3cProgram(), BlueConnectProgram()}) {
    const auto lowered = LowerProgram(sh, p);
    std::string err;
    EXPECT_TRUE(CheckLoweredOnFullSystem(sh, lowered, &err))
        << ToString(p) << ": " << err;
  }
}

TEST(CheckLowered, SingleAllReduceValid) {
  const auto sh = Fig2dHierarchy();
  const Program p = {Instruction{0, Form::InsideGroup(), Collective::kAllReduce}};
  const auto lowered = LowerProgram(sh, p);
  ASSERT_EQ(lowered.steps.size(), 1u);
  // 4 groups of 4 (one per data-parallel replica).
  EXPECT_EQ(lowered.steps[0].groups.size(), 4u);
  EXPECT_EQ(lowered.steps[0].groups[0].size(), 4u);
  std::string err;
  EXPECT_TRUE(CheckLoweredOnFullSystem(sh, lowered, &err)) << err;
}

TEST(CheckLowered, DetectsWrongGroups) {
  const auto sh = Fig2dHierarchy();
  auto lowered = LowerProgram(sh, Fig3bProgram());
  // Corrupt a group: make two devices of different reduction groups reduce.
  lowered.steps[1].groups[0] = {0, 9};
  std::string err;
  EXPECT_FALSE(CheckLoweredOnFullSystem(sh, lowered, &err));
}

TEST(CheckLowered, IncompleteProgramFailsGoal) {
  const auto sh = Fig2dHierarchy();
  const Program p = {Instruction{2, Form::InsideGroup(), Collective::kAllReduce}};
  const auto lowered = LowerProgram(sh, p);
  std::string err;
  EXPECT_FALSE(CheckLoweredOnFullSystem(sh, lowered, &err));
  EXPECT_EQ(err, "final context differs from goal");
}

TEST(LowerProgram, MultiAxisReduction) {
  // Three axes, reduce over axes 0 and 2 (paper's three-axis experiments).
  const ParallelismMatrix m({{2, 1}, {1, 2}, {1, 4}});
  const std::vector<int> axes = {0, 2};
  const auto sh =
      SynthesisHierarchy::Build(m, axes, SynthesisHierarchyKind::kReductionAxes);
  EXPECT_EQ(sh.num_synth_devices(), 8);
  EXPECT_EQ(sh.num_replicas(), 2);
  const Program p = {Instruction{0, Form::InsideGroup(), Collective::kAllReduce}};
  const auto lowered = LowerProgram(sh, p);
  std::string err;
  EXPECT_TRUE(CheckLoweredOnFullSystem(sh, lowered, &err)) << err;
}

// The two halves of the split lowering (a memoized replay, then interned
// per-placement steps) must give the reference's steps bit for bit.
::testing::AssertionResult SameStep(const LoweredStep& got,
                                    const LoweredStep& want) {
  if (got.op != want.op) return ::testing::AssertionFailure() << "op differs";
  if (got.groups != want.groups) {
    return ::testing::AssertionFailure() << "groups differ";
  }
  if (std::bit_cast<std::uint64_t>(got.in_fraction) !=
          std::bit_cast<std::uint64_t>(want.in_fraction) ||
      std::bit_cast<std::uint64_t>(got.out_fraction) !=
          std::bit_cast<std::uint64_t>(want.out_fraction)) {
    return ::testing::AssertionFailure() << "fractions differ";
  }
  return ::testing::AssertionSuccess();
}

// Every program of every placement of the e2e grids (a100:4, v100:8, racked
// 2x2), planned through one service per cluster: the split path's steps
// equal LowerProgram's, and the service's per-placement predictions (and
// guided measurements) equal PredictProgram's (and MeasureProgram's) on
// them, bit for bit.
TEST(LoweringSplit, MatchesTheReferenceOnEveryProgramOfTheGrids) {
  engine::EngineOptions options;
  options.payload_bytes = 1e8;
  engine::PlannerServiceOptions service_options;
  service_options.engine = options;
  std::size_t programs = 0;
  for (const topology::Cluster& cluster :
       {topology::MakeA100Cluster(4), topology::MakeV100Cluster(8),
        topology::MakeRackedA100Cluster(2, 2)}) {
    const engine::Engine engine(cluster, options);
    engine::PlannerService service(service_options);
    for (const engine::ExperimentConfig& config : engine::FullGrid(cluster)) {
      engine::PlanRequest request;
      request.axes = config.axes;
      request.reduction_axes = config.reduction_axes;
      request.measure_top_k = 3;
      request.cluster = cluster;
      const engine::ExperimentResult result = service.Plan(request);
      for (const engine::PlacementEvaluation& placement : result.placements) {
        const auto sh = SynthesisHierarchy::Build(
            placement.matrix, config.reduction_axes,
            SynthesisHierarchyKind::kReductionAxes);
        const auto synthesis =
            service.cache().GetOrSynthesize(sh, options.synthesis);
        std::vector<Program> all = {engine::DefaultAllReduceProgram()};
        all.insert(all.end(), synthesis->programs.begin(),
                   synthesis->programs.end());
        PlacementSteps steps(sh);
        // Walks the evaluated programs alongside: they are `all` in order,
        // minus the synthesized copy of the default AllReduce.
        std::size_t evaluated = 0;
        for (const Program& program : all) {
          const LoweredProgram reference = LowerProgram(sh, program);
          const auto ids = steps.Lower(
              program, service.lowering_memo().Fractions(sh.levels(), program));
          ASSERT_EQ(ids.size(), reference.steps.size());
          for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_TRUE(SameStep(steps.step(ids[i]), reference.steps[i]))
                << placement.matrix.ToString() << " " << ToString(program)
                << " step " << i;
          }
          ++programs;
          if (evaluated == placement.programs.size() ||
              placement.programs[evaluated].program != program) {
            continue;
          }
          const engine::ProgramEvaluation& eval =
              placement.programs[evaluated++];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(eval.predicted_seconds),
                    std::bit_cast<std::uint64_t>(
                        engine.cost_model().PredictProgram(
                            reference, engine.payload_bytes(),
                            options.algo)))
              << placement.matrix.ToString() << " " << ToString(program);
          if (eval.measured) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(eval.measured_seconds),
                      std::bit_cast<std::uint64_t>(
                          engine.executor().MeasureProgram(
                              reference, engine.payload_bytes(),
                              options.algo)))
                << placement.matrix.ToString() << " " << ToString(program);
          }
        }
        ASSERT_EQ(evaluated, placement.programs.size())
            << placement.matrix.ToString();
      }
    }
  }
  EXPECT_GT(programs, 20000u);
}

TEST(LoweringMemo, InvalidProgramThrowsOnEveryCallAndIsNeverStored) {
  const auto sh = Fig2dHierarchy();
  // Fig 4a (an AllReduce over scattered groups), then an instruction whose
  // groups are all singletons (the innermost slice, InsideGroup).
  const Program invalid = {
      Instruction{2, Form::InsideGroup(), Collective::kReduceScatter},
      Instruction{2, Form::InsideGroup(), Collective::kAllReduce}};
  const Program trivial = {
      Instruction{4, Form::InsideGroup(), Collective::kAllReduce}};
  LoweringMemo memo;
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(memo.Fractions(sh.levels(), invalid), std::invalid_argument);
    EXPECT_THROW(memo.Fractions(sh.levels(), trivial), std::invalid_argument);
  }
  EXPECT_EQ(memo.memoized_programs(), 0u);
}

TEST(LoweringMemo, EachDistinctKeyIsStoredOnce) {
  // Each variant changes one input of the key: the slice, the form's kind,
  // its ancestor, the collective, the levels, the program's length.
  const std::vector<std::int64_t> levels = {1, 1, 2};
  struct Variant {
    std::vector<std::int64_t> levels;
    Program program;
  };
  const std::vector<Variant> variants = {
      {levels, {Instruction{0, Form::InsideGroup(), Collective::kAllReduce}}},
      {levels, {Instruction{1, Form::InsideGroup(), Collective::kAllReduce}}},
      {levels, {Instruction{2, Form::Parallel(0), Collective::kAllReduce}}},
      {levels, {Instruction{2, Form::Master(0), Collective::kAllReduce}}},
      {levels, {Instruction{2, Form::Parallel(1), Collective::kAllReduce}}},
      {levels, {Instruction{0, Form::InsideGroup(), Collective::kReduce}}},
      {{1, 2, 1},
       {Instruction{0, Form::InsideGroup(), Collective::kAllReduce}}},
      {levels,
       {Instruction{0, Form::InsideGroup(), Collective::kReduceScatter},
        Instruction{0, Form::InsideGroup(), Collective::kAllGather}}},
  };
  LoweringMemo memo;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      EXPECT_EQ(memo.Fractions(v.levels, v.program),
                ReplayFractions(v.levels, v.program))
          << "variant " << i;
      if (round == 0) {
        EXPECT_EQ(memo.memoized_programs(), i + 1);
      }
    }
  }
  EXPECT_EQ(memo.memoized_programs(), variants.size());
}

TEST(LoweringMemo, MissesPastTheCapReplayWithoutBeingStored) {
  // Distinct hierarchies of 8 synthesis devices: three levels of 2 among
  // levels of 1. One AllReduce over every device is valid on each.
  const Program all_reduce = {
      Instruction{0, Form::InsideGroup(), Collective::kAllReduce}};
  constexpr int kDepth = 49;  // C(48, 3) = 17,296 hierarchies
  std::vector<std::vector<std::int64_t>> hierarchies;
  for (int a = 1; a < kDepth; ++a) {
    for (int b = a + 1; b < kDepth; ++b) {
      for (int c = b + 1; c < kDepth; ++c) {
        auto& levels = hierarchies.emplace_back(kDepth, 1);
        levels[a] = levels[b] = levels[c] = 2;
      }
    }
  }
  constexpr std::size_t kCap = LoweringMemo::kMaxMemoizedPrograms;
  ASSERT_GT(hierarchies.size(), kCap);
  LoweringMemo memo;
  for (std::size_t i = 0; i < kCap; ++i) {
    memo.Fractions(hierarchies[i], all_reduce);
  }
  EXPECT_EQ(memo.memoized_programs(), kCap);
  EXPECT_EQ(memo.Fractions(hierarchies[kCap], all_reduce),
            ReplayFractions(hierarchies[kCap], all_reduce));
  EXPECT_EQ(memo.memoized_programs(), kCap);
  // Stored entries still hit.
  EXPECT_EQ(memo.Fractions(hierarchies[0], all_reduce),
            ReplayFractions(hierarchies[0], all_reduce));
  EXPECT_EQ(memo.memoized_programs(), kCap);
}

TEST(PlacementSteps, BuildsEachInstructionOnceAndInternsEachStep) {
  const auto sh = Fig2dHierarchy();
  PlacementSteps steps(sh);
  const auto lower = [&](const Program& p) {
    return steps.Lower(p, ReplayFractions(sh.levels(), p));
  };
  // BlueConnect: RS, AR(Parallel(root)) at half the payload, AG.
  EXPECT_EQ(lower(BlueConnectProgram()), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(lower(BlueConnectProgram()), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(steps.instructions(), 3u);
  EXPECT_EQ(steps.size(), 3u);
  // Fig 3b: a new instruction, then BlueConnect's cross AllReduce at the
  // full payload — the same groups, a new step.
  EXPECT_EQ(lower(Fig3bProgram()), (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(steps.instructions(), 4u);
  EXPECT_EQ(steps.size(), 5u);
  EXPECT_EQ(steps.step(4).groups, steps.step(1).groups);
  EXPECT_EQ(steps.step(4).in_fraction, 1.0);
  EXPECT_EQ(steps.step(1).in_fraction, 0.5);
  for (const Program& p : {BlueConnectProgram(), Fig3bProgram()}) {
    const auto ids = lower(p);
    const auto reference = LowerProgram(sh, p);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(SameStep(steps.step(ids[i]), reference.steps[i]));
    }
  }
  EXPECT_THROW(steps.Lower(Fig3bProgram(), {}), std::invalid_argument);
}

}  // namespace
}  // namespace p2::core
