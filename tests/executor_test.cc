#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/placement.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "topology/presets.h"

namespace p2::runtime {
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

TEST(Executor, IntraNodeAllReduceIsFast) {
  const Executor exec(topology::MakeA100Cluster(4));
  // [[1 4] [4 4]] reduce axis 0: groups of 4 inside nodes.
  const auto lowered =
      LowerOn(ParallelismMatrix({{1, 4}, {4, 4}}), {0},
              engine::DefaultAllReduceProgram());
  const double t = exec.MeasureProgram(lowered, 8e9, NcclAlgo::kRing);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 0.2);
}

TEST(Executor, CrossNodeAllReduceIsOrdersOfMagnitudeSlower) {
  const Executor exec(topology::MakeA100Cluster(4));
  const auto local = LowerOn(ParallelismMatrix({{1, 4}, {4, 4}}), {0},
                             engine::DefaultAllReduceProgram());
  const auto cross = LowerOn(ParallelismMatrix({{4, 1}, {1, 16}}), {0},
                             engine::DefaultAllReduceProgram());
  const double t_local = exec.MeasureProgram(local, 8e9, NcclAlgo::kRing);
  const double t_cross = exec.MeasureProgram(cross, 8e9, NcclAlgo::kRing);
  // The paper's Result 1: up to 448x. Ours is the same order of magnitude.
  EXPECT_GT(t_cross / t_local, 100.0);
}

TEST(Executor, TimeScalesLinearlyWithPayload) {
  const Executor exec(topology::MakeA100Cluster(2));
  const auto lowered = LowerOn(ParallelismMatrix({{2, 1}, {1, 16}}), {0},
                               engine::DefaultAllReduceProgram());
  const double t1 = exec.MeasureProgram(lowered, 1e9, NcclAlgo::kRing);
  const double t4 = exec.MeasureProgram(lowered, 4e9, NcclAlgo::kRing);
  EXPECT_NEAR(t4 / t1, 4.0, 0.1);
}

TEST(Executor, TreeSlowerThanRingForFullyCrossNodeGroups) {
  // Paper Table 3, B3: fully cross-node reduction is faster with Ring.
  const Executor exec(topology::MakeA100Cluster(4));
  const auto lowered = LowerOn(ParallelismMatrix({{4, 1}, {1, 16}}), {0},
                               engine::DefaultAllReduceProgram());
  const double ring = exec.MeasureProgram(lowered, 8e9, NcclAlgo::kRing);
  const double tree = exec.MeasureProgram(lowered, 8e9, NcclAlgo::kTree);
  EXPECT_GT(tree, ring * 1.2);
}

TEST(Executor, StepsAreSequential) {
  const Executor exec(topology::MakeA100Cluster(2));
  const ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto sh = SynthesisHierarchy::Build(
      m, axes, SynthesisHierarchyKind::kReductionAxes);
  const auto rab = engine::ReduceAllReduceBroadcast(sh);
  ASSERT_TRUE(rab.has_value());
  const auto lowered = core::LowerProgram(sh, *rab);
  double sum = 0.0;
  for (const auto& step : lowered.steps) {
    sum += exec.MeasureStep(step, 8e9, NcclAlgo::kRing);
  }
  EXPECT_NEAR(exec.MeasureProgram(lowered, 8e9, NcclAlgo::kRing), sum, 1e-9);
}

TEST(Executor, DeterministicMeasurements) {
  const Executor exec(topology::MakeV100Cluster(2));
  const auto lowered = LowerOn(ParallelismMatrix({{2, 4}, {1, 2}}), {0},
                               engine::DefaultAllReduceProgram());
  EXPECT_DOUBLE_EQ(exec.MeasureProgram(lowered, 8e9, NcclAlgo::kRing),
                   exec.MeasureProgram(lowered, 8e9, NcclAlgo::kRing));
}

// ---- the step memo ---------------------------------------------------------

constexpr double kPayload = 1e8;

// The default AllReduce and every synthesized program, lowered, of every
// placement of three configs on a 2-node cluster of 16 or 8 GPUs per node:
// nine placements, about two hundred programs, and their steps repeat.
std::vector<core::LoweredProgram> AllPrograms(
    const topology::Cluster& cluster) {
  struct Config {
    std::vector<std::int64_t> axes;
    std::vector<int> reduction_axes;
  };
  const int g = cluster.node.gpus_per_node;
  const std::vector<Config> configs = {{{g / 2, 4}, {0}},
                                       {{g / 4, 2, 4}, {0, 2}},
                                       {{2, 2, 2, g / 4}, {1}}};
  std::vector<core::LoweredProgram> programs;
  for (const Config& config : configs) {
    for (const auto& m :
         core::EnumeratePlacements(cluster.hierarchy(), config.axes)) {
      const auto sh = SynthesisHierarchy::Build(
          m, config.reduction_axes, SynthesisHierarchyKind::kReductionAxes);
      programs.push_back(
          core::LowerProgram(sh, engine::DefaultAllReduceProgram()));
      for (const auto& program : core::SynthesizePrograms(sh, {}).programs) {
        programs.push_back(core::LowerProgram(sh, program));
      }
    }
  }
  return programs;
}

// Everything the memo key holds, spelled out independently of it.
using StepId = std::tuple<core::Collective, NcclAlgo, std::uint64_t,
                          std::uint64_t,
                          std::vector<std::vector<std::int64_t>>>;

StepId IdOf(const core::LoweredStep& step, double payload, NcclAlgo algo) {
  return {step.op, algo,
          std::bit_cast<std::uint64_t>(step.in_fraction * payload),
          std::bit_cast<std::uint64_t>(step.out_fraction * payload),
          step.groups};
}

void ExpectSameTrace(const std::vector<StepTrace>& a,
                     const std::vector<StepTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << "step " << i;
    EXPECT_EQ(a[i].num_groups, b[i].num_groups) << "step " << i;
    EXPECT_EQ(a[i].group_size, b[i].group_size) << "step " << i;
    EXPECT_EQ(a[i].bytes_in, b[i].bytes_in) << "step " << i;
    EXPECT_EQ(a[i].seconds, b[i].seconds) << "step " << i;
    EXPECT_EQ(a[i].flows_completed, b[i].flows_completed) << "step " << i;
  }
}

TEST(ExecutorMemo, WarmSharedExecutorMatchesAFreshOnePerProgram) {
  for (const topology::Cluster& cluster :
       {topology::MakeA100Cluster(2), topology::MakeV100Cluster(2)}) {
    const auto programs = AllPrograms(cluster);
    ASSERT_GT(programs.size(), 150u);
    const Executor shared(cluster);
    std::set<StepId> distinct;
    for (const NcclAlgo algo : core::kAllAlgos) {
      for (const auto& program : programs) {
        for (const auto& step : program.steps) {
          distinct.insert(IdOf(step, kPayload, algo));
        }
        shared.MeasureProgram(program, kPayload, algo);
      }
    }
    // One entry per distinct step, however often the programs repeat it;
    // and they do repeat: fewer entries than programs measured.
    const std::size_t warm = shared.memoized_steps();
    EXPECT_EQ(warm, distinct.size());
    EXPECT_LT(warm, programs.size() * core::kAllAlgos.size());

    for (const NcclAlgo algo : core::kAllAlgos) {
      for (std::size_t i = 0; i < programs.size(); ++i) {
        const Executor fresh(cluster);
        std::vector<StepTrace> fresh_trace;
        std::vector<StepTrace> memo_trace;
        EXPECT_EQ(shared.MeasureProgram(programs[i], kPayload, algo,
                                        &memo_trace),
                  fresh.MeasureProgram(programs[i], kPayload, algo,
                                       &fresh_trace))
            << cluster.ToString() << ", program " << i;
        ExpectSameTrace(memo_trace, fresh_trace);
      }
    }
    EXPECT_EQ(shared.memoized_steps(), warm);  // re-measuring adds nothing
  }
}

TEST(ExecutorMemo, StepsDifferingInOneInputGetTheirOwnEntries) {
  const topology::Cluster cluster = topology::MakeV100Cluster(2);
  core::LoweredStep base;
  base.groups = {{0, 1, 2, 3}, {8, 9, 10, 11}};
  struct Variant {
    core::LoweredStep step;
    NcclAlgo algo = NcclAlgo::kRing;
    double payload = kPayload;
  };
  std::vector<Variant> variants(8, Variant{base});
  variants[1].step.op = core::Collective::kAllGather;
  variants[2].algo = NcclAlgo::kTree;
  variants[3].payload = 2 * kPayload;
  variants[4].step.out_fraction = 0.5;                    // bytes out only
  variants[5].step.groups = {{8, 9, 10, 11}, {0, 1, 2, 3}};  // group order
  variants[6].step.groups = {{1, 0, 2, 3}, {8, 9, 10, 11}};  // member order
  variants[7].step.groups = {{0, 1, 2}, {3, 8, 9, 10, 11}};  // group sizes

  const Executor exec(cluster);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Variant& v = variants[i];
      EXPECT_EQ(exec.MeasureStep(v.step, v.payload, v.algo),
                Executor(cluster).MeasureStep(v.step, v.payload, v.algo))
          << "variant " << i;
      if (round == 0) {
        EXPECT_EQ(exec.memoized_steps(), i + 1);
      }
    }
  }
  EXPECT_EQ(exec.memoized_steps(), variants.size());
}

TEST(ExecutorMemo, MissesPastTheCapSimulateWithoutBeingStored) {
  const topology::Cluster cluster = topology::MakeA100Cluster(1);
  core::LoweredStep step;
  step.groups = {{0, 1}};
  const Executor exec(cluster);
  // Every payload is a distinct step.
  for (std::size_t i = 0; i < Executor::kMaxMemoizedSteps; ++i) {
    exec.MeasureStep(step, 1e6 + static_cast<double>(i), NcclAlgo::kRing);
  }
  EXPECT_EQ(exec.memoized_steps(), Executor::kMaxMemoizedSteps);
  const double past_cap = 5e5;
  EXPECT_EQ(exec.MeasureStep(step, past_cap, NcclAlgo::kRing),
            Executor(cluster).MeasureStep(step, past_cap, NcclAlgo::kRing));
  EXPECT_EQ(exec.memoized_steps(), Executor::kMaxMemoizedSteps);
  // Stored steps still hit.
  EXPECT_EQ(exec.MeasureStep(step, 1e6, NcclAlgo::kRing),
            Executor(cluster).MeasureStep(step, 1e6, NcclAlgo::kRing));
}

TEST(ExecutorMemo, ConcurrentMeasurementsEqualSerialOnes) {
  const topology::Cluster cluster = topology::MakeV100Cluster(2);
  const auto programs = AllPrograms(cluster);
  const std::size_t n = programs.size();
  std::vector<double> serial;
  const Executor reference(cluster);
  for (const auto& program : programs) {
    serial.push_back(reference.MeasureProgram(program, kPayload,
                                              NcclAlgo::kRing));
  }

  // Four threads on one executor, each over three quarters of the list from
  // its own offset, alternately forwards and backwards: every step is raced
  // for by several threads, in different orders.
  constexpr int kThreads = 4;
  const Executor shared(cluster);
  std::vector<std::vector<std::pair<std::size_t, double>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(n * 3 / 4);
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t& i : order) i = (i + t * n / kThreads) % n;
      if (t % 2 == 1) std::reverse(order.begin(), order.end());
      for (const std::size_t i : order) {
        got[t].emplace_back(i, shared.MeasureProgram(programs[i], kPayload,
                                                     NcclAlgo::kRing));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), n * 3 / 4);
    for (const auto& [i, seconds] : got[t]) {
      EXPECT_EQ(seconds, serial[i]) << "thread " << t << ", program " << i;
    }
  }
  EXPECT_EQ(shared.memoized_steps(), reference.memoized_steps());
}

}  // namespace
}  // namespace p2::runtime
