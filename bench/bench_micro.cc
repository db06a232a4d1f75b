// google-benchmark microbenchmarks for the P2 building blocks: placement
// enumeration, collective-semantics checking, grouping, synthesis, lowering
// (the uncached reference, and a lowering-memo hit plus the per-placement
// build), the analytic cost model and the flow-level substrate (a
// simulation, and a hit in the executor's step memo).
#include <benchmark/benchmark.h>

#include <optional>

#include "core/collective_semantics.h"
#include "core/grouping.h"
#include "core/lowering.h"
#include "core/placement.h"
#include "core/synthesizer.h"
#include "cost/cost_model.h"
#include "engine/baselines.h"
#include "runtime/executor.h"
#include "topology/presets.h"

namespace {

using namespace p2;  // NOLINT: bench-local convenience

void BM_EnumeratePlacements(benchmark::State& state) {
  const auto h = topology::SystemHierarchy::FromCardinalities(
      std::vector<std::int64_t>{4, 16});
  const std::vector<std::int64_t> axes = {static_cast<std::int64_t>(state.range(0)),
                                          64 / state.range(0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EnumeratePlacements(h, axes));
  }
}
BENCHMARK(BM_EnumeratePlacements)->Arg(2)->Arg(8)->Arg(32);

void BM_ApplyAllReduce(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto ctx = core::MakeInitialContext(k);
    std::vector<std::vector<std::int64_t>> groups;
    for (int g = 0; g < k; g += 2) {
      groups.push_back({g, g + 1});
    }
    benchmark::DoNotOptimize(
        core::ApplyCollectiveToGroups(core::Collective::kAllReduce, ctx,
                                      groups));
  }
}
BENCHMARK(BM_ApplyAllReduce)->Arg(8)->Arg(16)->Arg(64);

void BM_DeriveGroups(benchmark::State& state) {
  const std::vector<std::int64_t> hierarchy = {1, 4, 4, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::DeriveGroups(hierarchy, 2, core::Form::Parallel(0)));
  }
}
BENCHMARK(BM_DeriveGroups);

void BM_Synthesize(benchmark::State& state) {
  const core::ParallelismMatrix m({{2, 4}, {2, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  core::SynthesisOptions opts;
  opts.max_program_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SynthesizePrograms(sh, opts));
  }
}
BENCHMARK(BM_Synthesize)->Arg(3)->Arg(4)->Arg(5);

void BM_LowerProgram(benchmark::State& state) {
  const core::ParallelismMatrix m({{2, 4}, {2, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  const auto program = *engine::ReduceScatterAllReduceAllGather(sh);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::LowerProgram(sh, program));
  }
}
BENCHMARK(BM_LowerProgram);

// The pipeline's path for the same program: a hit in a warm LoweringMemo,
// then the program's steps built into a fresh PlacementSteps, as on the
// program's first appearance in a placement.
void BM_LowerProgramMemoHit(benchmark::State& state) {
  const core::ParallelismMatrix m({{2, 4}, {2, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  const auto program = *engine::ReduceScatterAllReduceAllGather(sh);
  core::LoweringMemo memo;
  memo.Fractions(sh.levels(), program);
  for (auto _ : state) {
    core::PlacementSteps steps(sh);
    benchmark::DoNotOptimize(
        steps.Lower(program, memo.Fractions(sh.levels(), program)));
  }
}
BENCHMARK(BM_LowerProgramMemoHit);

void BM_CostModelPredict(benchmark::State& state) {
  const cost::CostModel model(topology::MakeA100Cluster(4));
  const core::ParallelismMatrix m({{4, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  const auto lowered =
      core::LowerProgram(sh, *engine::ReduceScatterAllReduceAllGather(sh));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.PredictProgram(lowered, 8e9, core::NcclAlgo::kRing));
  }
}
BENCHMARK(BM_CostModelPredict);

core::LoweredProgram SubstrateProgram() {
  const core::ParallelismMatrix m({{4, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto sh = core::SynthesisHierarchy::Build(
      m, axes, core::SynthesisHierarchyKind::kReductionAxes);
  return core::LowerProgram(sh, *engine::ReduceScatterAllReduceAllGather(sh));
}

// The flow simulator: a fresh Executor per iteration, built and destroyed
// untimed, so every step misses the executor's step memo.
void BM_SubstrateMeasure(benchmark::State& state) {
  const topology::Cluster cluster = topology::MakeA100Cluster(4);
  const auto lowered = SubstrateProgram();
  std::optional<runtime::Executor> exec;
  for (auto _ : state) {
    state.PauseTiming();
    exec.emplace(cluster);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        exec->MeasureProgram(lowered, 8e9, core::NcclAlgo::kRing));
  }
}
BENCHMARK(BM_SubstrateMeasure);

// The same program on one warm Executor: every step is a memo hit.
void BM_SubstrateMeasureMemoHit(benchmark::State& state) {
  const runtime::Executor exec(topology::MakeA100Cluster(4));
  const auto lowered = SubstrateProgram();
  exec.MeasureProgram(lowered, 8e9, core::NcclAlgo::kRing);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec.MeasureProgram(lowered, 8e9, core::NcclAlgo::kRing));
  }
}
BENCHMARK(BM_SubstrateMeasureMemoHit);

}  // namespace

BENCHMARK_MAIN();
