// Differential tests for the transposition-table synthesis search (ISSUE 2):
// the seed's blind DFS (SynthesizeProgramsReference) is the oracle, and the
// search must reproduce its program list byte for byte over a grid of
// synthesis hierarchies — every depth up to 4 and every goal form (the
// single-group kReductionAxes goal and the multi-group kSystem /
// kColumnMajor / kRowMajor goals) — and its table counters stay pinned.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/synthesizer.h"

namespace p2::core {
namespace {

struct GridCase {
  std::string name;
  ParallelismMatrix matrix;
  std::vector<int> reduction_axes;
  SynthesisHierarchyKind kind = SynthesisHierarchyKind::kReductionAxes;
  bool collapse = true;
  int max_program_size = 5;
};

// Depths here count the synthesis hierarchy's levels below the root. The
// deep cases cap the program size so the *oracle* stays test-sized; the
// bench (bench/bench_synth.cc) runs the full paper-default size 5 on them.
std::vector<GridCase> Grid() {
  std::vector<GridCase> grid;
  // Depth 1: reduction axis inside one level; programs are AR / RS-AG /
  // RD-BC only.
  grid.push_back({"d1-trivial", ParallelismMatrix({{1, 8}, {2, 2}}), {0}});
  // Depth 2: the paper's Fig 2d running example.
  grid.push_back(
      {"d2-fig2d", ParallelismMatrix({{1, 1, 2, 2}, {1, 2, 1, 2}}), {1}});
  // Depth 2 with unequal factors.
  grid.push_back({"d2-4x2", ParallelismMatrix({{4, 2}, {1, 2}}), {0}});
  // Depth 3, k = 8.
  grid.push_back({"d3-2x2x2", ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}), {0}});
  // Depth 4, k = 16 (size-limited: the oracle is exponential here).
  grid.push_back({"d4-2x2x2x2",
                  ParallelismMatrix({{2, 2, 2, 2}, {1, 1, 1, 1}}),
                  {0},
                  SynthesisHierarchyKind::kReductionAxes,
                  true,
                  4});
  // Multi-axis reduction: factors of two axes interleave into one hierarchy.
  grid.push_back(
      {"d2-multi-axis", ParallelismMatrix({{2, 2}, {2, 2}}), {0, 1}});
  // collapse = false keeps same-hardware-level factors apart (deeper
  // hierarchy from the same matrix — the ablation configuration).
  grid.push_back({"d3-uncollapsed",
                  ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}),
                  {0},
                  SynthesisHierarchyKind::kReductionAxes,
                  false});
  // Multi-group goal forms: hierarchy variants (a)-(c) keep one goal group
  // per non-reduction coordinate, exercising goal contexts the
  // kReductionAxes cases never build.
  grid.push_back({"d2-system", ParallelismMatrix({{1, 2}, {2, 1}}), {0},
                  SynthesisHierarchyKind::kSystem});
  grid.push_back({"d2-colmajor", ParallelismMatrix({{2, 2}, {1, 2}}), {0},
                  SynthesisHierarchyKind::kColumnMajor, true, 4});
  grid.push_back({"d2-rowmajor", ParallelismMatrix({{2, 2}, {1, 2}}), {0},
                  SynthesisHierarchyKind::kRowMajor, true, 4});
  return grid;
}

SynthesisHierarchy BuildCase(const GridCase& c) {
  return SynthesisHierarchy::Build(c.matrix, c.reduction_axes, c.kind,
                                   c.collapse);
}

TEST(SynthDifferential, MatchesReferenceDfsAcrossTheGrid) {
  for (const GridCase& c : Grid()) {
    SCOPED_TRACE(c.name);
    const auto sh = BuildCase(c);
    SynthesisOptions options;
    options.max_program_size = c.max_program_size;
    const auto oracle = SynthesizeProgramsReference(sh, options);
    const auto fast = SynthesizePrograms(sh, options);
    // Byte-identical program lists: same programs, same order.
    ASSERT_EQ(fast.programs.size(), oracle.programs.size());
    for (std::size_t i = 0; i < fast.programs.size(); ++i) {
      EXPECT_EQ(fast.programs[i], oracle.programs[i]) << "program " << i;
    }
    EXPECT_EQ(fast.stats.alphabet_size, oracle.stats.alphabet_size);
  }
}

TEST(SynthDifferential, EveryProgramSizeLimitMatches) {
  // The iterative-deepening emission must agree with the oracle's stable
  // size sort at every depth bound, not just the default.
  const auto sh = BuildCase(
      {"d3", ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}), {0}});
  for (int size = 0; size <= 5; ++size) {
    SCOPED_TRACE(size);
    SynthesisOptions options;
    options.max_program_size = size;
    EXPECT_EQ(SynthesizePrograms(sh, options).programs,
              SynthesizeProgramsReference(sh, options).programs);
  }
}

TEST(SynthDifferential, TableCountersArePinned) {
  // The program count and the five table counters of the paper-default
  // size-5 search. CanonicalResultText leaves the counters out and the
  // reference DFS computes none of them, so only these figures catch a
  // change to the table's expansion or interning order.
  struct Pinned {
    GridCase c;
    std::size_t programs;
    SynthesisStats stats;
  };
  const Pinned pinned[] = {
      {{"d3", ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}), {0}},
       848,
       {.instructions_tried = 27225,
        .applications_succeeded = 1334,
        .states_visited = 693,
        .states_deduped = 642,
        .branches_pruned = 1422}},
      {{"d4", ParallelismMatrix({{2, 2, 2, 2}, {1, 1, 1, 1}}), {0}},
       3611,
       {.instructions_tried = 511200,
        .applications_succeeded = 20047,
        .states_visited = 11974,
        .states_deduped = 8074,
        .branches_pruned = 12639}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.c.name);
    const auto result = SynthesizePrograms(BuildCase(p.c));
    EXPECT_EQ(result.programs.size(), p.programs);
    EXPECT_EQ(result.stats.instructions_tried, p.stats.instructions_tried);
    EXPECT_EQ(result.stats.applications_succeeded,
              p.stats.applications_succeeded);
    EXPECT_EQ(result.stats.states_visited, p.stats.states_visited);
    EXPECT_EQ(result.stats.states_deduped, p.stats.states_deduped);
    EXPECT_EQ(result.stats.branches_pruned, p.stats.branches_pruned);
  }
}

TEST(SynthDifferential, CapReturnsSizeOrderedPrefix) {
  const auto sh = BuildCase(
      {"d3", ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}), {0}});
  SynthesisOptions full;
  const auto all = SynthesizePrograms(sh, full);
  ASSERT_GT(all.programs.size(), 16u);
  for (std::int64_t cap : {1, 7, 100}) {
    SynthesisOptions capped;
    capped.max_programs = cap;
    const auto some = SynthesizePrograms(sh, capped);
    ASSERT_EQ(some.programs.size(), static_cast<std::size_t>(cap));
    for (std::size_t i = 0; i < some.programs.size(); ++i) {
      EXPECT_EQ(some.programs[i], all.programs[i]);
    }
  }
}

}  // namespace
}  // namespace p2::core
