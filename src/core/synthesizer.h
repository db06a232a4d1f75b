// Syntax-guided synthesis of reduction programs (paper Section 3.5):
// enumerate DSL programs in increasing size over a synthesis hierarchy,
// pruning with the collective semantics, and return every program whose
// final context is the goal (each device holds exactly its reduction
// group's data, fully reduced).
//
// Two engines produce the same program list:
//
//  - SynthesizePrograms: a depth-bounded search over a transposition table.
//    Redistribution states are interned by DeviceState::Hash()/equality, the
//    (state, instruction) -> state transition relation is computed once per
//    distinct state via apply/undo, and the exact-length goal completions of
//    every (state, length) pair are memoized — so sub-states reached by
//    different instruction orders are explored once and replayed everywhere
//    else. The table grows breadth-first in one serial pass per layer that
//    interns each successor as soon as it is found, in (discovery, alphabet)
//    order, so state ids, programs and stats are a pure function of the
//    synthesis problem. The search runs on its caller's thread: in the
//    planner that is the planning service's task for the signature, so the
//    service's pool size is the only thread count. Iterative deepening over
//    the program size then emits the root's completions directly in
//    increasing size order.
//
//  - SynthesizeProgramsReference: the original blind DFS that copies the
//    full StateContext per candidate. Kept as the differential-testing
//    oracle (tests/synth_differential_test.cc asserts byte-identical program
//    lists) and as the baseline bench_synth measures the search against.
//
// The only observable difference is under the max_programs cap: the
// transposition search keeps the *smallest* max_programs programs (a prefix
// of the size-ordered list), while the reference DFS keeps an arbitrary
// DFS-order prefix of the same set.
#ifndef P2_CORE_SYNTHESIZER_H_
#define P2_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "core/reduction_dsl.h"
#include "core/synthesis_hierarchy.h"

namespace p2::core {

struct SynthesisOptions {
  /// The paper uses 5: "we set 5 as the program size limit ... sufficient to
  /// generate interesting reduction patterns".
  int max_program_size = 5;
  /// Safety cap on emitted programs.
  std::int64_t max_programs = 1 << 20;
  /// Cooperative-cancellation token (common/cancel.h), checked between
  /// frontier layers, per frontier-state expansion, and per emitted size
  /// class; an aborted search throws the token's error. Null (the default)
  /// never cancels. Execution-only: it cannot change the program list of a
  /// search that completes, so SynthesisCache keys exclude it.
  CancelToken cancel;
};

struct SynthesisStats {
  /// Instruction applications attempted / semantically valid. The
  /// transposition search applies each instruction once per *distinct*
  /// state, so these count transition-table construction, not tree nodes.
  std::int64_t instructions_tried = 0;
  std::int64_t applications_succeeded = 0;
  /// Distinct redistribution states interned across all root branches.
  std::int64_t states_visited = 0;
  /// Transpositions: state arrivals that hit an already-interned state and
  /// were collapsed onto it instead of being re-explored.
  std::int64_t states_deduped = 0;
  /// Completion-memo hits: subtree walks replayed from the transposition
  /// table instead of being re-searched.
  std::int64_t branches_pruned = 0;
  int alphabet_size = 0;  ///< distinct (slice, form) grouping patterns x ops
  double seconds = 0.0;
};

struct SynthesisResult {
  std::vector<Program> programs;
  SynthesisStats stats;
};

/// One usable (slice, form) pair of a synthesis hierarchy together with the
/// device groups it derives. The synthesizer's instruction alphabet is
/// this set crossed with the five collectives.
struct GroupingPattern {
  int slice_level = 0;
  Form form = Form::InsideGroup();
  std::vector<std::vector<std::int64_t>> groups;
};

/// Every distinct grouping pattern of the hierarchy: all (slice, form)
/// pairs, deduplicated by the groups they derive, trivial (all-singleton)
/// patterns dropped.
std::vector<GroupingPattern> BuildGroupingAlphabet(
    const SynthesisHierarchy& sh);

/// Enumerates all semantically valid programs of size <= max_program_size
/// reaching the goal of `sh`, in increasing program size (then in instruction
/// order). Grouping patterns that derive identical device groups are
/// deduplicated, and programs are not extended past the goal.
SynthesisResult SynthesizePrograms(const SynthesisHierarchy& sh,
                                   const SynthesisOptions& options = {});

/// The seed's blind DFS (see the file comment). Same program list as
/// SynthesizePrograms; exponentially slower on deep hierarchies. The
/// transposition-table stats (states_visited, states_deduped,
/// branches_pruned) stay zero.
SynthesisResult SynthesizeProgramsReference(const SynthesisHierarchy& sh,
                                            const SynthesisOptions& options = {});

}  // namespace p2::core

#endif  // P2_CORE_SYNTHESIZER_H_
