#include "core/synthesizer.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "core/collective_semantics.h"
#include "core/device_state.h"
#include "core/grouping.h"

namespace p2::core {

std::vector<GroupingPattern> BuildGroupingAlphabet(
    const SynthesisHierarchy& sh) {
  std::vector<GroupingPattern> alphabet;
  std::set<std::vector<std::vector<std::int64_t>>> seen;
  const auto& levels = sh.levels();
  const int depth = static_cast<int>(levels.size());
  auto consider = [&](int slice, const Form& form) {
    auto groups = DeriveGroups(levels, slice, form);
    // Drop trivial groups; a pattern whose groups are all singletons performs
    // no communication and is not a reduction instruction.
    std::erase_if(groups, [](const auto& g) { return g.size() < 2; });
    if (groups.empty()) return;
    if (!seen.insert(groups).second) return;
    alphabet.push_back(GroupingPattern{slice, form, std::move(groups)});
  };
  for (int slice = 0; slice < depth; ++slice) {
    consider(slice, Form::InsideGroup());
    for (int anc = 0; anc < slice; ++anc) {
      consider(slice, Form::Parallel(anc));
      consider(slice, Form::Master(anc));
    }
  }
  return alphabet;
}

namespace {

constexpr int kNumOps = static_cast<int>(kAllCollectives.size());

// Flat instruction index over the alphabet: pattern-major, collective-minor
// — exactly the candidate order of the reference DFS, which the transition
// table below preserves.
Instruction DecodeInstruction(const std::vector<GroupingPattern>& alphabet,
                              std::int32_t index) {
  const GroupingPattern& p =
      alphabet[static_cast<std::size_t>(index) / kNumOps];
  return Instruction{p.slice_level, p.form,
                     kAllCollectives[static_cast<std::size_t>(index) % kNumOps]};
}

// The seed's blind DFS, kept verbatim as the differential oracle.
struct ReferenceSearcher {
  const std::vector<GroupingPattern>& alphabet;
  const StateContext& goal;
  const SynthesisOptions& options;
  SynthesisResult& result;
  Program current;

  void Dfs(const StateContext& ctx) {
    if (static_cast<std::int64_t>(result.programs.size()) >=
        options.max_programs) {
      return;
    }
    if (ctx == goal) {
      result.programs.push_back(current);
      return;  // extensions of a finished program are not useful programs
    }
    if (static_cast<int>(current.size()) >= options.max_program_size) return;
    for (const GroupingPattern& p : alphabet) {
      for (Collective op : kAllCollectives) {
        ++result.stats.instructions_tried;
        StateContext next = ctx;
        const ApplyResult r = ApplyCollectiveToGroups(op, next, p.groups);
        if (!r.ok()) continue;
        ++result.stats.applications_succeeded;
        current.push_back(Instruction{p.slice_level, p.form, op});
        Dfs(next);
        current.pop_back();
      }
    }
  }
};

// An instruction-index suffix leading to the goal.
using Suffix = std::vector<std::int32_t>;
using SuffixList = std::vector<Suffix>;

// The transposition table: redistribution states interned by
// DeviceState::Hash()/equality, the (state, instruction) -> state transition
// relation computed once per distinct state, and the exact-length goal
// completions of every (state, length) pair memoized — so sub-states reached
// by different instruction orders are explored once and replayed everywhere
// else.
//
// Build() grows the table breadth-first, one pass per layer: it walks the
// frontier in discovery order, tries every instruction in alphabet order by
// apply/undo on one scratch context, and interns each successor the moment
// it is found, copying the context only when it is new. That order assigns
// the state ids, so ids, the transition relation and every statistic are a
// pure function of the synthesis problem.
class TranspositionTable {
 public:
  TranspositionTable(const std::vector<GroupingPattern>& alphabet,
                     const StateContext& goal, int max_length)
      : alphabet_(alphabet), goal_(goal), max_length_(max_length) {}

  /// Interns the root state and expands the transition relation to every
  /// state reachable within `max_length_` instructions (goal states are
  /// absorbing and never expanded). `cancel` is observed between layers and
  /// per frontier-state expansion; an aborted build throws the token's
  /// error with the table half-grown (the caller discards it).
  void Build(const StateContext& initial, const CancelToken& cancel) {
    std::vector<int> layer = {Intern(initial)};
    const std::int64_t num_instructions =
        static_cast<std::int64_t>(alphabet_.size()) * kNumOps;
    for (int depth = 0; depth < max_length_ && !layer.empty(); ++depth) {
      MaybeInjectFault("synth.layer");
      cancel.ThrowIfCancelled();
      std::vector<int> next;
      for (const int id : layer) {
        cancel.ThrowIfCancelled();
        if (is_goal_[static_cast<std::size_t>(id)]) continue;
        // A copy, not a reference: interning below may grow states_.
        StateContext scratch = states_[static_cast<std::size_t>(id)];
        ApplyUndo undo;
        auto succ =
            std::make_unique<std::vector<std::pair<std::int32_t, int>>>();
        std::int32_t instr = 0;
        for (const GroupingPattern& p : alphabet_) {
          for (Collective op : kAllCollectives) {
            if (ApplyCollectiveToGroups(op, scratch, p.groups, undo).ok()) {
              const std::size_t before = states_.size();
              const int succ_id = Intern(scratch);
              if (states_.size() > before) next.push_back(succ_id);
              succ->emplace_back(instr, succ_id);
              undo.RevertInto(scratch);
            }
            ++instr;
          }
        }
        stats.instructions_tried += num_instructions;
        stats.applications_succeeded +=
            static_cast<std::int64_t>(succ->size());
        successors_[static_cast<std::size_t>(id)] = std::move(succ);
      }
      layer = std::move(next);
    }
  }

  /// Suffixes of exactly `length` instructions leading from state `id` to
  /// the goal, lexicographic in instruction index. Goal states are never
  /// extended — the DFS rule that finished programs make no useful prefixes.
  const SuffixList& Completions(int id, int length) {
    const std::int64_t key =
        static_cast<std::int64_t>(id) * (max_length_ + 1) + length;
    if (const auto it = completions_.find(key); it != completions_.end()) {
      ++stats.branches_pruned;
      return it->second;
    }
    SuffixList out;
    if (is_goal_[static_cast<std::size_t>(id)]) {
      if (length == 0) out.emplace_back();
    } else if (length > 0) {
      const auto* succ = successors_[static_cast<std::size_t>(id)].get();
      if (succ == nullptr) {
        // Build() expands every state reachable in < max_length_ steps, and
        // deeper states are only ever queried with length == 0.
        throw std::logic_error("TranspositionTable: unexpanded state queried");
      }
      for (const auto& [instr, succ_id] : *succ) {
        for (const Suffix& tail : Completions(succ_id, length - 1)) {
          Suffix& s = out.emplace_back();
          s.reserve(tail.size() + 1);
          s.push_back(instr);
          s.insert(s.end(), tail.begin(), tail.end());
        }
      }
    }
    // unordered_map references are stable, so callers may hold the returned
    // list across further Completions calls.
    return completions_.emplace(key, std::move(out)).first->second;
  }

  SynthesisStats stats;  ///< the counters the table owns (see header)

 private:
  /// Returns the id of `ctx`, interning a copy of it if unseen (a
  /// transposition otherwise).
  int Intern(const StateContext& ctx) {
    std::vector<int>& bucket = ids_by_hash_[HashContext(ctx)];
    for (int id : bucket) {
      if (states_[static_cast<std::size_t>(id)] == ctx) {
        ++stats.states_deduped;
        return id;
      }
    }
    const int id = static_cast<int>(states_.size());
    is_goal_.push_back(ctx == goal_);
    states_.push_back(ctx);
    successors_.emplace_back(nullptr);
    bucket.push_back(id);
    ++stats.states_visited;
    return id;
  }

  const std::vector<GroupingPattern>& alphabet_;
  const StateContext& goal_;
  const int max_length_;
  std::vector<StateContext> states_;
  std::vector<bool> is_goal_;
  /// Transition lists by state id; nullptr for goal states and for the
  /// final frontier (never extended).
  std::vector<std::unique_ptr<std::vector<std::pair<std::int32_t, int>>>>
      successors_;
  std::unordered_map<std::size_t, std::vector<int>> ids_by_hash_;
  std::unordered_map<std::int64_t, SuffixList> completions_;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SynthesisResult SynthesizePrograms(const SynthesisHierarchy& sh,
                                   const SynthesisOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SynthesisResult result;

  const int k = static_cast<int>(sh.num_synth_devices());
  const StateContext initial = MakeInitialContext(k);
  const StateContext goal = MakeGoalContext(k, sh.goal_groups());

  const std::vector<GroupingPattern> alphabet = BuildGroupingAlphabet(sh);
  result.stats.alphabet_size = static_cast<int>(alphabet.size()) * kNumOps;

  if (options.max_programs <= 0) {
    result.stats.seconds = SecondsSince(start);
    return result;
  }
  if (initial == goal) {
    // Degenerate single-device goal: the empty program, as the DFS finds it.
    result.programs.emplace_back();
    result.stats.seconds = SecondsSince(start);
    return result;
  }
  if (options.max_program_size <= 0) {
    result.stats.seconds = SecondsSince(start);
    return result;
  }

  TranspositionTable table(alphabet, goal, options.max_program_size);
  table.Build(initial, options.cancel);

  // Iterative deepening over the program size: the exact-length-d goal
  // completions of the root state *are* the programs of size d, and they
  // come out of the memoized table in instruction order — so the list is
  // emitted directly in increasing size, then instruction order, matching
  // the reference DFS's stable size sort byte for byte.
  std::int64_t emitted = 0;
  for (int d = 1; d <= options.max_program_size && emitted >= 0; ++d) {
    options.cancel.ThrowIfCancelled();
    for (const Suffix& tail : table.Completions(0, d)) {
      if (emitted >= options.max_programs) {
        emitted = -1;  // capped: stop both loops
        break;
      }
      Program program;
      program.reserve(tail.size());
      for (std::int32_t index : tail) {
        program.push_back(DecodeInstruction(alphabet, index));
      }
      result.programs.push_back(std::move(program));
      ++emitted;
    }
  }

  result.stats.instructions_tried = table.stats.instructions_tried;
  result.stats.applications_succeeded = table.stats.applications_succeeded;
  result.stats.states_visited = table.stats.states_visited;
  result.stats.states_deduped = table.stats.states_deduped;
  result.stats.branches_pruned = table.stats.branches_pruned;
  result.stats.seconds = SecondsSince(start);
  return result;
}

SynthesisResult SynthesizeProgramsReference(const SynthesisHierarchy& sh,
                                            const SynthesisOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SynthesisResult result;

  const int k = static_cast<int>(sh.num_synth_devices());
  const StateContext initial = MakeInitialContext(k);
  const StateContext goal = MakeGoalContext(k, sh.goal_groups());

  const std::vector<GroupingPattern> alphabet = BuildGroupingAlphabet(sh);
  result.stats.alphabet_size =
      static_cast<int>(alphabet.size()) * kNumOps;

  ReferenceSearcher searcher{alphabet, goal, options, result, {}};
  searcher.Dfs(initial);

  // Increasing order of program size (stable within a size class).
  std::stable_sort(result.programs.begin(), result.programs.end(),
                   [](const Program& a, const Program& b) {
                     return a.size() < b.size();
                   });

  result.stats.seconds = SecondsSince(start);
  return result;
}

}  // namespace p2::core
