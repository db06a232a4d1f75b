#include "core/lowering.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/byte_codec.h"
#include "core/collective_semantics.h"
#include "core/device_state.h"
#include "core/grouping.h"

namespace p2::core {

namespace {

// The instruction's synthesis groups with more than one member. Singleton
// groups perform no communication; the synthesizer's alphabet filters them
// identically before validating instructions.
std::vector<std::vector<std::int64_t>> NonTrivialGroups(
    std::span<const std::int64_t> levels, const Instruction& instr) {
  auto groups = DeriveGroups(levels, instr);
  std::erase_if(groups, [](const auto& g) { return g.size() < 2; });
  if (groups.empty()) {
    throw std::invalid_argument(
        "LowerProgram: instruction derives no non-trivial groups: " +
        ToString(instr));
  }
  return groups;
}

}  // namespace

std::vector<StepFractions> ReplayFractions(
    std::span<const std::int64_t> levels, const Program& program) {
  std::int64_t k = 1;
  for (const std::int64_t level : levels) k *= level;
  StateContext ctx = MakeInitialContext(static_cast<int>(k));

  std::vector<StepFractions> out;
  out.reserve(program.size());
  // Applications are permanent here, so the undo log is only a way to skip
  // the whole-context backup the legacy overload would take per step.
  ApplyUndo undo;
  for (const Instruction& instr : program) {
    const auto synth_groups = NonTrivialGroups(levels, instr);
    StepFractions& step = out.emplace_back();

    // Fractions: data held by the step's participants before the op. All
    // reduce-family participants hold equally many rows (the semantics
    // requires it); for Broadcast the root's volume is what moves.
    double in_rows = 0;
    for (const auto& g : synth_groups) {
      in_rows = std::max(
          in_rows,
          static_cast<double>(
              ctx[static_cast<std::size_t>(g[0])].NumNonEmptyRows()));
    }
    step.in_fraction = in_rows / static_cast<double>(k);

    const ApplyResult r =
        ApplyCollectiveToGroups(instr.op, ctx, synth_groups, undo);
    undo.Clear();
    if (!r.ok()) {
      std::ostringstream os;
      os << "LowerProgram: invalid instruction " << ToString(instr)
         << ": " << ToString(r.error);
      throw std::invalid_argument(os.str());
    }

    double out_rows = 0;
    for (const auto& g : synth_groups) {
      for (std::int64_t d : g) {
        out_rows = std::max(
            out_rows, static_cast<double>(
                          ctx[static_cast<std::size_t>(d)].NumNonEmptyRows()));
      }
    }
    step.out_fraction = out_rows / static_cast<double>(k);
  }
  return out;
}

LoweredStep LowerInstruction(const SynthesisHierarchy& sh,
                             const Instruction& instr) {
  const auto synth_groups = NonTrivialGroups(sh.levels(), instr);
  LoweredStep step;
  step.op = instr.op;
  // Replicate the synthesis groups over every non-reduction assignment.
  step.groups.reserve(synth_groups.size() *
                      static_cast<std::size_t>(sh.num_replicas()));
  for (std::int64_t rep = 0; rep < sh.num_replicas(); ++rep) {
    for (const auto& g : synth_groups) {
      std::vector<std::int64_t>& global = step.groups.emplace_back();
      global.reserve(g.size());
      for (std::int64_t s : g) global.push_back(sh.GlobalDevice(s, rep));
    }
  }
  return step;
}

LoweredProgram LowerProgram(const SynthesisHierarchy& sh,
                            const Program& program) {
  const std::vector<StepFractions> fractions =
      ReplayFractions(sh.levels(), program);
  LoweredProgram out;
  out.source = program;
  out.num_devices = sh.num_global_devices();
  out.steps.reserve(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    LoweredStep& step =
        out.steps.emplace_back(LowerInstruction(sh, program[i]));
    step.in_fraction = fractions[i].in_fraction;
    step.out_fraction = fractions[i].out_fraction;
  }
  return out;
}

std::vector<StepFractions> LoweringMemo::Fractions(
    std::span<const std::int64_t> levels, const Program& program) {
  // The key: every level, then every instruction's four fields. Both lists
  // are length-prefixed, so no two distinct pairs share a key. It never
  // leaves the process.
  std::string key;
  key.reserve(8 + 8 * levels.size() + 13 * program.size());
  AppendU32(&key, static_cast<std::uint32_t>(levels.size()));
  for (const std::int64_t level : levels) AppendI64(&key, level);
  AppendU32(&key, static_cast<std::uint32_t>(program.size()));
  for (const Instruction& instr : program) {
    AppendI32(&key, instr.slice_level);
    AppendU8(&key, static_cast<std::uint8_t>(instr.form.kind));
    AppendI32(&key, instr.form.ancestor_level);
    AppendU8(&key, static_cast<std::uint8_t>(instr.op));
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
  }
  // Replay outside the lock; a throw leaves the memo untouched.
  std::vector<StepFractions> fractions = ReplayFractions(levels, program);
  const std::lock_guard<std::mutex> lock(mu_);
  if (memo_.size() < kMaxMemoizedPrograms) {
    memo_.emplace(std::move(key), fractions);
  }
  return fractions;
}

std::size_t LoweringMemo::memoized_programs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

std::vector<std::size_t> PlacementSteps::Lower(
    const Program& program, std::span<const StepFractions> fractions) {
  if (fractions.size() != program.size()) {
    throw std::invalid_argument(
        "PlacementSteps: one pair of fractions per instruction expected");
  }
  std::vector<std::size_t> ids;
  ids.reserve(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& instr = program[i];
    const InstructionKey instr_key{instr.slice_level, instr.form.kind,
                                   instr.form.ancestor_level, instr.op};
    const auto key = std::tuple{instr_key, fractions[i].in_fraction,
                                fractions[i].out_fraction};
    auto it = id_of_.find(key);
    if (it == id_of_.end()) {
      // A new step: build the instruction's groups on its first use, and
      // copy them for every later pair of fractions.
      const auto first = first_step_.find(instr_key);
      const bool built = first != first_step_.end();
      LoweredStep step =
          built ? steps_[first->second] : LowerInstruction(sh_, instr);
      step.in_fraction = fractions[i].in_fraction;
      step.out_fraction = fractions[i].out_fraction;
      if (!built) first_step_.emplace(instr_key, steps_.size());
      it = id_of_.emplace(key, steps_.size()).first;
      steps_.push_back(std::move(step));
    }
    ids.push_back(it->second);
  }
  return ids;
}

bool CheckLoweredOnFullSystem(const SynthesisHierarchy& sh,
                              const LoweredProgram& lowered,
                              std::string* error) {
  const int k = static_cast<int>(sh.num_global_devices());
  StateContext ctx = MakeInitialContext(k);
  ApplyUndo undo;
  for (std::size_t i = 0; i < lowered.steps.size(); ++i) {
    const LoweredStep& step = lowered.steps[i];
    const ApplyResult r =
        ApplyCollectiveToGroups(step.op, ctx, step.groups, undo);
    undo.Clear();
    if (!r.ok()) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "step " << i << " (" << ToString(step.op)
           << ") invalid on full system: " << ToString(r.error);
        *error = os.str();
      }
      return false;
    }
  }
  const auto goal_groups = sh.layout().ReductionGroups(sh.reduction_axes());
  const StateContext goal = MakeGoalContext(k, goal_groups);
  if (ctx != goal) {
    if (error != nullptr) *error = "final context differs from goal";
    return false;
  }
  return true;
}

}  // namespace p2::core
