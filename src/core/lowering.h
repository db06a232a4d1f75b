// Lowering of synthesized reduction programs from the synthesis hierarchy to
// the full system (paper Section 3.4): every instruction becomes a set of
// concrete global-device groups (the synthesis grouping pattern applied once
// per assignment of the non-reduction axes' coordinates), annotated with the
// per-device data volume entering and leaving the step.
//
// Lowering has two halves, and LowerProgram is their composition:
//
//   (a) ReplayFractions replays the program on the synthesis devices and
//       returns each step's in/out fractions. It reads only the synthesis
//       hierarchy's level cardinalities and the program, so every placement
//       sharing a signature replays identically; LoweringMemo keeps each
//       distinct (levels, program) replay, one memo per planning service.
//   (b) LowerInstruction replicates one instruction's synthesis groups onto
//       one placement's global devices. It reads the placement and the
//       instruction only, so PlacementSteps builds each distinct instruction
//       of a placement once and interns each distinct (instruction, in, out)
//       step, which callers then predict or measure once.
#ifndef P2_CORE_LOWERING_H_
#define P2_CORE_LOWERING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/collective.h"
#include "core/reduction_dsl.h"
#include "core/synthesis_hierarchy.h"

namespace p2::core {

struct LoweredStep {
  Collective op = Collective::kAllReduce;
  /// Concrete global-device groups executing `op` concurrently.
  std::vector<std::vector<std::int64_t>> groups;
  /// groups[i] as ints in ascending order — the ring/chain member order the
  /// cost model charges. Precomputed here (LowerProgram fills it; see
  /// ComputeSortedOrders) so CostModel::PredictStep does not rebuild and
  /// sort the order per group per prediction; when absent (e.g. a
  /// hand-constructed step) the cost model falls back to a scratch build.
  std::vector<std::vector<int>> sorted_orders;
  /// Per-participant data entering/leaving the step, as a fraction of the
  /// per-device payload (rows held / k'). For Reduce/Broadcast the fraction
  /// of the root is used; for AllGather `out_fraction` is the gathered total.
  double in_fraction = 1.0;
  double out_fraction = 1.0;

  /// Rebuilds `sorted_orders` from `groups`.
  void ComputeSortedOrders();
};

struct LoweredProgram {
  Program source;                  ///< the DSL program this was lowered from
  std::vector<LoweredStep> steps;  ///< executed in order, barrier in between
  std::int64_t num_devices = 0;    ///< global device count of the system
};

/// A step's data volume from the synthesis-level replay (see LoweredStep).
struct StepFractions {
  double in_fraction = 1.0;
  double out_fraction = 1.0;

  friend bool operator==(const StepFractions&, const StepFractions&) = default;
};

/// Half (a): replays `program` on the synthesis devices of a hierarchy with
/// level cardinalities `levels` and returns each instruction's fractions, in
/// program order. Throws std::invalid_argument when an instruction derives
/// no non-trivial group or is semantically invalid where it runs.
std::vector<StepFractions> ReplayFractions(
    std::span<const std::int64_t> levels, const Program& program);

/// Half (b): `instr`'s synthesis groups replicated over every non-reduction
/// assignment of `sh`'s placement, with their sorted orders; the fractions
/// are left at 1. Throws std::invalid_argument when `instr` derives no
/// non-trivial group.
LoweredStep LowerInstruction(const SynthesisHierarchy& sh,
                             const Instruction& instr);

/// Lowers `program` (which must be semantically valid on `sh`'s synthesis
/// hierarchy; throws std::invalid_argument otherwise): ReplayFractions on
/// `sh.levels()`, then LowerInstruction per instruction. The uncached
/// reference of what LoweringMemo and PlacementSteps compute.
LoweredProgram LowerProgram(const SynthesisHierarchy& sh,
                            const Program& program);

/// ReplayFractions memoized by (levels, program). Thread-safe: one mutex
/// guards the map and is held only to find or to insert; a miss replays
/// outside it, so two threads racing on one new key may both replay it and
/// store the same fractions. A program that throws is never stored.
class LoweringMemo {
 public:
  /// The memo holds at most this many programs; past it, misses replay
  /// without being stored. About 3.5x the 4,651 distinct programs of the
  /// a100:4 + v100:8 + racked 2x2 full grids planned through one service.
  static constexpr std::size_t kMaxMemoizedPrograms = 16384;

  std::vector<StepFractions> Fractions(std::span<const std::int64_t> levels,
                                       const Program& program);

  /// Distinct (levels, program) pairs stored so far.
  std::size_t memoized_programs() const;

 private:
  mutable std::mutex mu_;
  /// (levels, program) key -> its replay. Guarded by mu_.
  std::unordered_map<std::string, std::vector<StepFractions>> memo_;
};

/// Half (b) over the programs of one placement: each distinct instruction's
/// global groups are built once, and each distinct (instruction, in, out)
/// step gets one id, so a caller predicts or measures it once however many
/// programs share it. Not thread-safe; one placement is one caller's.
class PlacementSteps {
 public:
  /// `sh` must outlive the table.
  explicit PlacementSteps(const SynthesisHierarchy& sh) : sh_(sh) {}

  /// The ids of `program`'s steps, in program order, given the program's
  /// replay (`fractions`, one per instruction). Ids count up from 0 in
  /// order of first appearance.
  std::vector<std::size_t> Lower(const Program& program,
                                 std::span<const StepFractions> fractions);

  /// The step behind `id`. The reference is invalidated by the next Lower.
  const LoweredStep& step(std::size_t id) const { return steps_[id]; }
  /// Distinct steps so far.
  std::size_t size() const { return steps_.size(); }
  /// Distinct instructions so far: the global-group builds.
  std::size_t instructions() const { return first_step_.size(); }

 private:
  using InstructionKey = std::tuple<int, Form::Kind, int, Collective>;

  const SynthesisHierarchy& sh_;
  std::vector<LoweredStep> steps_;
  /// Each built instruction's first step, whose groups later fractions copy.
  std::map<InstructionKey, std::size_t> first_step_;
  std::map<std::tuple<InstructionKey, double, double>, std::size_t> id_of_;
};

/// Replays a lowered program on the *full system's* state matrices and
/// verifies it implements the user-requested reduction: the initial context
/// must reach exactly the goal context of the placement's reduction groups.
/// This is the paper's notion of end-to-end semantic validity; the lowering
/// theorem (Thm 3.2 machinery) says it always holds for programs synthesized
/// on hierarchy (d) — a property the test-suite checks empirically.
bool CheckLoweredOnFullSystem(const SynthesisHierarchy& sh,
                              const LoweredProgram& lowered,
                              std::string* error = nullptr);

}  // namespace p2::core

#endif  // P2_CORE_LOWERING_H_
