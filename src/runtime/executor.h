// The runtime substrate's program executor: runs a lowered reduction program
// on the simulated cluster, step by step (barrier between steps, groups of a
// step contending concurrently for the network), and reports the simulated
// wall-clock. This is the stand-in for the paper's XLA->NCCL-on-GCP
// measurements — see DESIGN.md, substitutions.
//
// Steps repeat heavily across the programs and placements one engine
// measures (the same collective over the same device groups and payload), so
// the executor memoizes each distinct step's simulated result and simulates
// it once.
#ifndef P2_RUNTIME_EXECUTOR_H_
#define P2_RUNTIME_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/lowering.h"
#include "runtime/collective_schedule.h"
#include "topology/network.h"
#include "topology/cluster.h"

namespace p2::runtime {

/// Observability record for one executed step.
struct StepTrace {
  core::Collective op = core::Collective::kAllReduce;
  int num_groups = 0;
  int group_size = 0;
  double bytes_in = 0.0;   ///< per-participant payload entering the step
  double seconds = 0.0;
  std::int64_t flows_completed = 0;
};

/// Thread-safe: concurrent Measure* calls share the immutable network and a
/// mutex-guarded step memo. The memo key is exactly what decides a step's
/// simulated time on this executor — the collective, the algorithm, the bit
/// patterns of the per-member bytes in and out, and the groups in order with
/// their members — since the cluster, network and schedule options are
/// fixed per instance. The simulator is deterministic, so a hit returns the
/// very doubles a fresh simulation would.
class Executor {
 public:
  /// The memo holds at most this many steps; past it, misses simulate
  /// without being stored. About 7x the 2,286 distinct steps of the 128-GPU
  /// racked 2x4 full grid.
  static constexpr std::size_t kMaxMemoizedSteps = 16384;

  explicit Executor(topology::Cluster cluster, ScheduleOptions options = {});

  const topology::Cluster& cluster() const { return cluster_; }
  const Network& network() const { return network_; }

  /// Simulated seconds to run one step: every group executes `op`
  /// concurrently on the shared network.
  double MeasureStep(const core::LoweredStep& step, double payload_bytes,
                     core::NcclAlgo algo, StepTrace* trace = nullptr) const;

  /// Simulated seconds for the whole program (steps run back-to-back).
  /// When `trace` is non-null it receives one StepTrace per step.
  double MeasureProgram(const core::LoweredProgram& program,
                        double payload_bytes, core::NcclAlgo algo,
                        std::vector<StepTrace>* trace = nullptr) const;

  /// Distinct steps simulated and stored in the memo so far.
  std::size_t memoized_steps() const;

 private:
  struct SimulatedStep {
    double seconds = 0.0;
    std::int64_t flows_completed = 0;
  };

  topology::Cluster cluster_;
  ScheduleOptions options_;
  Network network_;
  mutable std::mutex memo_mu_;
  /// Step key -> its simulated result. Guarded by memo_mu_.
  mutable std::unordered_map<std::string, SimulatedStep> memo_;
};

}  // namespace p2::runtime

#endif  // P2_RUNTIME_EXECUTOR_H_
