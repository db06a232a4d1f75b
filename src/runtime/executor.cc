#include "runtime/executor.h"

#include "common/byte_codec.h"
#include "runtime/flow_sim.h"

namespace p2::runtime {

namespace {

// The memo key: the collective, the algorithm, the exact payload bits, and
// every group prefixed by its size, so no two distinct steps share a key.
// The key never leaves the process, so each group's members go in as their
// in-memory bytes, one append per group, which keeps a hit cheap.
std::string StepKey(const core::LoweredStep& step, core::NcclAlgo algo,
                    double bytes_in, double bytes_out) {
  std::string key;
  std::size_t members = 0;
  for (const auto& group : step.groups) members += group.size();
  key.reserve(2 + 16 + 4 * step.groups.size() +
              sizeof(std::int64_t) * members);
  AppendU8(&key, static_cast<std::uint8_t>(step.op));
  AppendU8(&key, static_cast<std::uint8_t>(algo));
  AppendF64(&key, bytes_in);
  AppendF64(&key, bytes_out);
  for (const auto& group : step.groups) {
    AppendU32(&key, static_cast<std::uint32_t>(group.size()));
    key.append(reinterpret_cast<const char*>(group.data()),
               sizeof(std::int64_t) * group.size());
  }
  return key;
}

}  // namespace

Executor::Executor(topology::Cluster cluster, ScheduleOptions options)
    : cluster_(std::move(cluster)),
      options_(options),
      network_(topology::Network::Build(
          cluster_, topology::NetworkFidelity::kMeasured)) {}

double Executor::MeasureStep(const core::LoweredStep& step,
                             double payload_bytes, core::NcclAlgo algo,
                             StepTrace* trace) const {
  const double bytes_in = step.in_fraction * payload_bytes;
  const double bytes_out = step.out_fraction * payload_bytes;
  std::string key = StepKey(step, algo, bytes_in, bytes_out);
  SimulatedStep result;
  bool hit = false;
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    if (const auto it = memo_.find(key); it != memo_.end()) {
      result = it->second;
      hit = true;
    }
  }
  if (!hit) {
    // Simulate outside the lock; a racing thread may simulate the same
    // step, and both store the same deterministic result.
    std::vector<TaskSequence> tasks;
    tasks.reserve(step.groups.size());
    for (const auto& group : step.groups) {
      tasks.push_back(CompileCollective(step.op, algo, group, bytes_in,
                                        bytes_out, cluster_, network_,
                                        options_));
    }
    FlowSimulator sim(network_);
    FlowSimStats stats;
    result.seconds = sim.Run(tasks, &stats);
    result.flows_completed = stats.flows_completed;
    const std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_.size() < kMaxMemoizedSteps) memo_.emplace(std::move(key), result);
  }
  if (trace != nullptr) {
    trace->op = step.op;
    trace->num_groups = static_cast<int>(step.groups.size());
    trace->group_size =
        step.groups.empty() ? 0 : static_cast<int>(step.groups[0].size());
    trace->bytes_in = bytes_in;
    trace->seconds = result.seconds;
    trace->flows_completed = result.flows_completed;
  }
  return result.seconds;
}

double Executor::MeasureProgram(const core::LoweredProgram& program,
                                double payload_bytes, core::NcclAlgo algo,
                                std::vector<StepTrace>* trace) const {
  double total = 0.0;
  for (const auto& step : program.steps) {
    StepTrace step_trace;
    total += MeasureStep(step, payload_bytes, algo,
                         trace != nullptr ? &step_trace : nullptr);
    if (trace != nullptr) trace->push_back(step_trace);
  }
  return total;
}

std::size_t Executor::memoized_steps() const {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.size();
}

}  // namespace p2::runtime
