#include "engine/engine.h"

#include <algorithm>
#include <cmath>

#include "core/placement.h"
#include "engine/pipeline.h"
#include "engine/service.h"

namespace p2::engine {

int PlacementEvaluation::BestMeasuredIndex() const {
  if (programs.empty()) return -1;
  // Seed the comparison from the first *measured* program: under guided
  // evaluation (or measure = false) most entries carry measured_seconds == 0,
  // which must not win.
  int best = -1;
  for (int i = 0; i < static_cast<int>(programs.size()); ++i) {
    const auto& p = programs[static_cast<std::size_t>(i)];
    if (!p.measured) continue;
    if (best < 0 ||
        p.measured_seconds <
            programs[static_cast<std::size_t>(best)].measured_seconds) {
      best = i;
    }
  }
  return best >= 0 ? best : BestPredictedIndex();
}

int PlacementEvaluation::BestPredictedIndex() const {
  if (programs.empty()) return -1;
  int best = 0;
  for (int i = 1; i < static_cast<int>(programs.size()); ++i) {
    if (programs[static_cast<std::size_t>(i)].predicted_seconds <
        programs[static_cast<std::size_t>(best)].predicted_seconds) {
      best = i;
    }
  }
  return best;
}

int PlacementEvaluation::NumOutperforming() const {
  if (programs.empty() || !DefaultAllReduce().measured) return 0;
  // Require a 0.5% margin: schedules that move exactly the same bytes over
  // the same links should not be counted as wins on float noise.
  const double baseline = DefaultAllReduce().measured_seconds * 0.995;
  int n = 0;
  for (std::size_t i = 1; i < programs.size(); ++i) {
    if (programs[i].measured && programs[i].measured_seconds < baseline) ++n;
  }
  return n;
}

std::int64_t ExperimentResult::TotalPrograms() const {
  std::int64_t n = 0;
  for (const auto& p : placements) {
    n += static_cast<std::int64_t>(p.programs.size()) - 1;  // minus default
  }
  return n;
}

std::int64_t ExperimentResult::TotalOutperforming() const {
  std::int64_t n = 0;
  for (const auto& p : placements) n += p.NumOutperforming();
  return n;
}

double ExperimentResult::TotalSynthesisSeconds() const {
  double s = 0.0;
  for (const auto& p : placements) s += p.synthesis_seconds;
  return s;
}

Engine::Engine(topology::Cluster cluster, EngineOptions options)
    : cluster_(std::move(cluster)),
      options_(options),
      payload_bytes_(options.payload_bytes > 0
                         ? options.payload_bytes
                         : DefaultPayloadBytes(cluster_)),
      cost_model_(cluster_),
      executor_(cluster_) {}

double Engine::DefaultPayloadBytes(const topology::Cluster& cluster) {
  // Paper Section 4: (2^29 * nodes) float32 per GPU.
  return std::ldexp(4.0, 29) * cluster.num_nodes;
}

std::vector<core::ParallelismMatrix> Engine::SynthesizePlacements(
    std::span<const std::int64_t> axes) const {
  return core::EnumeratePlacements(cluster_.hierarchy(), axes);
}

PlacementEvaluation Engine::EvaluatePlacement(
    const core::ParallelismMatrix& matrix,
    std::span<const int> reduction_axes) const {
  return EvaluateUncachedPlacement(*this, matrix, reduction_axes,
                                   /*measure_top_k=*/-1);
}

PlacementEvaluation Engine::EvaluatePlacementGuided(
    const core::ParallelismMatrix& matrix,
    std::span<const int> reduction_axes, int measure_top_k) const {
  // Clamp: negative k means "measure nothing beyond the baseline" here,
  // while a negative measure_top_k below would mean "not guided".
  return EvaluateUncachedPlacement(*this, matrix, reduction_axes,
                                   std::max(0, measure_top_k));
}

ExperimentResult Engine::RunExperiment(
    std::span<const std::int64_t> axes,
    std::span<const int> reduction_axes) const {
  // A transient service per call: callers that want cross-query sharing
  // (one cache, one pool) hold a PlannerService themselves and Submit.
  PlannerServiceOptions service_options;
  service_options.threads = options_.threads;
  PlannerService service(*this, service_options);
  PlanRequest request;
  request.axes.assign(axes.begin(), axes.end());
  request.reduction_axes.assign(reduction_axes.begin(), reduction_axes.end());
  return service.Plan(std::move(request));
}

}  // namespace p2::engine
