// The P2 tool, end to end (paper Sections 3-5): enumerate parallelism
// placements, synthesize reduction programs per placement, lower them,
// predict their cost with the analytic model and measure them on the
// runtime substrate, and rank the results.
#ifndef P2_ENGINE_ENGINE_H_
#define P2_ENGINE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/collective.h"
#include "core/lowering.h"
#include "core/parallelism_matrix.h"
#include "core/synthesizer.h"
#include "cost/cost_model.h"
#include "engine/synthesis_cache.h"
#include "runtime/executor.h"
#include "topology/cluster.h"

namespace p2::engine {

struct EngineOptions {
  core::NcclAlgo algo = core::NcclAlgo::kRing;
  /// Per-GPU payload in bytes. The paper uses 2^29 * num_nodes float32.
  double payload_bytes = 0.0;  // 0 => the paper's default for the cluster
  core::SynthesisOptions synthesis;
  /// Collapse same-hardware-level factors in the synthesis hierarchy
  /// (Table 1 step 3; the ablation bench turns this off).
  bool collapse_hierarchy = true;
  core::SynthesisHierarchyKind hierarchy_kind =
      core::SynthesisHierarchyKind::kReductionAxes;
  /// Skip the runtime-substrate measurement (prediction only).
  bool measure = true;
};

/// Stage and cache statistics of the evaluation pipeline run that produced
/// an ExperimentResult (engine/pipeline.h). Wall-clock fields vary run to
/// run; the placements, programs and predictions are deterministic.
/// Service-wide figures (entries preloaded from disk, totals across
/// requests) live in PlannerServiceStats, reported once per service instead
/// of being repeated per experiment.
struct PipelineStats {
  std::int64_t num_placements = 0;
  std::int64_t unique_hierarchies = 0;  ///< distinct synthesis signatures
  /// The cache events *this request's own lookups* caused, summed in
  /// placement order: one hit or miss per placement, plus its deferrals
  /// behind other requests' in-flight syntheses (each deferral's retry
  /// still counts the hit or miss), its remote-plane errors, and the
  /// evictions and fired continuations of the entries it published. Under
  /// concurrent requests sharing one PlannerService, which request takes
  /// the miss for a shared signature depends on arrival order, so sums
  /// across requests are stable but the per-request split can vary; only
  /// hits + misses is per-request deterministic.
  SynthesisCacheStats cache;
  /// Transposition-search totals (core::SynthesisStats) summed over the
  /// placements, counterfactually like TotalSynthesisSeconds: placements
  /// served from the signature cache contribute the stats of the shared
  /// run, so the sums are deterministic regardless of cache state.
  std::int64_t synth_states_visited = 0;
  std::int64_t synth_states_deduped = 0;
  std::int64_t synth_branches_pruned = 0;
  /// Guided-evaluation measurements skipped by early stopping: candidates
  /// within the top-k whose prediction already exceeded the incumbent's
  /// measurement by more than the model's observed overprediction bound
  /// (sum of PlacementEvaluation::guided_skipped; deterministic).
  std::int64_t guided_skipped = 0;
  /// Time actually spent synthesizing, summed over the synthesis this
  /// request ran itself (owned signatures, remote-plane fetches included);
  /// synthesis and evaluation tasks interleave, so this is task time, not a
  /// stage's wall-clock.
  double synthesis_seconds = 0.0;
  /// Lower/predict/measure time, summed per placement like
  /// synthesis_seconds.
  double evaluation_seconds = 0.0;
  double total_seconds = 0.0;
  int threads = 1;
};

/// One synthesized (or baseline) program, evaluated.
struct ProgramEvaluation {
  core::Program program;
  std::string text;                ///< human-readable DSL form
  int num_steps = 0;
  double predicted_seconds = 0.0;  ///< analytic model (the paper's simulator)
  double measured_seconds = 0.0;   ///< runtime substrate (the "testbed")
  bool measured = false;           ///< false under guided evaluation
  bool is_default_allreduce = false;
};

/// All programs of one parallelism placement.
struct PlacementEvaluation {
  core::ParallelismMatrix matrix;
  /// Wall-clock of synthesizing this placement's program set. When the
  /// pipeline serves the set from the signature cache this is the original
  /// synthesis time of the shared run (what a cacheless evaluation would
  /// have spent), so summing it across placements gives the counterfactual
  /// serial cost; the wall-clock actually spent synthesizing is
  /// ExperimentResult::pipeline.synthesis_seconds.
  double synthesis_seconds = 0.0;
  core::SynthesisStats synthesis_stats;
  /// Top-k candidates guided evaluation left unmeasured because their
  /// prediction put them provably behind the incumbent's measurement under
  /// the model's observed overprediction bound (engine/pipeline.cc). A pure
  /// function of the deterministic predictions and measurements — identical
  /// at any thread count and cache state. Always 0 outside guided mode.
  int guided_skipped = 0;
  std::vector<ProgramEvaluation> programs;  ///< [0] is the default AllReduce

  const ProgramEvaluation& DefaultAllReduce() const { return programs.front(); }
  /// Index of the measured-best program among those actually measured. When
  /// nothing was measured (measure = false, or guided evaluation with
  /// measure_top_k = 0 before the baseline) falls back to the predicted-best
  /// index, so the result is a valid index whenever `programs` is non-empty
  /// (as every evaluated placement is; both return -1 on an empty vector).
  int BestMeasuredIndex() const;
  int BestPredictedIndex() const;
  /// Programs measurably faster than the default AllReduce (with a small
  /// relative tolerance so that byte-identical schedules do not count).
  /// Zero when the default AllReduce itself was never measured.
  int NumOutperforming() const;
};

/// One experiment: a cluster + parallelism axes + reduction axes + algo.
struct ExperimentResult {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
  core::NcclAlgo algo = core::NcclAlgo::kRing;
  double payload_bytes = 0.0;
  std::vector<PlacementEvaluation> placements;
  PipelineStats pipeline;  ///< statistics of the run that produced this

  std::int64_t TotalPrograms() const;
  std::int64_t TotalOutperforming() const;
  /// Counterfactual serial synthesis cost (see
  /// PlacementEvaluation::synthesis_seconds); the wall-clock actually spent
  /// is pipeline.synthesis_seconds.
  double TotalSynthesisSeconds() const;
};

class Engine {
 public:
  Engine(topology::Cluster cluster, EngineOptions options = {});

  const topology::Cluster& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }
  double payload_bytes() const { return payload_bytes_; }
  /// The analytic model and the runtime substrate, shared by pipeline
  /// workers. The model is const-thread-safe over its immutable
  /// topology::Network; the executor adds a mutex-guarded step memo, so
  /// every request on this engine simulates each distinct step once.
  const cost::CostModel& cost_model() const { return cost_model_; }
  const runtime::Executor& executor() const { return executor_; }

  /// The paper's payload: 2^29 * num_nodes float32 elements per GPU.
  static double DefaultPayloadBytes(const topology::Cluster& cluster);

  /// Enumerates every placement of `axes` on the cluster's hierarchy.
  std::vector<core::ParallelismMatrix> SynthesizePlacements(
      std::span<const std::int64_t> axes) const;

  /// Synthesizes, lowers, predicts and measures all programs (plus the
  /// default single-step AllReduce) for one placement.
  PlacementEvaluation EvaluatePlacement(const core::ParallelismMatrix& matrix,
                                        std::span<const int> reduction_axes) const;

  /// Simulator-guided evaluation (the paper's Section 5 workflow): predict
  /// every program with the analytic model, but *measure* only the top
  /// `measure_top_k` by prediction (plus the default AllReduce). This is how
  /// P2 avoids evaluating hundreds of candidates on the real system.
  PlacementEvaluation EvaluatePlacementGuided(
      const core::ParallelismMatrix& matrix,
      std::span<const int> reduction_axes, int measure_top_k) const;

  /// Full experiment over every placement of `axes`: a Pipeline
  /// (engine/pipeline.h) on this engine with a call-local synthesis cache,
  /// lowering memo and one-thread pool, so placements inducing isomorphic
  /// synthesis hierarchies share one synthesis run and this engine's
  /// executor memo carries across calls. Callers that want a worker pool,
  /// or a cache shared across calls, hold a PlannerService and Submit
  /// requests naming the cluster; the output is the same.
  ExperimentResult RunExperiment(std::span<const std::int64_t> axes,
                                 std::span<const int> reduction_axes) const;

 private:
  topology::Cluster cluster_;
  EngineOptions options_;
  double payload_bytes_ = 0.0;
  cost::CostModel cost_model_;
  runtime::Executor executor_;
};

}  // namespace p2::engine

#endif  // P2_ENGINE_ENGINE_H_
