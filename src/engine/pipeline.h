// The per-query executor behind the planning service (engine/service.h)
// and Engine::RunExperiment:
//
//   enumerate placements -> dedup by synthesis-hierarchy signature
//     -> synthesize once per signature (memoized in the service's shared
//        SynthesisCache, with cross-request in-flight dedup)
//     -> lower / predict / (guided-)measure every placement, in parallel
//        (each program's synthesis-level replay memoized in the service's
//        shared core::LoweringMemo; each distinct step built and predicted
//        once per placement)
//     -> merge in placement order
//
// A Pipeline is stateless: it borrows the process-wide cache and worker
// pool from its PlannerService and holds only per-query options, so any
// number of pipelines (one per in-flight request) share synthesis results
// and threads. There is no cacheless mode: every placement gets its
// programs through the signature cache. Placements are independent once
// their synthesis hierarchies are shared, so stages 3-4 run as work items
// on a ThreadPool::TaskGroup of the shared pool — concurrent requests'
// items interleave fairly. The one scheduler is deferral-aware: a
// signature group whose synthesis another request owns re-enqueues itself
// through a SynthesisCache::TryLookup continuation while the thread runs
// other pending tasks, so no pool thread ever blocks on a foreign synthesis
// (PipelineStats::cache counts the deferrals). Results are written into
// preallocated slots and merged in enumeration order, which makes the
// parallel output byte-identical to the per-placement reference,
// EvaluateUncachedPlacement (modulo wall-clock timing fields).
#ifndef P2_ENGINE_PIPELINE_H_
#define P2_ENGINE_PIPELINE_H_

#include <cstdint>
#include <span>

#include "common/cancel.h"
#include "engine/engine.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

class PlannerService;

/// Per-query knobs. Process-wide concerns — thread count, cache
/// persistence — live in PlannerServiceOptions.
struct PipelineOptions {
  /// < 0: measure every program iff the engine's options say so (the classic
  /// full-evaluation path). >= 0: simulator-guided evaluation — predict
  /// everything, measure only the default AllReduce plus the top-k programs
  /// by prediction (paper Section 5), early-stopping candidates whose
  /// prediction puts them provably behind the incumbent (see
  /// PlacementEvaluation::guided_skipped).
  int measure_top_k = -1;
  /// The requesting tenant's id (engine/service.h), passed through to the
  /// shared cache so cross-tenant reuse is attributable; kNoTenant for
  /// single-tenant callers.
  std::int64_t tenant = SynthesisCache::kNoTenant;
  /// This request's cooperative-cancellation token (common/cancel.h),
  /// checked between stages and between per-placement work items, and
  /// threaded into the synthesizer's frontier loop. An aborted run throws
  /// CancelledError / DeadlineExceededError out of Run(); work items of
  /// *other* requests sharing the pool are untouched. Null (the default)
  /// never cancels.
  CancelToken cancel;
};

class Pipeline {
 public:
  /// The service must outlive the pipeline (it supplies the cache and the
  /// pool; typically the service itself constructs one per request, after
  /// resolving `engine` from the request's cluster through the tenant
  /// registry).
  Pipeline(PlannerService& service, const Engine& engine,
           PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  /// Runs the full pipeline over every placement of `axes`. The result's
  /// `pipeline` field carries this run's stage statistics and this
  /// *request's* share of the cache activity (see PipelineStats).
  ExperimentResult Run(std::span<const std::int64_t> axes,
                       std::span<const int> reduction_axes);

 private:
  PlannerService& service_;
  const Engine& engine_;
  PipelineOptions options_;
};

/// The cacheless per-placement reference behind Engine::EvaluatePlacement
/// [Guided]: synthesizes the placement's own hierarchy on the calling thread
/// — no cache, pool or service — then lowers, predicts and measures it
/// exactly as a Pipeline::Run placement (`measure_top_k` as in
/// PipelineOptions).
PlacementEvaluation EvaluateUncachedPlacement(
    const Engine& engine, const core::ParallelismMatrix& matrix,
    std::span<const int> reduction_axes, int measure_top_k);

}  // namespace p2::engine

#endif  // P2_ENGINE_PIPELINE_H_
