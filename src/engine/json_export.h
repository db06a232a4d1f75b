// JSON serialization of P2 results for downstream tooling (dashboards,
// notebooks, regression tracking). Hand-rolled emitter — results only
// contain numbers, short identifiers and program strings, so no external
// dependency is warranted.
#ifndef P2_ENGINE_JSON_EXPORT_H_
#define P2_ENGINE_JSON_EXPORT_H_

#include <string>

#include "engine/engine.h"
#include "engine/service.h"

namespace p2::engine {

/// {"matrix": "[[1 2] [4 8]]", "synthesis_seconds": ...,
///  "programs": [{"text": ..., "shape": ..., "steps": N,
///                "predicted_seconds": ..., "measured_seconds": ...,
///                "measured": true, "default_allreduce": false}, ...]}
std::string ToJson(const PlacementEvaluation& eval);

/// {"axes": [4, 16], "reduction_axes": [0], "algo": "Ring",
///  "payload_bytes": ...,
///  "pipeline": {"placements": N, "unique_hierarchies": U, "cache": C,
///               "synth_states_visited": V, "synth_states_deduped": DD,
///               "synth_branches_pruned": BP, "guided_skipped": G,
///               "synthesis_seconds": SS, "evaluation_seconds": ES,
///               "total_seconds": TS, "threads": T},
///  "placements": [...]}
/// C, the cache object, has one shape at every scope (here, and the service
/// and tenant objects below): {"hits": H, "misses": M, ...,
/// "disk_seconds_saved": DS} — every SynthesisCacheStats field under its
/// ForEachField name and in that order, the counters as integers, the
/// seconds as %.9g (null when non-finite). The pipeline's C is the
/// request's own share of the shared cache's activity; service-wide figures
/// (entries loaded from disk, totals across requests and tenants) are
/// exported once per service by the overload below.
std::string ToJson(const ExperimentResult& result);

/// {"requests": N, "rejected": RJ, "cancelled": CN, "deadline_exceeded": DE,
///  "peak_in_flight": PF, "save_errors": SE, "last_save_error": "...",
///  "cache_entries_loaded": L, "cache_entries_expired": EX,
///  "engines_constructed": E,
///  "cache": C (the service-wide totals),
///  "threads": T, "latency_count": LC, "latency_p50_ms": ...,
///  "latency_p95_ms": ..., "latency_p99_ms": ...,
///  "tenants": [{"id": 0, "fingerprint": ..., "cluster": ...,
///               "requests": R, "placements": P,
///               "cache": C (this tenant's completed requests),
///               "rejected": RJ, "cancelled": CN, "deadline_exceeded": DE,
///               "peak_in_flight": PF}, ...]}
/// The service-wide cache object precedes every tenant's, so a reader that
/// takes the first "cache" object gets the totals. Emit this exactly once
/// per PlannerService: cache_entries_loaded is the service's one-time
/// preload, so repeating it per experiment (the old PipelineStats field)
/// double-counted it in multi-config runs. The per-tenant rows are what
/// dashboards key cross-cluster sharing off.
std::string ToJson(const PlannerServiceStats& stats);

/// Escapes a string for embedding in JSON output.
std::string JsonEscape(const std::string& s);

}  // namespace p2::engine

#endif  // P2_ENGINE_JSON_EXPORT_H_
