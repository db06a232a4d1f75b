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
///  "pipeline": {"placements": N, "unique_hierarchies": U, "cache_hits": H,
///               "cache_misses": M, "cache_deferred_lookups": DL,
///               "cache_cross_tenant_hits": X, "cache_disk_hits": D,
///               "cache_remote_hits": RH,
///               "disk_seconds_saved": DS, "guided_skipped": G,
///               "synthesis_seconds_saved": S, "synthesis_seconds": SS,
///               "evaluation_seconds": ES, "total_seconds": TS,
///               "threads": T},
///  "placements": [...]}
/// The pipeline counters are the request's own share of the shared cache's
/// activity; service-wide figures (entries loaded from disk, totals across
/// requests and tenants) are exported once per service by the overload
/// below.
std::string ToJson(const ExperimentResult& result);

/// {"requests": N, "cache_entries_loaded": L, "cache_entries_expired": EX,
///  "engines_constructed": E,
///  "cache": {"hits": H, "misses": M, "disk_hits": D, "remote_hits": RH,
///            "remote_errors": RE, "subsumed_hits": SH,
///            "deferred_lookups": DL, "continuations_fired": CF,
///            "cross_tenant_hits": X, "evictions": EV,
///            "seconds_saved": S, "disk_seconds_saved": DS},
///  "threads": T,
///  "tenants": [{"id": 0, "fingerprint": ..., "cluster": ...,
///               "requests": R, "placements": P, "cache_hits": H,
///               "cache_misses": M, "cache_cross_tenant_hits": X,
///               "cache_disk_hits": D, "synthesis_seconds_saved": S}, ...]}
/// Emit this exactly once per PlannerService: cache_entries_loaded is the
/// service's one-time preload, so repeating it per experiment (the old
/// PipelineStats field) double-counted it in multi-config runs. The
/// per-tenant rows are what dashboards key cross-cluster sharing off.
std::string ToJson(const PlannerServiceStats& stats);

/// Escapes a string for embedding in JSON output.
std::string JsonEscape(const std::string& s);

}  // namespace p2::engine

#endif  // P2_ENGINE_JSON_EXPORT_H_
