// The long-lived planning service (the ROADMAP's "batch/async planning
// service", multi-tenant since ISSUE 5): one process-wide owner of
// everything P2's interactive workflow shares across queries — for any
// number of clusters.
//
//   PlannerService
//     ├─ engine registry     tenants keyed by the canonical
//     │                      topology::Cluster::Fingerprint() (plus an
//     │                      engine-options digest): one lazily-constructed
//     │                      Engine per distinct machine, built exactly once
//     │                      even when requests race on a new fingerprint
//     │                      (same in-flight-dedup pattern as the cache)
//     ├─ SynthesisCache      ONE per process, shared by every tenant: the
//     │                      hierarchy signature is cluster-independent, so
//     │                      tenants with different machines but overlapping
//     │                      reduction factorizations dedup against each
//     │                      other (cross-tenant hits), with in-flight
//     │                      synthesis dedup and an optional LRU entry cap
//     ├─ LoweringMemo        ONE per process too: each distinct
//     │                      (levels, program) synthesis-level replay, which
//     │                      every placement, request and tenant sharing the
//     │                      levels reuses
//     ├─ ThreadPool          one shared worker pool; concurrent requests'
//     │                      work items interleave fairly (round-robin per
//     │                      TaskGroup), no per-query thread spawning
//     └─ CacheStore          optional warm-start/persistence of the cache
//                            (a file written by a single-cluster run warms
//                            every tenant of a multi-tenant service)
//
//   Pipeline (engine/pipeline.h) is the stateless per-query executor that
//   borrows cache + pool from the service and evaluates on the engine the
//   request's cluster resolves to. Every request gets its placements'
//   programs through the shared SynthesisCache; no request bypasses it, so
//   a cache_file always sees every request's entries.
//
// Two entry points: Submit(PlanRequest) returns a std::future immediately
// and runs the request as pool tasks (requests overlap: their placements
// are decomposed into work items scheduled round-robin across requests),
// while Plan(...) blocks. A request names its cluster via
// PlanRequest::cluster; without one it goes to the service's *default
// tenant* (the engine the compatibility constructor registered), so
// single-cluster call sites keep working unchanged. Either way a request's
// placements are merged in placement order, so its ExperimentResult is
// byte-identical to the same request on a dedicated single-cluster service
// — at any thread count, under any submission order, and regardless of
// which other tenants are in flight (modulo wall-clock fields and
// cache-attribution counters; the program lists, predictions and
// measurements never change).
#ifndef P2_ENGINE_SERVICE_H_
#define P2_ENGINE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/histogram.h"
#include "common/thread_pool.h"
#include "core/lowering.h"
#include "engine/cache_store.h"
#include "engine/engine.h"
#include "engine/synthesis_cache.h"
#include "topology/cluster.h"

namespace p2::engine {

// The service's abort taxonomy (the README's "Robustness contract"). A
// request's future completes with exactly one of these when it does not
// complete with a result:
//
//   PlanRejected          refused at Submit — admission cap hit or the
//                         service is draining; no work was started
//   PlanCancelled         PlanHandle::Cancel() (or a drain grace deadline)
//                         aborted it mid-flight
//   PlanDeadlineExceeded  its PlanRequest::deadline passed mid-flight
//
// The latter two are the common cancellation errors (common/cancel.h) under
// service-level names; catch RequestAborted to handle both. Cancellation is
// cooperative and never perturbs other requests: a surviving request's
// result is byte-identical whether or not co-tenants were cancelled.
using PlanCancelled = CancelledError;
using PlanDeadlineExceeded = DeadlineExceededError;

/// The submission was refused before any work started (admission control or
/// drain). Deliberately *not* a RequestAborted: nothing was in flight.
class PlanRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How a plan request ended, as a closed enum — the abort taxonomy above
/// flattened for callers that speak status codes instead of exception
/// types (the wire front end in src/server/ maps these 1:1 onto its
/// gRPC-style statuses).
enum class PlanOutcome {
  kOk = 0,
  kRejected,          ///< PlanRejected: admission cap or drain
  kCancelled,         ///< PlanCancelled: explicit cancel / drain grace
  kDeadlineExceeded,  ///< PlanDeadlineExceeded
  kInvalidArgument,   ///< std::invalid_argument: a malformed request
  kInternal,          ///< anything else the evaluation threw
};

const char* ToString(PlanOutcome outcome);

/// Classifies the exception a PlanHandle future carried (nullptr -> kOk).
/// The inverse of the taxonomy: every exception type the service documents
/// maps to its own outcome, everything unexpected to kInternal.
PlanOutcome ClassifyPlanError(std::exception_ptr error);

struct PlannerServiceOptions {
  /// Worker threads of the shared pool; <= 1 runs every request inline on
  /// the submitting thread (Submit still returns a — ready — future).
  int threads = 1;
  /// Path of a persistent synthesis-cache file (engine/cache_store.h). The
  /// service loads it at construction — corrupted or version-mismatched
  /// files fall back to a cold cache, never a crash — and SaveCache()
  /// atomically rewrites it with the merged in-memory entries. Empty
  /// disables persistence.
  std::string cache_file;
  /// With cache_file set: load only. SaveCache() becomes a no-op, so the
  /// file is never created or modified.
  bool cache_readonly = false;
  /// LRU cap on the shared synthesis cache: at most this many entries are
  /// kept, least-recently-used evicted first (stats().cache.evictions).
  /// <= 0 (the default) is unbounded. Eviction never changes results —
  /// an evicted signature is simply re-synthesized on its next miss.
  std::int64_t cache_max_entries = 0;
  /// With cache_file set: prune entries older than this many seconds at
  /// load time (engine/cache_store.h's TTL policy;
  /// stats().cache_entries_expired counts them). <= 0 (the default) keeps
  /// every entry forever.
  std::int64_t cache_ttl_seconds = 0;
  /// The remote cache plane (engine/remote_cache.h): attached to the shared
  /// SynthesisCache at construction, so every local miss consults a cache
  /// server before synthesizing and completions are published back —
  /// sharded workers (tools/p2_shard) dedup synthesis across processes.
  /// nullptr (the default) is local-only.
  std::shared_ptr<RemoteCacheBackend> remote_cache;
  /// EngineOptions for engines the service constructs itself for
  /// request-supplied clusters. The compatibility constructor overwrites
  /// this with the borrowed engine's options, so requests naming a cluster
  /// evaluate under the same knobs as the default tenant.
  EngineOptions engine;
  /// Admission cap on concurrently in-flight requests service-wide; a
  /// Submit beyond it fails fast with PlanRejected through the returned
  /// handle (no silent queuing — the cap bounds the pool's pending queue).
  /// <= 0 (the default) is unbounded.
  std::int64_t max_in_flight = 0;
  /// The same cap per tenant, so one misbehaving tenant exhausts its own
  /// budget instead of the whole service's. <= 0 is unbounded.
  std::int64_t max_in_flight_per_tenant = 0;
  /// Grace the *destructor's* implicit drain gives in-flight requests
  /// before cancelling them (see BeginDrain); nullopt (the default) waits
  /// for them indefinitely, like the pre-drain destructor always did.
  std::optional<std::chrono::milliseconds> drain_grace;
};

/// One planning query: evaluate every placement of `axes` on the engine of
/// `cluster` (or of the service's default tenant), reducing over
/// `reduction_axes`.
struct PlanRequest {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
  /// < 0: measure every program iff the engine's options say so. >= 0:
  /// simulator-guided evaluation — predict everything, measure only the
  /// default AllReduce plus the top-k programs by prediction.
  int measure_top_k = -1;
  /// Tenant selector: the machine to plan for. The service resolves it to
  /// an engine through the registry (constructing one on a new
  /// fingerprint), so one service serves any number of clusters. Without
  /// it the request goes to the default tenant; a request with neither a
  /// cluster nor a default tenant fails (std::invalid_argument through the
  /// future).
  std::optional<topology::Cluster> cluster;
  /// Deadline relative to Submit(): once it passes, the request aborts at
  /// its next cancellation checkpoint and its future carries
  /// PlanDeadlineExceeded. nullopt (the default) never expires.
  std::optional<std::chrono::milliseconds> deadline;
  /// > 0: cap the synthesized program list per hierarchy at this many
  /// programs instead of the service's engine default — what a wire client
  /// tunes per request. The override is part of the tenant identity (the
  /// options digest includes the cap), so it requires PlanRequest::cluster;
  /// an override without a cluster fails with std::invalid_argument.
  /// <= 0 (the default) keeps the engine's configured cap.
  std::int64_t max_programs = 0;
};

/// The future-like handle Submit returns: the result channel plus the
/// request's cancellation lever. Cancel() is cooperative — the request
/// observes it at its next checkpoint, releases its pool slots, and
/// completes the future with PlanCancelled; a request that already finished
/// is unaffected. The handle may outlive the service (the destructor drains
/// in-flight requests first), and get()/wait() mirror std::future.
class PlanHandle {
 public:
  PlanHandle() = default;

  /// Blocks for the result; rethrows PlanRejected / PlanCancelled /
  /// PlanDeadlineExceeded or the request's own failure. Consumes the state,
  /// like std::future::get.
  ExperimentResult get() { return future_.get(); }
  void wait() const { future_.wait(); }
  template <class Rep, class Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    return future_.wait_for(timeout);
  }
  bool valid() const { return future_.valid(); }

  /// Requests cooperative cancellation (idempotent, any thread). A request
  /// whose deadline already fired keeps PlanDeadlineExceeded — the first
  /// abort reason wins.
  void Cancel() { source_.Cancel(); }

 private:
  friend class PlannerService;
  PlanHandle(std::future<ExperimentResult> future, CancelSource source)
      : future_(std::move(future)), source_(std::move(source)) {}

  std::future<ExperimentResult> future_;
  CancelSource source_;
};

/// Per-tenant figures: one row per registered engine, in registration
/// order. The cache split across tenants is attribution-approximate the
/// same way per-request PipelineStats are — for a signature two tenants
/// share, whichever request arrives first takes the miss. A tenant row
/// accumulates a request's PipelineStats::cache only when the request
/// returns a result, so the lookups of a cancelled, timed-out or failed
/// request count in the service-wide totals alone. The sums across tenants
/// therefore match the service-wide cache totals once every submitted
/// request has completed successfully — bar the evictions of a cache-file
/// preload or a cache-plane publish, which no request caused. While
/// requests are in flight the service totals run ahead of the tenant rows.
struct TenantStats {
  /// Registration order, monotonically increasing from 0 and never reused
  /// or shared (the id doubles as the cache's cross-tenant attribution
  /// tag). A tenant record survives a failed engine construction — its
  /// admission counters persist and the next request on the fingerprint
  /// retries the construction under the same id.
  std::int64_t id = 0;
  std::string fingerprint;        ///< topology::Cluster::Fingerprint()
  std::string cluster;            ///< human-readable Cluster::ToString()
  std::int64_t requests = 0;      ///< completed requests (not submitted)
  std::int64_t placements = 0;
  /// The sum of the completed requests' PipelineStats::cache.
  SynthesisCacheStats cache;
  // Robustness counters (the service's abort taxonomy, see the top of this
  // header): how this tenant's submissions ended other than successfully.
  std::int64_t rejected = 0;           ///< failed admission (PlanRejected)
  std::int64_t cancelled = 0;          ///< aborted via Cancel()/drain
  std::int64_t deadline_exceeded = 0;  ///< aborted by their deadline
  /// High-water mark of this tenant's concurrently in-flight requests.
  std::int64_t peak_in_flight = 0;
};

/// Service-wide figures, aggregated exactly once per service — unlike the
/// per-request PipelineStats, which under concurrency can only attribute
/// cache activity approximately (whichever request got there first takes
/// the miss). cache_entries_loaded in particular is a property of the
/// service's one-time preload: summing it per experiment (as the stats of
/// sequential multi-config runs once invited) double-counts it.
struct PlannerServiceStats {
  std::int64_t requests = 0;  ///< queries submitted so far
  std::int64_t cache_entries_loaded = 0;
  /// Entries the cache-file load pruned as older than
  /// PlannerServiceOptions::cache_ttl_seconds.
  std::int64_t cache_entries_expired = 0;
  /// Engines actually constructed by the registry (excludes the borrowed
  /// default engine of the compatibility constructor); requests racing on
  /// one new fingerprint construct exactly one.
  std::int64_t engines_constructed = 0;
  SynthesisCacheStats cache;  ///< shared-cache totals across all requests
  int threads = 1;
  // Service-wide robustness totals: the sums of the tenant rows' counters
  // (Submit attributes every rejection, and FinishRequest every cancel and
  // expired deadline, to the request's tenant).
  std::int64_t rejected = 0;
  std::int64_t cancelled = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t peak_in_flight = 0;  ///< high-water mark of in-flight requests
  /// SaveCache failures so far — including the drain-time save, whose error
  /// return nobody is left to read (BeginDrain is also the destructor's
  /// path); on a server this counter is the only way the operator learns
  /// the cache stopped persisting.
  std::int64_t save_errors = 0;
  std::string last_save_error;  ///< detail of the most recent failure
  /// Submit→completion latency of finished requests — successful or aborted
  /// mid-flight; rejected submissions never started and are excluded — from
  /// a fixed log2-bucket histogram (common/histogram.h): the percentiles
  /// report their bucket's upper bound, so rendering is deterministic for a
  /// given set of counts. All zero until the first request finishes.
  std::int64_t latency_count = 0;
  double latency_p50_seconds = 0.0;
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  std::vector<TenantStats> tenants;  ///< registration order
};

class PlannerService {
 public:
  /// A multi-tenant service with no default tenant: every request must name
  /// its cluster. A non-empty cache_file is loaded here; see
  /// cache_load_status() for how that went.
  explicit PlannerService(PlannerServiceOptions options = {});
  /// Compatibility constructor: registers `engine` (borrowed — it must
  /// outlive the service) as the default tenant, so requests without a
  /// cluster keep working, and adopts its EngineOptions for
  /// request-supplied clusters.
  explicit PlannerService(const Engine& engine,
                          PlannerServiceOptions options = {});
  /// Drains through BeginDrain(options().drain_grace) — waits for (or,
  /// after the grace, cancels) every outstanding Submit()ted request and
  /// persists the cache — then joins the pool.
  ~PlannerService();

  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  const PlannerServiceOptions& options() const { return options_; }
  /// The process-wide signature cache shared by every request.
  SynthesisCache& cache() { return cache_; }
  const SynthesisCache& cache() const { return cache_; }
  /// The shared worker pool (per-query executors borrow it via TaskGroups).
  ThreadPool& pool() { return pool_; }
  /// The process-wide memo of synthesis-level program replays
  /// (core::LoweringMemo), shared by every request and tenant: a replay
  /// depends only on the hierarchy's levels and the program, never on the
  /// cluster.
  core::LoweringMemo& lowering_memo() { return lowering_memo_; }

  /// Resolves `cluster` to its tenant engine, registering it (and
  /// constructing the Engine, exactly once even under races) if the
  /// fingerprint is new. The reference stays valid for the service's
  /// lifetime — tenants are never evicted.
  const Engine& EngineFor(const topology::Cluster& cluster);
  /// The default tenant's engine, or nullptr when the service was built
  /// without one.
  const Engine* default_engine() const;

  /// Enqueues a request and returns immediately. The request runs as tasks
  /// on the shared pool, interleaved fairly with other in-flight requests;
  /// the handle's future carries its ExperimentResult (or the first
  /// exception its evaluation threw, including the tenant-resolution
  /// failure of a request with neither a cluster nor a default tenant).
  /// Admission control applies here: beyond max_in_flight (service-wide or
  /// per-tenant) or once draining, the handle is already failed with
  /// PlanRejected and no work starts. A PlanRequest::deadline starts
  /// counting now. With threads <= 1 the request runs synchronously here
  /// and the handle is already ready.
  PlanHandle Submit(PlanRequest request);

  /// Graceful shutdown, reusable and idempotent: new submissions are
  /// rejected (PlanRejected) from this call on; in-flight requests run to
  /// completion — or, when `grace` is set and expires first, are
  /// cooperatively cancelled (their futures carry PlanCancelled) and then
  /// still waited for; finally the cache is persisted (SaveCache — a no-op
  /// without a cache_file or under cache_readonly). The destructor drains
  /// through this with options().drain_grace.
  void BeginDrain(
      std::optional<std::chrono::milliseconds> grace = std::nullopt);
  /// True once BeginDrain ran: every later Submit is rejected.
  bool draining() const;

  /// Blocking single query (Submit + get).
  ExperimentResult Plan(PlanRequest request);
  /// Compatibility overload: plans on the default tenant.
  ExperimentResult Plan(std::span<const std::int64_t> axes,
                        std::span<const int> reduction_axes);

  /// How the cache-file load at construction went: kNotConfigured without a
  /// cache_file, kNoFile on a cold start, kOk, or a corruption status (the
  /// service still runs — cold — but callers should surface a warning).
  CacheLoadStatus cache_load_status() const;
  /// Human-readable detail behind cache_load_status() (for warnings).
  const std::string& cache_load_message() const;
  /// Entries preloaded from the cache file at construction.
  std::int64_t cache_entries_loaded() const;

  /// Atomically rewrites options().cache_file with the merged cache (entries
  /// loaded from disk plus everything synthesized since). A no-op returning
  /// true when persistence is unconfigured or cache_readonly is set; returns
  /// false and fills `error` only on an IO failure.
  bool SaveCache(std::string* error = nullptr);

  /// Cache-plane pass-throughs for the wire cache server
  /// (src/server/planner_server.h): SynthesisCache::LookupByKey /
  /// PublishByKey on the shared cache, so wire workers, local plans and the
  /// persistent cache file all share one memoization plane.
  bool CacheLookupEntry(const std::string& base_key, std::int64_t cap,
                        std::string* key, core::SynthesisResult* result,
                        bool* in_flight);
  void CachePublishEntry(const std::string& key, core::SynthesisResult result);

  /// Once-per-service aggregates (see PlannerServiceStats).
  PlannerServiceStats stats() const;

 private:
  /// One registered engine. `engine` is null until a request constructs it
  /// (admission registers engine-less records so rejections are
  /// attributable); `built`, when valid, is the future racers wait on while
  /// one of them runs the construction.
  struct Tenant {
    std::int64_t id = 0;
    std::string fingerprint;
    topology::Cluster cluster;
    std::shared_ptr<const Engine> engine;
    std::shared_future<void> built;
    TenantStats stats;  ///< guarded by tenants_mu_
    /// This tenant's currently in-flight requests (guarded by tenants_mu_;
    /// transient, unlike the high-water mark in stats).
    std::int64_t in_flight = 0;
  };

  /// Creates and publishes a fresh Tenant record under `key` (tenants_mu_
  /// held); the caller fills in `engine` or `built` before releasing the
  /// lock.
  Tenant& RegisterTenantLocked(const std::string& key,
                               const topology::Cluster& cluster);
  /// Registry lookup/registration with construct-once semantics; throws
  /// whatever Engine's constructor throws (after withdrawing the tenant).
  /// `engine_options` is part of the tenant identity — a request-level
  /// max_programs override resolves to its own tenant.
  Tenant& ResolveTenant(const topology::Cluster& cluster,
                        const EngineOptions& engine_options);
  /// The service's EngineOptions with the request's per-request overrides
  /// (max_programs) applied.
  EngineOptions EffectiveEngineOptions(const PlanRequest& request) const;
  /// Registers an already-built engine (borrowed or owned).
  Tenant& AdoptTenant(const topology::Cluster& cluster,
                      const EngineOptions& engine_options,
                      std::shared_ptr<const Engine> engine);
  /// The tenant a request addresses (default tenant when it has no
  /// cluster); throws std::invalid_argument when there is neither.
  Tenant& TenantForRequest(const PlanRequest& request);
  /// The tenant *record* a request will be attributed to, registering an
  /// engine-less one on a new fingerprint (tenants_mu_ held). The Submit
  /// path needs the record for admission before any engine exists; the
  /// request task later resolves/constructs the engine into it. Throws
  /// std::invalid_argument for a request with neither cluster nor default.
  Tenant& AdmitTenantLocked(const PlanRequest& request);
  /// Books completion of in-flight request `id` (admission bookkeeping,
  /// abort classification from `error`, submit→complete latency measured
  /// from `submitted`, drain wake-up).
  void FinishRequest(std::int64_t id, Tenant& tenant, std::exception_ptr error,
                     std::chrono::steady_clock::time_point submitted);
  /// Folds a request's pipeline stats into its tenant's row; only requests
  /// that returned a result reach it.
  void AccumulateTenantStats(Tenant& tenant, const ExperimentResult& result);

  PlannerServiceOptions options_;
  SynthesisCache cache_;
  core::LoweringMemo lowering_memo_;
  std::optional<CacheStore> store_;
  ThreadPool pool_;
  std::atomic<std::int64_t> requests_{0};

  mutable std::mutex tenants_mu_;
  /// Registration-ordered tenant records; unique_ptr so Tenant& stays
  /// stable across registry growth.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// Fingerprint + engine-options digest -> tenant. The options digest
  /// keeps two tenants with one machine but different evaluation knobs
  /// (algo, payload, synthesis caps) from silently sharing an engine.
  std::unordered_map<std::string, Tenant*> tenant_by_key_;
  Tenant* default_tenant_ = nullptr;
  std::int64_t engines_constructed_ = 0;
  /// Monotonic id source (never tenants_.size(), so ids are stable however
  /// the registry is grown — the id is the cache's cross-tenant
  /// attribution tag and must never be shared).
  std::int64_t next_tenant_id_ = 0;

  // Admission / drain state, all guarded by tenants_mu_.
  bool draining_ = false;
  std::int64_t in_flight_ = 0;
  std::int64_t peak_in_flight_ = 0;
  std::int64_t save_errors_ = 0;
  std::string last_save_error_;
  std::int64_t next_request_id_ = 0;
  /// Submit→complete latency of finished requests (see
  /// PlannerServiceStats); guarded by tenants_mu_.
  LatencyHistogram latency_;
  /// Cancel levers of in-flight requests, by request id — what a drain
  /// grace deadline fires.
  std::unordered_map<std::int64_t, CancelSource> active_;
  /// Signalled by FinishRequest; BeginDrain waits on it for in_flight_ == 0.
  std::condition_variable drained_cv_;

  /// The orchestration tasks of Submit()ted requests. Declared last: its
  /// destructor drains them while the registry, cache_ and pool_ are still
  /// alive.
  ThreadPool::TaskGroup request_tasks_{pool_};
};

}  // namespace p2::engine

#endif  // P2_ENGINE_SERVICE_H_
