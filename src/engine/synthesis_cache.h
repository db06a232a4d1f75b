// Memoization of SynthesizePrograms keyed by the canonical signature of the
// synthesis hierarchy (core::SynthesisHierarchy::Signature) plus the
// synthesis options. Under the paper's preferred kReductionAxes hierarchy
// many placements of one experiment induce isomorphic hierarchies — same
// level cardinalities, same goal groups — whose program sets are identical
// up to lowering, so synthesizing once per signature removes the dominant
// cost of a multi-placement experiment. The signature is also independent of
// the *cluster* a placement lives on, so tenants of a multi-tenant
// PlannerService (engine/service.h) with different machines but overlapping
// reduction factorizations dedup against each other too; lookups carry an
// opaque tenant tag so that cross-tenant reuse is observable in the stats.
//
// The cache is the process-wide shared core of the planning service
// (engine/service.h), so it is built for concurrent queries:
//
//  - In-flight deduplication through one lookup path, TryLookup(): when
//    two callers miss the same signature simultaneously, exactly one gets
//    kOwned and runs the synthesis (SynthesizeOwned: remote-plane fetch,
//    then local synthesis, then CompleteOwned — or AbandonOwned on a
//    throw); the others get kInFlight, which registers a completion
//    continuation and takes an eviction reservation instead of blocking.
//    Owner completion AND owner death fire the continuations (outside the
//    cache lock), and each caller retries with the same DeferredLookup
//    handle — the retry releases the reservation under the same lock
//    acquisition as its lookup, so the published entry cannot be evicted
//    between publication and the read. One miss total; the rest are hits.
//    An owner whose synthesis throws — including a cooperative
//    cancellation of *its* request — withdraws the announcement, so each
//    retry finds no flight and claims the synthesis itself: a dead owner
//    never strands its followers. A caller that loses interest settles
//    with CancelDeferred(), which releases the reservation and withdraws
//    the continuation (one already extracted by a completing owner may
//    still fire late — callers guard with a fire-once flag). The
//    pipeline's scheduler (engine/pipeline.cc) re-enqueues a deferred task
//    from the continuation, so no pool thread ever blocks on another
//    request's synthesis. GetOrSynthesize is a blocking adapter for tests
//    and one-shot callers: it waits for the continuation on a per-call
//    signal, and a cancel of its own request (SynthesisOptions::cancel)
//    interrupts that wait instead of riding out a foreign owner.
//  - max_programs subsumption: an entry synthesized under a larger
//    max_programs cap serves smaller-cap queries by truncating its program
//    list. That is exact, not approximate: SynthesizePrograms keeps the
//    *smallest* max_programs programs — a prefix of the size-ordered list —
//    so the prefix of a big-cap run IS the small-cap result. An entry that
//    never hit its cap (programs.size() < cap) is complete and serves every
//    cap. A truncated entry cannot serve a larger cap; such a query
//    re-synthesizes and the bigger result replaces the entry.
//  - Bounded size (optional): constructed with max_entries > 0 the cache
//    holds at most that many entries, evicting the least-recently-used on
//    overflow (`evictions` stat). Eviction only ever costs re-synthesis —
//    results are unchanged — and it never drops an entry a deferred lookup
//    is about to be served from: the kInFlight lookup reserves its base key
//    and only its retry releases the reservation, so a reserved base is
//    immune to eviction for the whole window between publication and the
//    last deferred caller's read.
//
// The cache can also be warmed from and persisted to disk across processes
// via engine/cache_store.h (Preload/Snapshot below).
#ifndef P2_ENGINE_SYNTHESIS_CACHE_H_
#define P2_ENGINE_SYNTHESIS_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "core/synthesizer.h"
#include "engine/remote_cache.h"

namespace p2::engine {

/// The cache's counters, one type at every scope: the cache-wide totals
/// (SynthesisCache::stats()), the record a caller passes to a lookup to
/// collect the events it caused (`counted` below) — concurrent queries
/// cannot attribute global deltas to themselves — and the sums of those
/// records per request (PipelineStats::cache) and tenant (TenantStats).
struct SynthesisCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  /// Hits served by an entry that was preloaded from a persistent store
  /// (engine/cache_store.h) rather than synthesized by this process.
  std::int64_t disk_hits = 0;
  /// Local misses served by fetching a foreign worker's entry from the
  /// remote cache plane (engine/remote_cache.h; a subset of `hits` — later
  /// local hits on the adopted entry are plain hits). Zero without an
  /// attached backend.
  std::int64_t remote_hits = 0;
  /// Remote-plane operations that failed (unreachable server, malformed
  /// reply, exhausted retry budget behind a foreign grant). Each one
  /// degrades that lookup or publish to local-only — never an error for the
  /// caller.
  std::int64_t remote_errors = 0;
  /// Hits served by truncating an entry synthesized under a larger
  /// max_programs cap (a subset of `hits`).
  std::int64_t subsumed_hits = 0;
  /// Lookups that found a foreign in-flight synthesis and registered a
  /// completion continuation (TryLookupState::kInFlight returns, blocking
  /// GetOrSynthesize calls included).
  std::int64_t deferred_lookups = 0;
  /// Continuations fired at owner completion or withdrawal (counted on the
  /// owner that settled the flight).
  std::int64_t continuations_fired = 0;
  /// Hits served by an entry a *different tenant's* query synthesized (a
  /// subset of `hits`; see the tenant tag on GetOrSynthesize; never for
  /// preloaded or remote entries, which belong to no tenant) — the
  /// cross-cluster sharing a multi-tenant service exists for.
  std::int64_t cross_tenant_hits = 0;
  /// Entries dropped by the LRU cap (max_entries in the constructor),
  /// counted on the publish that overflowed it.
  std::int64_t evictions = 0;
  /// Sum of the original synthesis wall-clock of every entry served from the
  /// cache: the time a cacheless run would have spent re-synthesizing.
  double seconds_saved = 0.0;
  /// The portion of seconds_saved contributed by preloaded entries — the
  /// cross-run savings a persistent cache adds on top of in-process reuse.
  double disk_seconds_saved = 0.0;

  /// Calls `visit(name, member)` for every field in declaration order
  /// (`member` points to an std::int64_t or a double): the one list that
  /// operator+=, the JSON export and the wire codec iterate. A new counter
  /// needs its member, its line here and the line that counts it.
  template <class Visit>
  static constexpr void ForEachField(Visit&& visit) {
    visit("hits", &SynthesisCacheStats::hits);
    visit("misses", &SynthesisCacheStats::misses);
    visit("disk_hits", &SynthesisCacheStats::disk_hits);
    visit("remote_hits", &SynthesisCacheStats::remote_hits);
    visit("remote_errors", &SynthesisCacheStats::remote_errors);
    visit("subsumed_hits", &SynthesisCacheStats::subsumed_hits);
    visit("deferred_lookups", &SynthesisCacheStats::deferred_lookups);
    visit("continuations_fired", &SynthesisCacheStats::continuations_fired);
    visit("cross_tenant_hits", &SynthesisCacheStats::cross_tenant_hits);
    visit("evictions", &SynthesisCacheStats::evictions);
    visit("seconds_saved", &SynthesisCacheStats::seconds_saved);
    visit("disk_seconds_saved", &SynthesisCacheStats::disk_seconds_saved);
  }

  SynthesisCacheStats& operator+=(const SynthesisCacheStats& other) {
    ForEachField([this, &other](const char*, auto member) {
      this->*member += other.*member;
    });
    return *this;
  }
};

static_assert([] {
  std::size_t visited = 0;
  SynthesisCacheStats::ForEachField([&](const char*, auto member) {
    visited += sizeof(SynthesisCacheStats{}.*member);
  });
  return visited == sizeof(SynthesisCacheStats);
}(), "every SynthesisCacheStats field needs its ForEachField line");

class SynthesisCache {
 public:
  /// Lookups made outside any tenant (direct cache users, tests). Entries
  /// such lookups synthesize belong to no tenant and never count as
  /// cross-tenant when served.
  static constexpr std::int64_t kNoTenant = -1;

  /// How a non-blocking TryLookup resolved.
  enum class TryLookupState {
    kReady,     ///< served from the table; `result` is set
    kOwned,     ///< the caller claimed the synthesis: it must synthesize and
                ///< settle with CompleteOwned (or AbandonOwned on failure)
    kInFlight,  ///< a foreign call owns an in-flight synthesis; the
                ///< continuation was registered and `deferred` now holds the
                ///< reservation
  };

  struct TryLookupResult {
    TryLookupState state = TryLookupState::kOwned;
    /// The served result (truncated to the query's cap where subsumption
    /// applies); set only for kReady.
    std::shared_ptr<const core::SynthesisResult> result;
  };

  /// Handle of one deferred (kInFlight) TryLookup: while active() it holds
  /// an eviction reservation on the base key and a continuation
  /// registration on the flight. Passing the handle back into a retry
  /// TryLookup settles it under the same lock acquisition as the new
  /// lookup; CancelDeferred settles it without retrying. Not thread-safe —
  /// one logical waiter owns it at a time — and it must not be destroyed
  /// while active (the cache cannot release what it no longer knows about).
  class DeferredLookup {
   public:
    DeferredLookup() = default;
    DeferredLookup(const DeferredLookup&) = delete;
    DeferredLookup& operator=(const DeferredLookup&) = delete;

    /// True between a kInFlight TryLookup and the retry / CancelDeferred
    /// that settles it.
    bool active() const { return active_; }

   private:
    friend class SynthesisCache;
    bool active_ = false;
    std::string base_;      ///< reservation key while active
    std::uint64_t id_ = 0;  ///< continuation registration tag while active
  };

  /// `max_entries > 0` bounds the cache to that many entries with LRU
  /// eviction; <= 0 (the default) is unbounded.
  explicit SynthesisCache(std::int64_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// Attaches (or, with nullptr, detaches) the remote cache plane
  /// (engine/remote_cache.h). With a backend attached, every local miss
  /// consults the plane before synthesizing — adopting a foreign worker's
  /// entry as a hit (`remote_hits`), waiting out a foreign in-flight
  /// synthesis (bounded retries behind its ownership grant), or proceeding
  /// to a local synthesis whose completion is published back to the plane.
  /// Backend failures only ever count `remote_errors` and degrade to
  /// local-only behaviour. Set before concurrent use.
  void set_remote(std::shared_ptr<RemoteCacheBackend> remote);

  /// Returns the memoized synthesis result for `sh`'s signature under
  /// `options`, running core::SynthesizePrograms on a miss: a blocking
  /// adapter over TryLookup. kOwned runs SynthesizeOwned; kInFlight waits
  /// on a per-call signal the continuation fires, then retries. Safe to
  /// call concurrently; see the file comment for the in-flight-dedup,
  /// max_programs-subsumption and LRU semantics. A cancel or deadline of
  /// `options.cancel` interrupts the wait: the deferral is settled with
  /// CancelDeferred and CancelledError / DeadlineExceededError thrown.
  /// `counted`, when non-null, accumulates the events this call caused (see
  /// TryLookup). `tenant` is an opaque caller identity (the service's tenant
  /// id) used only for the cross-tenant-reuse accounting.
  std::shared_ptr<const core::SynthesisResult> GetOrSynthesize(
      const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
      SynthesisCacheStats* counted = nullptr, std::int64_t tenant = kNoTenant);

  /// Non-blocking lookup, the cache's only lookup path. kReady serves from
  /// the table (counting the hit). kOwned announces this caller as the
  /// in-flight owner — it must run SynthesizeOwned (or synthesize itself
  /// and settle with CompleteOwned / AbandonOwned). kInFlight registers
  /// `on_resolved` to fire (outside the cache lock, from whichever thread
  /// settles the flight) when the current owner publishes or withdraws,
  /// takes an eviction reservation, and marks `deferred` active; the caller
  /// retries TryLookup with the same handle once the continuation fires —
  /// usually landing on kReady, though an owner death or a smaller-cap
  /// publish routes it to kOwned / kInFlight again. `on_resolved` must be
  /// safe to invoke at any later time from any thread, including after the
  /// caller lost interest (fire-once guards belong to the caller).
  /// `deferred` is required. `counted`, when non-null, is the caller's
  /// record: every event counted into stats() is added to it as well. It is
  /// never reset, so a caller passing one record through its deferrals,
  /// retry and owner calls ends up with all of them — for a pipeline
  /// placement, its deferrals plus exactly one hit or miss.
  TryLookupResult TryLookup(const core::SynthesisHierarchy& sh,
                            const core::SynthesisOptions& options,
                            std::function<void()> on_resolved,
                            DeferredLookup* deferred,
                            SynthesisCacheStats* counted = nullptr,
                            std::int64_t tenant = kNoTenant);

  /// The owner sequence of a kOwned TryLookup: FetchRemoteOwned, else a
  /// local core::SynthesizePrograms settled with CompleteOwned — or, when
  /// the synthesis throws (cancellation included), AbandonOwned and a
  /// rethrow. Returns the served result; the remote hit or the miss, and
  /// whatever settling the flight caused, is added to `counted`.
  std::shared_ptr<const core::SynthesisResult> SynthesizeOwned(
      const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
      SynthesisCacheStats* counted = nullptr, std::int64_t tenant = kNoTenant);

  /// Publishes the result of a kOwned TryLookup (the owner's miss — counted
  /// here, with the evictions the publish forces and the continuations it
  /// fires), and publishes the entry to the remote plane when one is
  /// attached.
  void CompleteOwned(const core::SynthesisHierarchy& sh,
                     const core::SynthesisOptions& options,
                     std::shared_ptr<const core::SynthesisResult> result,
                     SynthesisCacheStats* counted = nullptr,
                     std::int64_t tenant = kNoTenant);

  /// Withdraws a kOwned announcement whose synthesis failed (cancellation
  /// included): continuations fire (counted into `counted`), and each
  /// deferred caller retries and claims the synthesis itself.
  void AbandonOwned(const core::SynthesisHierarchy& sh,
                    const core::SynthesisOptions& options,
                    SynthesisCacheStats* counted = nullptr);

  /// Settles an active deferred lookup without retrying: releases its
  /// eviction reservation and withdraws its continuation registration. A
  /// continuation already
  /// extracted by a settling owner may still fire afterwards; that late
  /// fire must be a no-op for the caller. No-op on an inactive handle.
  void CancelDeferred(DeferredLookup* deferred);

  /// Remote consult for a kOwned TryLookup, before the owner pays for a
  /// local synthesis. Non-null when the plane served the signature: the
  /// fetched result was adopted into the table, the owner's flight was
  /// settled (firing its continuations), and the fetch was counted as a
  /// remote hit — the caller must NOT call CompleteOwned/AbandonOwned and
  /// uses the returned (cap-truncated) result directly. Null — no backend,
  /// plane unavailable, plane miss with the grant now ours, or retry budget
  /// exhausted — leaves the flight untouched: synthesize locally and settle
  /// as usual (CompleteOwned publishes back to the plane). May block for
  /// bounded retry-after waits behind a foreign in-flight synthesis; a
  /// cancel or deadline of `options.cancel` cuts such a wait short and
  /// returns null. Hits and remote errors are added to `counted` too.
  std::shared_ptr<const core::SynthesisResult> FetchRemoteOwned(
      const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
      SynthesisCacheStats* counted = nullptr);

  /// Cache-plane (server-side) lookup by persisted base key, for the wire
  /// cache server (src/server/planner_server.h). Non-blocking: true when an
  /// entry serves `cap`, filling `key` (the entry's full persisted Key) and
  /// `result` (with stats.seconds restored to the original synthesis
  /// wall-clock, so the wire carries the cross-process counterfactual cost)
  /// and touching the LRU; the entry is returned whole — the querying
  /// worker truncates to its own cap. `in_flight`, when non-null, reports
  /// whether a local synthesis of the base is in flight on this process (a
  /// miss with in_flight is answered retry-after, not with a grant). Does
  /// not count hit/miss stats: wire lookups are foreign workers' queries,
  /// tallied by the server's own counters.
  bool LookupByKey(const std::string& base_key, std::int64_t cap,
                   std::string* key, core::SynthesisResult* result,
                   bool* in_flight = nullptr);

  /// Cache-plane publish of a wire entry under its persisted Key (cap
  /// parsed back out like Preload; an unparsable cap is taken to be the
  /// program count). False — and a no-op — when an existing entry already
  /// subsumes the incoming one, so a stale worker's smaller-cap publish
  /// never clobbers a bigger entry. Counts no miss: the synthesis ran on a
  /// foreign process.
  bool PublishByKey(const std::string& key, core::SynthesisResult result);

  /// The base-key prefix of a persisted Key() string (the key unchanged
  /// when it does not embed a cap) — what grant bookkeeping is keyed by.
  static std::string BaseOfKey(const std::string& key);

  /// Full cache key for a hierarchy under the given options — the
  /// persistence identity (engine/cache_store.h stores entries under it).
  /// Equal to BaseKey(sh, options) + ";cap=" + max_programs.
  static std::string Key(const core::SynthesisHierarchy& sh,
                         const core::SynthesisOptions& options);

  /// Lookup identity: the signature plus every option that subsumption
  /// cannot bridge (max_program_size). Queries differing only in
  /// max_programs share a base key and can serve each other by truncation.
  static std::string BaseKey(const core::SynthesisHierarchy& sh,
                             const core::SynthesisOptions& options);

  /// Seeds the cache with entries decoded from a persistent store
  /// (engine/cache_store.h), keyed by Key() strings; the max_programs cap
  /// each entry was synthesized under is parsed back out of its key (an
  /// unparsable cap is conservatively taken to be the entry's program count,
  /// so the entry never claims programs beyond the ones it holds). Bases
  /// already present keep their in-memory entry. Served results report
  /// stats.seconds == 0, because this process spent nothing synthesizing
  /// them; the persisted wall-clock is retained internally so the
  /// seconds-saved accounting still reflects the cross-run savings.
  /// Returns the number of entries inserted (an LRU cap applies afterwards:
  /// preloading more entries than the cap keeps only the last `max_entries`
  /// of the load order and counts the rest as evictions).
  std::int64_t Preload(
      std::vector<std::pair<std::string, core::SynthesisResult>> entries);

  /// Key-sorted copy of every entry for persistence, under full Key()
  /// strings. Each result carries its *original* synthesis wall-clock (even
  /// for entries that were themselves preloaded), so save/load round trips
  /// preserve the counterfactual cost.
  std::vector<std::pair<std::string, core::SynthesisResult>> Snapshot() const;

  SynthesisCacheStats stats() const;
  std::size_t size() const;
  std::int64_t max_entries() const { return max_entries_; }
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const core::SynthesisResult> result;
    /// stats.seconds as originally synthesized; differs from
    /// result->stats.seconds only for preloaded entries (zeroed on serve).
    double original_seconds = 0.0;
    bool from_disk = false;
    /// The max_programs cap the entry was synthesized under.
    std::int64_t max_programs = 0;
    /// The tenant whose query synthesized the entry (kNoTenant for
    /// preloaded or untagged entries).
    std::int64_t owner_tenant = kNoTenant;
    /// This base's position in lru_ (most-recently-used first).
    std::list<std::string>::iterator lru;

    /// True when the synthesis finished below its cap: the program list is
    /// the whole solution set, so any cap can be served from it.
    bool complete() const {
      return static_cast<std::int64_t>(result->programs.size()) < max_programs;
    }
    bool CanServe(std::int64_t cap) const {
      return complete() || cap <= max_programs;
    }
  };

  /// One deferred lookup's completion callback, registered on the flight of
  /// its base. Guarded by mu_: registration, withdrawal, and extraction all
  /// happen under the cache lock; firing happens outside every lock.
  struct Continuation {
    std::uint64_t id = 0;
    std::function<void()> fn;
  };

  /// Adds `event` to stats_ and, when non-null, to the caller's record
  /// (mu_ held): the one place a cache event is counted.
  void CountLocked(const SynthesisCacheStats& event,
                   SynthesisCacheStats* counted);
  /// Inserts or replaces the entry at `base` (mu_ held), maintaining the
  /// LRU list; evictions it forces are counted into `counted`.
  Entry& PublishLocked(const std::string& base, Entry entry,
                       SynthesisCacheStats* counted);
  /// TryLookup's hit path: LRU touch, hit counting, then (unlocked) the
  /// exact subsumption truncation. `lock` must hold mu_ on entry; released
  /// on return.
  std::shared_ptr<const core::SynthesisResult> ServeHitLocked(
      std::unique_lock<std::mutex>& lock, Entry& entry, std::int64_t cap,
      std::int64_t tenant, SynthesisCacheStats* counted);
  /// Settles the flight at `base`: erases the announcement and extracts its
  /// continuations under `lock` (counting them into `counted`), then
  /// (unlocked) fires them. `lock` must hold mu_ on entry; released on
  /// return.
  void SettleFlight(std::unique_lock<std::mutex>& lock, const std::string& base,
                    SynthesisCacheStats* counted);
  /// Releases an active deferred lookup's eviction reservation and marks it
  /// inactive (mu_ held).
  void ReleaseReservationLocked(DeferredLookup* deferred);
  /// Moves `base` to the front of the LRU list (mu_ held).
  void TouchLocked(Entry& entry);
  /// The remote-plane lookup loop (no lock held): kHit fills
  /// `result`/`entry_cap` and returns true; kOwned returns false (the grant
  /// is ours — synthesize); kRetryAfter waits and retries within a bounded
  /// budget; kUnavailable / exhausted budget / malformed reply count a
  /// remote error and return false. A cancel or deadline of
  /// `options.cancel` — checked each round and interrupting the
  /// retry-after wait — returns false.
  bool ConsultRemote(RemoteCacheBackend& remote, const std::string& base,
                     const core::SynthesisOptions& options,
                     core::SynthesisResult* result, std::int64_t* entry_cap,
                     SynthesisCacheStats* counted);
  /// Adopts a remote-plane hit while owning the flight at `base`: publishes
  /// the fetched entry (serve seconds zeroed, original retained), counts a
  /// remote hit, settles the flight, and returns the (cap-truncated)
  /// result. Takes mu_.
  std::shared_ptr<const core::SynthesisResult> AdoptRemoteHit(
      const std::string& base, core::SynthesisResult fetched,
      std::int64_t entry_cap, std::int64_t cap, SynthesisCacheStats* counted);
  /// Drops least-recently-used entries until the cap holds, skipping bases
  /// with outstanding deferred-lookup reservations (mu_ held); a no-op when
  /// max_entries_ <= 0.
  void EvictLocked(SynthesisCacheStats* counted);

  const std::int64_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  ///< by BaseKey
  /// Bases being synthesized right now, each with the continuations of the
  /// lookups deferred behind it.
  std::unordered_map<std::string, std::vector<Continuation>> inflight_;
  /// Bases with deferred lookups outstanding (count of lookups): a
  /// reservation makes the base immune to LRU eviction until the deferred
  /// lookup's retry has run, closing the publish-to-read window.
  std::unordered_map<std::string, std::int64_t> reserved_;
  std::list<std::string> lru_;  ///< base keys, most-recently-used first
  /// Tags deferred-lookup continuation registrations so CancelDeferred can
  /// withdraw exactly its own from a flight (never reused, so a stale tag
  /// matches nothing on a successor flight).
  std::uint64_t next_continuation_id_ = 1;
  SynthesisCacheStats stats_;
  /// The remote cache plane; nullptr for the (default) local-only cache.
  /// Guarded by mu_ for the set; operations snapshot the shared_ptr under
  /// the lock and call the backend outside it.
  std::shared_ptr<RemoteCacheBackend> remote_;
};

}  // namespace p2::engine

#endif  // P2_ENGINE_SYNTHESIS_CACHE_H_
