#include "engine/synthesis_cache.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <utility>

namespace p2::engine {

namespace {

constexpr std::string_view kCapMarker = ";cap=";

/// Total retry-after budget spent waiting out one foreign grant before the
/// lookup gives up and synthesizes locally (a safe duplicate, never a wrong
/// answer): a crashed foreign owner must not wedge this worker even if the
/// server keeps re-granting.
constexpr int kMaxRemoteRetryMs = 60'000;

/// The persisted Key() of `base` under max_programs cap `cap`.
std::string JoinKey(const std::string& base, std::int64_t cap) {
  return base + std::string(kCapMarker) + std::to_string(cap);
}

/// Splits a persisted Key() into its base, returned, and the max_programs
/// cap it embeds, stored in `cap`. A key Key() did not produce (e.g. a
/// hand-forged cache file) is all base and leaves `cap` untouched.
std::string SplitKey(const std::string& key, std::int64_t* cap) {
  const auto pos = key.rfind(kCapMarker);
  if (pos == std::string::npos) return key;
  std::int64_t value = 0;
  const char* end = key.data() + key.size();
  const auto [ptr, ec] =
      std::from_chars(key.data() + pos + kCapMarker.size(), end, value);
  if (ec != std::errc() || ptr != end || value < 0) return key;
  *cap = value;
  return key.substr(0, pos);
}

/// `result` cut to its first `cap` programs, or `result` itself when it
/// holds no more. Exact, not approximate: an entry's program list is the
/// smallest-first prefix of the full solution set, so its own prefix is
/// precisely what a fresh synthesis under `cap` would return. The stats
/// (and the counterfactual seconds) stay those of the run that produced the
/// entry, like any other hit.
std::shared_ptr<const core::SynthesisResult> TruncateToCap(
    std::shared_ptr<const core::SynthesisResult> result, std::int64_t cap) {
  if (cap >= static_cast<std::int64_t>(result->programs.size())) return result;
  auto truncated = std::make_shared<core::SynthesisResult>();
  truncated->stats = result->stats;
  truncated->programs.assign(
      result->programs.begin(),
      result->programs.begin() + static_cast<std::ptrdiff_t>(cap));
  return truncated;
}

/// An event of `n` occurrences of one counter, for CountLocked.
SynthesisCacheStats Event(std::int64_t SynthesisCacheStats::*counter,
                          std::int64_t n = 1) {
  SynthesisCacheStats event;
  event.*counter = n;
  return event;
}

/// A one-shot wake-up for a blocked caller: GetOrSynthesize's continuation
/// fires it when the flight it deferred behind settles.
struct Signal {
  void Fire() {
    {
      std::lock_guard<std::mutex> lock(m);
      fired = true;
    }
    cv.notify_all();
  }

  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
};

/// Blocks until `signal` fires (true), or until `cancel` aborts or `until`
/// passes (false). Deadline expiry never notifies a cv, so the block is
/// also bounded by the token's armed deadline.
bool WaitForSignal(Signal& signal, const CancelToken& cancel,
                   std::optional<std::chrono::steady_clock::time_point> until) {
  // Register the cv with the token before the first predicate check and
  // while `m` is not held (the AddCancelWaiter contract): a Cancel() landing
  // any time after this line either notifies the cv or is already visible
  // to cancel_requested() below. Destruction order matters too — `lock`
  // below releases `m` before `waiter` unregisters.
  CancelWaiter waiter(cancel, &signal.m, &signal.cv);
  std::unique_lock<std::mutex> lock(signal.m);
  for (;;) {
    if (signal.fired) return true;
    if (cancel.cancel_requested()) return false;
    // The token's deadline is re-read each round (it can be re-armed); the
    // post-wake cancel_requested() latches its expiry.
    auto wake = cancel.deadline();
    if (until.has_value()) {
      if (std::chrono::steady_clock::now() >= *until) return false;
      if (!wake.has_value() || *until < *wake) wake = until;
    }
    if (wake.has_value()) {
      signal.cv.wait_until(lock, *wake);
    } else {
      signal.cv.wait(lock);
    }
  }
}

}  // namespace

std::string SynthesisCache::BaseKey(const core::SynthesisHierarchy& sh,
                                    const core::SynthesisOptions& options) {
  // Every SynthesisOptions field that can change the program list must
  // appear in the key or be bridged by subsumption, or two queries with
  // different options would silently share program sets. `max_programs` is
  // excluded *here* because entries record the cap they were synthesized
  // under and smaller caps are served by truncation (the size-ordered
  // program list makes the truncation exact); it still appears in the full
  // Key() so persisted entries keep their cap. `cancel` is excluded: it is
  // pure execution strategy — a search that *completes* returns the same
  // program list with or without a token, and an aborted search publishes
  // nothing. The binding below names every member, so a new field, whatever
  // its size, fails to compile here until this function is revisited.
  const auto& [max_program_size, max_programs, cancel] = options;
  return sh.Signature() + ";size<=" + std::to_string(max_program_size);
}

std::string SynthesisCache::Key(const core::SynthesisHierarchy& sh,
                                const core::SynthesisOptions& options) {
  return JoinKey(BaseKey(sh, options), options.max_programs);
}

std::string SynthesisCache::BaseOfKey(const std::string& key) {
  std::int64_t cap = 0;
  return SplitKey(key, &cap);
}

std::string SynthesisCache::DecodeForeignEntry(const std::string& key,
                                               core::SynthesisResult result,
                                               Entry* entry) {
  // The cap a key without one keeps: the entry then serves caps up to its
  // program count and never fabricates completeness.
  entry->max_programs = static_cast<std::int64_t>(result.programs.size());
  std::string base = SplitKey(key, &entry->max_programs);
  // Served results report zero synthesis time: this process never ran the
  // search. The original wall-clock lives on in Entry::original_seconds for
  // the savings accounting and for re-persisting.
  entry->original_seconds = result.stats.seconds;
  result.stats.seconds = 0.0;
  entry->result =
      std::make_shared<const core::SynthesisResult>(std::move(result));
  return base;
}

SynthesisCacheStats SynthesisCache::HitEvent(const Entry& entry,
                                             std::int64_t cap,
                                             std::int64_t tenant) {
  SynthesisCacheStats hit;
  hit.hits = 1;
  hit.seconds_saved = entry.original_seconds;
  if (entry.from_disk) {
    hit.disk_hits = 1;
    hit.disk_seconds_saved = entry.original_seconds;
  }
  const bool cross_tenant = entry.owner_tenant != kNoTenant &&
                            tenant != kNoTenant && entry.owner_tenant != tenant;
  hit.cross_tenant_hits = cross_tenant ? 1 : 0;
  hit.subsumed_hits =
      cap < static_cast<std::int64_t>(entry.result->programs.size()) ? 1 : 0;
  return hit;
}

void SynthesisCache::set_remote(std::shared_ptr<RemoteCacheBackend> remote) {
  std::unique_lock<std::mutex> lock(mu_);
  remote_ = std::move(remote);
}

void SynthesisCache::CountLocked(const SynthesisCacheStats& event,
                                 SynthesisCacheStats* counted) {
  stats_ += event;
  if (counted != nullptr) *counted += event;
}

SynthesisCache::Entry& SynthesisCache::PublishLocked(
    const std::string& base, Entry entry, SynthesisCacheStats* counted) {
  const auto it = entries_.find(base);
  if (it != entries_.end()) {
    // Replacement (cap upgrade): keep the LRU slot, refreshed below.
    entry.lru = it->second.lru;
    it->second = std::move(entry);
    TouchLocked(it->second);
    return it->second;
  }
  lru_.push_front(base);
  entry.lru = lru_.begin();
  Entry& inserted = entries_.emplace(base, std::move(entry)).first->second;
  EvictLocked(counted);
  return inserted;
}

void SynthesisCache::TouchLocked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void SynthesisCache::EvictLocked(SynthesisCacheStats* counted) {
  if (max_entries_ <= 0) return;
  std::int64_t evicted = 0;
  auto it = lru_.end();
  while (it != lru_.begin() &&
         static_cast<std::int64_t>(entries_.size()) > max_entries_) {
    --it;
    // A reserved base has deferred lookups about to be served from it:
    // immune until the last one has retried. The cache may transiently
    // exceed its cap by the number of reserved bases.
    if (reserved_.find(*it) != reserved_.end()) continue;
    entries_.erase(*it);
    it = lru_.erase(it);
    ++evicted;
  }
  CountLocked(Event(&SynthesisCacheStats::evictions, evicted), counted);
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::GetOrSynthesize(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    SynthesisCacheStats* counted, std::int64_t tenant) {
  DeferredLookup deferred;
  for (;;) {
    // Co-owned by the continuation: one the owner extracted before a
    // CancelDeferred below could withdraw it still fires after we unwound.
    auto resolved = std::make_shared<Signal>();
    TryLookupResult looked =
        TryLookup(sh, options, [resolved] { resolved->Fire(); }, &deferred,
                  counted, tenant);
    switch (looked.state) {
      case TryLookupState::kReady:
        return std::move(looked.result);
      case TryLookupState::kOwned:
        return SynthesizeOwned(sh, options, counted, tenant);
      case TryLookupState::kInFlight:
        // Our *own* request aborting while we wait behind a foreign owner
        // that may never cancel: settle the deferral and unwind.
        if (!WaitForSignal(*resolved, options.cancel, std::nullopt)) {
          CancelDeferred(&deferred);
          options.cancel.ThrowIfCancelled();
        }
        break;  // fired: retry, settling the deferral
    }
  }
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::SynthesizeOwned(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    SynthesisCacheStats* counted, std::int64_t tenant) {
  // Consult the remote cache plane before paying for a synthesis (null
  // without a backend). The flight is already announced, so local
  // concurrent lookups defer behind the remote round trip too and the
  // process makes one plane query per signature, not one per thread.
  if (auto fetched = FetchRemoteOwned(sh, options, counted)) return fetched;
  std::shared_ptr<const core::SynthesisResult> result;
  try {
    result = std::make_shared<const core::SynthesisResult>(
        SynthesizePrograms(sh, options));
  } catch (...) {
    // Withdraw the announcement and fire the continuations: each deferred
    // caller retries, finds neither entry nor flight, and claims the
    // synthesis itself.
    AbandonOwned(sh, options, counted);
    throw;
  }
  CompleteOwned(sh, options, result, counted, tenant);
  return result;
}

bool SynthesisCache::ConsultRemote(RemoteCacheBackend& remote,
                                   const std::string& base,
                                   const core::SynthesisOptions& options,
                                   Entry* entry, SynthesisCacheStats* counted) {
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  const auto count_error = [this, counted] {
    std::unique_lock<std::mutex> lock(mu_);
    CountLocked(Event(&SynthesisCacheStats::remote_errors), counted);
  };
  int waited_ms = 0;
  for (;;) {
    // A cancelled request stops retrying and falls through to the local
    // synthesis, whose own cancellation checkpoints unwind it — the remote
    // consult never needs to throw.
    if (options.cancel.cancel_requested()) return false;
    RemoteLookupResult reply = remote.Lookup(base, cap);
    switch (reply.kind) {
      case RemoteLookupResult::Kind::kHit: {
        const std::string reply_base =
            DecodeForeignEntry(reply.key, std::move(reply.result), entry);
        if (reply_base != base || !entry->CanServe(cap)) {
          // A hit for the wrong base or one that cannot serve our cap is a
          // protocol violation by the plane: synthesize locally rather than
          // adopt an answer we cannot trust.
          count_error();
          return false;
        }
        return true;
      }
      case RemoteLookupResult::Kind::kOwned:
        // The grant is ours: synthesize locally and publish the completion.
        return false;
      case RemoteLookupResult::Kind::kRetryAfter: {
        if (waited_ms >= kMaxRemoteRetryMs) {
          // The foreign owner looks dead (or the grant keeps bouncing):
          // a duplicate local synthesis is safe, wedging here is not.
          count_error();
          return false;
        }
        // A signal nobody fires: the wait ends at the retry-after mark, or
        // earlier on a cancel or deadline, which the next round observes.
        const int sleep_ms = std::clamp(reply.retry_after_ms, 1, 1000);
        Signal never;
        WaitForSignal(never, options.cancel,
                      std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(sleep_ms));
        waited_ms += sleep_ms;
        break;
      }
      case RemoteLookupResult::Kind::kUnavailable:
        count_error();
        return false;
    }
  }
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::FetchRemoteOwned(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    SynthesisCacheStats* counted) {
  std::shared_ptr<RemoteCacheBackend> remote;
  {
    std::unique_lock<std::mutex> lock(mu_);
    remote = remote_;
  }
  if (remote == nullptr) return nullptr;
  const std::string base = BaseKey(sh, options);
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  Entry fetched;
  if (!ConsultRemote(*remote, base, options, &fetched, counted)) {
    return nullptr;
  }
  // owner_tenant stays kNoTenant: the entry was synthesized by a foreign
  // process, not by any tenant of this one.
  SynthesisCacheStats hit = HitEvent(fetched, cap, kNoTenant);
  hit.remote_hits = 1;
  auto result = fetched.result;
  std::unique_lock<std::mutex> lock(mu_);
  PublishLocked(base, std::move(fetched), counted);
  CountLocked(hit, counted);
  // Settle the flight we claimed before consulting the plane: the deferred
  // lookups' retries are served from the adopted entry.
  SettleFlight(lock, base, counted);
  return TruncateToCap(std::move(result), cap);
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::ServeHitLocked(
    std::unique_lock<std::mutex>& lock, Entry& entry, std::int64_t cap,
    std::int64_t tenant, SynthesisCacheStats* counted) {
  TouchLocked(entry);
  CountLocked(HitEvent(entry, cap, tenant), counted);
  auto result = entry.result;
  // The truncation copies up to `cap` programs — do it outside the lock,
  // off the snapshotted shared_ptr, so concurrent lookups on other
  // signatures never stall behind it.
  lock.unlock();
  return TruncateToCap(std::move(result), cap);
}

void SynthesisCache::SettleFlight(std::unique_lock<std::mutex>& lock,
                                  const std::string& base,
                                  SynthesisCacheStats* counted) {
  const auto fit = inflight_.find(base);
  std::vector<Continuation> continuations = std::move(fit->second);
  inflight_.erase(fit);
  CountLocked(Event(&SynthesisCacheStats::continuations_fired,
                    static_cast<std::int64_t>(continuations.size())),
              counted);
  lock.unlock();
  // Outside every lock, so a continuation is free to call straight back
  // into the cache or into a ThreadPool group.
  for (Continuation& continuation : continuations) continuation.fn();
}

void SynthesisCache::ReleaseReservationLocked(DeferredLookup* deferred) {
  deferred->active_ = false;
  const auto rit = reserved_.find(deferred->base_);
  if (--rit->second == 0) reserved_.erase(rit);
}

SynthesisCache::TryLookupResult SynthesisCache::TryLookup(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    std::function<void()> on_resolved, DeferredLookup* deferred,
    SynthesisCacheStats* counted, std::int64_t tenant) {
  const std::string base = BaseKey(sh, options);
  // Clamp like the synthesizer does: a non-positive cap means "no programs"
  // (core::SynthesizePrograms returns an empty list for it), so it is
  // served from any entry as an empty prefix — never as a negative
  // iterator offset.
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);

  TryLookupResult r;
  std::unique_lock<std::mutex> lock(mu_);
  // A retry after a deferral releases its reservation here — under the same
  // lock acquisition as the lookup below, so eviction (which also needs the
  // lock) cannot squeeze between the release and the read.
  if (deferred->active_) ReleaseReservationLocked(deferred);
  const auto it = entries_.find(base);
  if (it != entries_.end() && it->second.CanServe(cap)) {
    r.state = TryLookupState::kReady;
    r.result = ServeHitLocked(lock, it->second, cap, tenant, counted);
    return r;
  }
  // Not servable from the table. If someone is synthesizing this signature
  // right now, defer behind them: their result usually serves our retry
  // (same cap), though a truncated smaller-cap result sends the retry into
  // its own synthesis.
  const auto fit = inflight_.find(base);
  if (fit != inflight_.end()) {
    // Reserve the base (the published entry must survive until our retry
    // reads it) and register the continuation under the tag CancelDeferred
    // withdraws by.
    ++reserved_[base];
    deferred->active_ = true;
    deferred->base_ = base;
    deferred->id_ = next_continuation_id_++;
    fit->second.push_back(Continuation{deferred->id_, std::move(on_resolved)});
    CountLocked(Event(&SynthesisCacheStats::deferred_lookups), counted);
    r.state = TryLookupState::kInFlight;
    return r;
  }
  // Claim the flight: the caller is now the owner every concurrent lookup
  // of this base defers behind, until CompleteOwned/AbandonOwned.
  inflight_.try_emplace(base);
  r.state = TryLookupState::kOwned;
  return r;
}

void SynthesisCache::CompleteOwned(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    std::shared_ptr<const core::SynthesisResult> result,
    SynthesisCacheStats* counted, std::int64_t tenant) {
  const std::string base = BaseKey(sh, options);
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  const std::shared_ptr<const core::SynthesisResult> completed = result;
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<RemoteCacheBackend> remote = remote_;
  // Replace any existing entry: an owner exists only when it could not
  // serve this cap, i.e. it was truncated below `cap` — the new result
  // strictly extends it (both are prefixes of the same ordered list).
  Entry entry;
  entry.result = std::move(result);
  entry.original_seconds = entry.result->stats.seconds;
  entry.max_programs = cap;
  entry.owner_tenant = tenant;
  PublishLocked(base, std::move(entry), counted);
  CountLocked(Event(&SynthesisCacheStats::misses), counted);
  SettleFlight(lock, base, counted);
  // Publish to the remote plane after settling: local deferred lookups
  // never stall behind the wire, and a failed publish only loses
  // cross-worker reuse of this entry.
  if (remote != nullptr && !remote->Publish(JoinKey(base, cap), *completed)) {
    std::unique_lock<std::mutex> relock(mu_);
    CountLocked(Event(&SynthesisCacheStats::remote_errors), counted);
  }
}

void SynthesisCache::AbandonOwned(const core::SynthesisHierarchy& sh,
                                  const core::SynthesisOptions& options,
                                  SynthesisCacheStats* counted) {
  const std::string base = BaseKey(sh, options);
  std::unique_lock<std::mutex> lock(mu_);
  SettleFlight(lock, base, counted);
}

void SynthesisCache::CancelDeferred(DeferredLookup* deferred) {
  if (deferred == nullptr || !deferred->active_) return;
  std::unique_lock<std::mutex> lock(mu_);
  ReleaseReservationLocked(deferred);
  // Withdraw the continuation if the flight still holds it. The flight may
  // already be a *successor* (our owner settled, extracting our
  // continuation, and someone re-claimed the base) — ids are never reused,
  // so the scan simply finds nothing and the extracted continuation fires
  // late as the caller's fire-once no-op.
  const auto fit = inflight_.find(deferred->base_);
  if (fit != inflight_.end()) {
    auto& continuations = fit->second;
    for (auto it = continuations.begin(); it != continuations.end(); ++it) {
      if (it->id == deferred->id_) {
        continuations.erase(it);
        break;
      }
    }
  }
}

bool SynthesisCache::LookupByKey(const std::string& base_key, std::int64_t cap,
                                 std::string* key,
                                 core::SynthesisResult* result,
                                 bool* in_flight) {
  const std::int64_t clamped = std::max<std::int64_t>(0, cap);
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight != nullptr) {
    *in_flight = inflight_.find(base_key) != inflight_.end();
  }
  const auto it = entries_.find(base_key);
  if (it == entries_.end() || !it->second.CanServe(clamped)) return false;
  TouchLocked(it->second);
  *key = JoinKey(base_key, it->second.max_programs);
  *result = *it->second.result;
  // The wire carries the original synthesis wall-clock (like Snapshot), so
  // the adopting worker's seconds-saved accounting spans processes.
  result->stats.seconds = it->second.original_seconds;
  return true;
}

bool SynthesisCache::PublishByKey(const std::string& key,
                                  core::SynthesisResult result) {
  Entry incoming;
  const std::string base =
      DecodeForeignEntry(key, std::move(result), &incoming);
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(base);
  // Keep the existing entry when it subsumes the incoming one: it serves
  // every cap the incoming entry could (complete, or at least as large a
  // truncated prefix). Out-of-order publishes from racing workers are
  // harmless either way — both are prefixes of the same ordered list.
  if (it != entries_.end() &&
      (it->second.complete() ||
       (!incoming.complete() &&
        it->second.max_programs >= incoming.max_programs))) {
    return false;
  }
  PublishLocked(base, std::move(incoming), nullptr);
  return true;
}

std::int64_t SynthesisCache::Preload(
    std::vector<std::pair<std::string, core::SynthesisResult>> entries) {
  std::unique_lock<std::mutex> lock(mu_);
  std::int64_t inserted = 0;
  for (auto& [key, result] : entries) {
    Entry entry;
    entry.from_disk = true;
    const std::string base = DecodeForeignEntry(key, std::move(result), &entry);
    if (entries_.find(base) != entries_.end()) continue;
    PublishLocked(base, std::move(entry), nullptr);
    ++inserted;
  }
  return inserted;
}

std::vector<std::pair<std::string, core::SynthesisResult>>
SynthesisCache::Snapshot() const {
  std::vector<std::pair<std::string, core::SynthesisResult>> snapshot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [base, entry] : entries_) {
      core::SynthesisResult result = *entry.result;
      result.stats.seconds = entry.original_seconds;
      snapshot.emplace_back(JoinKey(base, entry.max_programs),
                            std::move(result));
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

SynthesisCacheStats SynthesisCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SynthesisCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

void SynthesisCache::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_ = SynthesisCacheStats{};
}

}  // namespace p2::engine
