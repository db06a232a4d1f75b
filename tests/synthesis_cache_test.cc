// The synthesis cache's contract (ISSUE 1): placements inducing isomorphic
// synthesis hierarchies — equal signatures — share one synthesis run and get
// identical program sets; differing signatures miss.
#include "engine/synthesis_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault_injection.h"
#include "core/synthesis_hierarchy.h"

namespace p2::engine {
namespace {

using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

// Two placements of axes (8, 2, 2) on a [2 16] hierarchy that differ only in
// where the *non-reduction* axes land: their reduction-axis rows agree, so
// under kReductionAxes they pose the same synthesis problem.
SynthesisHierarchy IsomorphicA() {
  const ParallelismMatrix m({{1, 8}, {1, 2}, {2, 1}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

SynthesisHierarchy IsomorphicB() {
  const ParallelismMatrix m({{1, 8}, {2, 1}, {1, 2}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// Same axes, but the reduction axis is split differently: another signature.
SynthesisHierarchy Different() {
  const ParallelismMatrix m({{2, 4}, {1, 2}, {1, 2}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

TEST(Signature, InvariantUnderDeviceRenumbering) {
  EXPECT_EQ(IsomorphicA().Signature(), IsomorphicB().Signature());
  // ...even though the placements map synthesis devices to different global
  // devices.
  bool same_map = true;
  const auto a = IsomorphicA();
  const auto b = IsomorphicB();
  ASSERT_EQ(a.num_synth_devices(), b.num_synth_devices());
  ASSERT_EQ(a.num_replicas(), b.num_replicas());
  for (std::int64_t r = 0; r < a.num_replicas(); ++r) {
    for (std::int64_t s = 0; s < a.num_synth_devices(); ++s) {
      if (a.GlobalDevice(s, r) != b.GlobalDevice(s, r)) same_map = false;
    }
  }
  EXPECT_FALSE(same_map);
}

TEST(Signature, DistinguishesDifferentSynthesisProblems) {
  EXPECT_NE(IsomorphicA().Signature(), Different().Signature());
}

TEST(Signature, CoversLevelsAndGoal) {
  const auto sig = IsomorphicA().Signature();
  EXPECT_NE(sig.find("levels:"), std::string::npos);
  EXPECT_NE(sig.find("goal:"), std::string::npos);
}

TEST(SynthesisCache, HitsOnEqualSignaturesAndReturnsIdenticalPrograms) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  const auto first = cache.GetOrSynthesize(IsomorphicA(), options);
  const auto second = cache.GetOrSynthesize(IsomorphicB(), options);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.get(), second.get());  // the very same memoized result
  EXPECT_GE(cache.stats().seconds_saved, 0.0);

  // A hit is indistinguishable from a fresh synthesis (determinism).
  const auto fresh = core::SynthesizePrograms(IsomorphicB(), options);
  ASSERT_EQ(second->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(second->programs[i], fresh.programs[i]);
  }
}

TEST(SynthesisCache, MissesOnDifferentSignatures) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  cache.GetOrSynthesize(IsomorphicA(), options);
  cache.GetOrSynthesize(Different(), options);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SynthesisCache, KeyIncludesSynthesisOptions) {
  SynthesisCache cache;
  core::SynthesisOptions small;
  small.max_program_size = 2;
  core::SynthesisOptions large;
  large.max_program_size = 4;
  const auto a = cache.GetOrSynthesize(IsomorphicA(), small);
  const auto b = cache.GetOrSynthesize(IsomorphicA(), large);
  EXPECT_EQ(cache.stats().misses, 2);  // different options never alias
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a.get(), b.get());
  EXPECT_LE(a->programs.size(), b->programs.size());
}

TEST(SynthesisCache, LargerCapEntriesServeSmallerCapQueries) {
  // max_programs-aware subsumption: an entry synthesized under a larger cap
  // serves a smaller-cap query by truncation — a hit, not a miss — and the
  // truncated list equals what a fresh small-cap synthesis would return
  // (the synthesizer keeps the smallest programs, a size-ordered prefix).
  SynthesisCache cache;
  core::SynthesisOptions unbounded;  // default cap 2^20: effectively complete
  const auto full = cache.GetOrSynthesize(IsomorphicA(), unbounded);
  ASSERT_GT(full->programs.size(), 2u);

  core::SynthesisOptions capped = unbounded;
  capped.max_programs = 2;
  SynthesisCacheStats counted;
  const auto served = cache.GetOrSynthesize(IsomorphicA(), capped, &counted);
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(counted.subsumed_hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().subsumed_hits, 1);
  EXPECT_EQ(cache.size(), 1u);  // one entry serves both caps

  const auto fresh = core::SynthesizePrograms(IsomorphicA(), capped);
  ASSERT_EQ(served->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(served->programs[i], fresh.programs[i]);
  }
}

TEST(SynthesisCache, CompleteEntriesServeAnyCap) {
  // An entry that finished below its cap holds the whole solution set, so
  // even a *larger*-cap query is a hit.
  SynthesisCache cache;
  core::SynthesisOptions small_cap;
  small_cap.max_programs = 1 << 10;  // far above the real program count
  const auto first = cache.GetOrSynthesize(IsomorphicA(), small_cap);
  ASSERT_LT(static_cast<std::int64_t>(first->programs.size()),
            small_cap.max_programs);

  core::SynthesisOptions big_cap = small_cap;
  big_cap.max_programs = 1 << 20;
  SynthesisCacheStats counted;
  const auto served = cache.GetOrSynthesize(IsomorphicA(), big_cap, &counted);
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(counted.subsumed_hits, 0);  // nothing was truncated
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(served.get(), first.get());
}

TEST(SynthesisCache, TruncatedEntriesAreUpgradedByLargerCapQueries) {
  SynthesisCache cache;
  core::SynthesisOptions tiny;
  tiny.max_programs = 1;  // truncated: programs.size() == cap
  const auto truncated = cache.GetOrSynthesize(IsomorphicA(), tiny);
  ASSERT_EQ(truncated->programs.size(), 1u);

  // A larger cap cannot be served by a truncated entry: it re-synthesizes
  // and the richer result replaces the entry...
  core::SynthesisOptions bigger = tiny;
  bigger.max_programs = 1 << 20;
  SynthesisCacheStats upgrade;
  const auto full = cache.GetOrSynthesize(IsomorphicA(), bigger, &upgrade);
  EXPECT_EQ(upgrade.hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_GT(full->programs.size(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // ...after which the original tiny cap is served by subsumption.
  SynthesisCacheStats downgrade;
  const auto again = cache.GetOrSynthesize(IsomorphicA(), tiny, &downgrade);
  EXPECT_EQ(downgrade.hits, 1);
  EXPECT_EQ(downgrade.subsumed_hits, 1);
  EXPECT_EQ(again->programs.size(), 1u);
  EXPECT_EQ(again->programs[0], truncated->programs[0]);
}

TEST(SynthesisCache, SubsumptionWorksAcrossSnapshotPreloadRoundTrips) {
  // The persisted key embeds the cap the entry was synthesized under, so a
  // disk-warmed cache still serves smaller caps by truncation — as disk
  // hits.
  SynthesisCache cache;
  const core::SynthesisOptions unbounded;
  cache.GetOrSynthesize(IsomorphicA(), unbounded);

  SynthesisCache warmed;
  EXPECT_EQ(warmed.Preload(cache.Snapshot()), 1);
  core::SynthesisOptions capped = unbounded;
  capped.max_programs = 2;
  SynthesisCacheStats counted;
  const auto served = warmed.GetOrSynthesize(IsomorphicA(), capped, &counted);
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(counted.disk_hits, 1);
  EXPECT_EQ(counted.subsumed_hits, 1);
  EXPECT_EQ(served->programs.size(), 2u);
  EXPECT_EQ(warmed.stats().disk_hits, 1);
  EXPECT_EQ(warmed.stats().misses, 0);
}

TEST(SynthesisCache, NonPositiveCapsAreServedAsEmptyPrefixes) {
  // A cap <= 0 means "no programs" to the synthesizer; through the cache it
  // must mean the same — an empty truncation of any existing entry, never a
  // negative iterator offset.
  SynthesisCache cache;
  const core::SynthesisOptions unbounded;
  cache.GetOrSynthesize(IsomorphicA(), unbounded);
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{-1}}) {
    core::SynthesisOptions capped = unbounded;
    capped.max_programs = cap;
    SynthesisCacheStats counted;
    const auto served = cache.GetOrSynthesize(IsomorphicA(), capped, &counted);
    EXPECT_EQ(counted.hits, 1) << cap;
    EXPECT_TRUE(served->programs.empty()) << cap;
    const auto fresh = core::SynthesizePrograms(IsomorphicA(), capped);
    EXPECT_TRUE(fresh.programs.empty()) << cap;
  }
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(SynthesisCache, PreloadWithoutACapMarkerIsConservative) {
  // A key not produced by Key() (foreign writer) carries no cap; the entry
  // is assumed to hold exactly its program count, so it serves caps up to
  // that count and re-synthesizes beyond it instead of claiming
  // completeness it cannot prove.
  SynthesisCache donor;
  const core::SynthesisOptions options;
  donor.GetOrSynthesize(IsomorphicA(), options);
  auto snapshot = donor.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const std::size_t num_programs = snapshot[0].second.programs.size();
  // Strip the ";cap=..." suffix Key() appends.
  const auto marker = snapshot[0].first.rfind(";cap=");
  ASSERT_NE(marker, std::string::npos);
  snapshot[0].first.resize(marker);

  SynthesisCache warmed;
  EXPECT_EQ(warmed.Preload(std::move(snapshot)), 1);
  core::SynthesisOptions beyond = options;
  beyond.max_programs =
      static_cast<std::int64_t>(num_programs) + 1;  // beyond what it holds
  SynthesisCacheStats counted;
  warmed.GetOrSynthesize(IsomorphicA(), beyond, &counted);
  EXPECT_EQ(counted.hits, 0);  // conservatively re-synthesized
  EXPECT_EQ(warmed.stats().misses, 1);
}

TEST(SynthesisCache, LruCapEvictsLeastRecentlyUsed) {
  SynthesisCache cache(/*max_entries=*/1);
  const core::SynthesisOptions options;
  cache.GetOrSynthesize(IsomorphicA(), options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0);

  // A second signature overflows the cap: the first entry is evicted...
  cache.GetOrSynthesize(Different(), options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1);

  // ...so revisiting it is a miss (re-synthesis), never a wrong result.
  SynthesisCacheStats counted;
  const auto again = cache.GetOrSynthesize(IsomorphicA(), options, &counted);
  EXPECT_EQ(counted.hits, 0);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().evictions, 2);
  const auto fresh = core::SynthesizePrograms(IsomorphicA(), options);
  ASSERT_EQ(again->programs.size(), fresh.programs.size());
}

TEST(SynthesisCache, LruTouchOnHitProtectsHotEntries) {
  SynthesisCache cache(/*max_entries=*/2);
  const core::SynthesisOptions options;
  cache.GetOrSynthesize(IsomorphicA(), options);  // A is LRU after B lands
  cache.GetOrSynthesize(Different(), options);
  // Touch A: B becomes the least recently used...
  cache.GetOrSynthesize(IsomorphicB(), options);  // same signature as A
  EXPECT_EQ(cache.stats().hits, 1);

  // ...so a third signature evicts B, not A.
  core::SynthesisOptions other = options;
  other.max_program_size = options.max_program_size + 1;
  cache.GetOrSynthesize(IsomorphicA(), other);  // distinct base key
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  SynthesisCacheStats counted;
  cache.GetOrSynthesize(IsomorphicA(), options, &counted);
  EXPECT_EQ(counted.hits, 1) << "the hot entry must have survived";
}

TEST(SynthesisCache, UnboundedByDefault) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  cache.GetOrSynthesize(IsomorphicA(), options);
  cache.GetOrSynthesize(Different(), options);
  EXPECT_EQ(cache.max_entries(), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(SynthesisCache, PreloadRespectsTheLruCap) {
  SynthesisCache donor;
  const core::SynthesisOptions options;
  donor.GetOrSynthesize(IsomorphicA(), options);
  donor.GetOrSynthesize(Different(), options);

  SynthesisCache capped(/*max_entries=*/1);
  EXPECT_EQ(capped.Preload(donor.Snapshot()), 2);  // both inserted...
  EXPECT_EQ(capped.size(), 1u);                    // ...one evicted again
  EXPECT_EQ(capped.stats().evictions, 1);
}

// Cross-cluster sharing (ISSUE 5): two different machines whose placements
// pose the same synthesis problem — equal reduction-axis factorization over
// equally-deep hierarchies — hit one cache entry, and the hit is
// attributable as cross-tenant when the lookups carry distinct tenant tags.
TEST(SynthesisCache, TenantsWithACommonSubHierarchyShareOneEntry) {
  // A 4-node A100 cluster ([4 16]) and an 8-node V100 cluster ([8 8]): an
  // 8-wide reduction axis split as (2, 4) over nodes x GPUs is a valid
  // placement row on both, and the synthesis hierarchy only sees the
  // factorization — not the machine — so the signatures agree.
  const ParallelismMatrix on_a100({{2, 4}, {2, 4}});  // axes (8, 8) on [4 16]
  const ParallelismMatrix on_v100({{2, 4}, {4, 2}});  // axes (8, 8) on [8 8]
  const std::vector<int> raxes = {0};
  const auto sh_a100 = SynthesisHierarchy::Build(
      on_a100, raxes, SynthesisHierarchyKind::kReductionAxes);
  const auto sh_v100 = SynthesisHierarchy::Build(
      on_v100, raxes, SynthesisHierarchyKind::kReductionAxes);
  ASSERT_EQ(sh_a100.Signature(), sh_v100.Signature());

  SynthesisCache cache;
  const core::SynthesisOptions options;
  SynthesisCacheStats first;
  cache.GetOrSynthesize(sh_a100, options, &first, /*tenant=*/0);
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.cross_tenant_hits, 0);

  SynthesisCacheStats second;
  const auto served =
      cache.GetOrSynthesize(sh_v100, options, &second, /*tenant=*/1);
  EXPECT_EQ(second.hits, 1);
  EXPECT_EQ(second.cross_tenant_hits, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().cross_tenant_hits, 1);
  // The shared entry is exactly what the second tenant would have
  // synthesized itself.
  const auto fresh = core::SynthesizePrograms(sh_v100, options);
  ASSERT_EQ(served->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(served->programs[i], fresh.programs[i]);
  }

  // Same tenant re-reading its own entry is NOT cross-tenant...
  SynthesisCacheStats own;
  cache.GetOrSynthesize(sh_a100, options, &own, /*tenant=*/0);
  EXPECT_EQ(own.hits, 1);
  EXPECT_EQ(own.cross_tenant_hits, 0);
  // ...and untagged lookups never are.
  SynthesisCacheStats untagged;
  cache.GetOrSynthesize(sh_a100, options, &untagged);
  EXPECT_EQ(untagged.hits, 1);
  EXPECT_EQ(untagged.cross_tenant_hits, 0);
  EXPECT_EQ(cache.stats().cross_tenant_hits, 1);
}

TEST(SynthesisCache, DiskPreloadedEntriesAreNeverCrossTenant) {
  SynthesisCache donor;
  const core::SynthesisOptions options;
  donor.GetOrSynthesize(IsomorphicA(), options, nullptr, /*tenant=*/7);

  SynthesisCache warmed;
  warmed.Preload(donor.Snapshot());
  SynthesisCacheStats counted;
  warmed.GetOrSynthesize(IsomorphicA(), options, &counted, /*tenant=*/3);
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(counted.disk_hits, 1);
  // Disk entries belong to no tenant: the cross-run reuse is the disk_hits
  // figure, not cross-tenant sharing.
  EXPECT_EQ(counted.cross_tenant_hits, 0);
}

// Regression: the in-flight dedup must never strand waiters behind a
// synthesis that died. The owner withdraws its announcement and fires their
// continuations, so each blocked GetOrSynthesize retries, finds neither
// entry nor flight, and synthesizes for itself — a dead owner costs a
// retry, never a hang.
TEST(SynthesisCache, DeadOwnerNeverParksItsWaitersForever) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> waiter_launched{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner dies
    owner_inside.store(true);
    // Hold the flight open until the waiter is waiting behind it, then die.
    for (int i = 0; i < 500 && !waiter_launched.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("injected owner death");
  });

  std::thread owner([&] {
    EXPECT_THROW(cache.GetOrSynthesize(IsomorphicA(), options),
                 std::runtime_error);
  });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Same signature: the waiter defers behind the owner's in-flight record.
  std::shared_ptr<const core::SynthesisResult> served;
  std::thread waiter(
      [&] { served = cache.GetOrSynthesize(IsomorphicB(), options); });
  waiter_launched.store(true);
  owner.join();
  waiter.join();

  // The waiter re-dispatched: its own (second) synthesis succeeded and
  // published; the owner's death left no entry and no miss behind.
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  const auto fresh = core::SynthesizePrograms(IsomorphicB(), options);
  ASSERT_EQ(served->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(served->programs[i], fresh.programs[i]);
  }
}

// ISSUE 7: a *cancelled* waiter interrupts its wait instead of sitting out
// the owner's synthesis — and its departure (releasing the eviction
// reservation it held) leaves the flight fully intact for everyone else.
TEST(SynthesisCache, CancelledWaiterUnwindsWithoutDisturbingTheFlight) {
  SynthesisCache cache;
  const core::SynthesisOptions plain;
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> release_owner{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner stalls
    owner_inside.store(true);
    while (!release_owner.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread owner([&] { cache.GetOrSynthesize(IsomorphicA(), plain); });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CancelSource source;
  core::SynthesisOptions cancellable = plain;
  cancellable.cancel = source.token();
  std::thread waiter([&] {
    EXPECT_THROW(cache.GetOrSynthesize(IsomorphicB(), cancellable),
                 CancelledError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // let it wait
  source.Cancel();
  waiter.join();  // returns promptly: the polling wait observed the cancel
  release_owner.store(true);
  owner.join();

  // The owner finished normally and its entry serves later queries.
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  SynthesisCacheStats counted;
  cache.GetOrSynthesize(IsomorphicB(), plain, &counted);
  EXPECT_EQ(counted.hits, 1);
}

// ISSUE 8 regression: the cancellable wait used to be a 5 ms poll loop, so
// a cancelled waiter sat out up to a full poll period (and the server's
// drain paid it per waiter). The wait is now a condition variable woken by
// the owner's completion (through the lookup's continuation) and by the
// waiter's own CancelToken, so the cancel-to-wake latency is
// scheduler-bound — microseconds, not milliseconds. One trial measures that
// latency; the *median* of five
// trials must come in well under the old poll period. (The median is the
// discriminator: a reintroduced 5 ms poll wakes uniformly within (0, 5] ms,
// whose median is ~2.5 ms, while staying robust against a couple of
// scheduler hiccups inflating individual trials.)
double CancelWakeLatencyMsOnce() {
  SynthesisCache cache;
  const core::SynthesisOptions plain;
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> release_owner{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner stalls
    owner_inside.store(true);
    while (!release_owner.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread owner([&] { cache.GetOrSynthesize(IsomorphicA(), plain); });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CancelSource source;
  core::SynthesisOptions cancellable = plain;
  cancellable.cancel = source.token();
  std::chrono::steady_clock::time_point woke_at;
  std::thread waiter([&] {
    try {
      cache.GetOrSynthesize(IsomorphicB(), cancellable);
      ADD_FAILURE() << "waiter completed despite the cancel";
    } catch (const CancelledError&) {
    }
    woke_at = std::chrono::steady_clock::now();
  });
  // Let the waiter defer behind the owner's flight before cancelling.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto cancelled_at = std::chrono::steady_clock::now();
  source.Cancel();
  waiter.join();
  release_owner.store(true);
  owner.join();
  return std::chrono::duration<double, std::milli>(woke_at - cancelled_at)
      .count();
}

TEST(SynthesisCache, CancelledWaiterWakesWellUnderTheOldPollPeriod) {
  std::vector<double> latencies_ms;
  for (int trial = 0; trial < 5; ++trial) {
    latencies_ms.push_back(CancelWakeLatencyMsOnce());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double median_ms = latencies_ms[latencies_ms.size() / 2];
  EXPECT_LT(median_ms, 2.0) << "cancel-to-wake median " << median_ms
                            << " ms — the cv wake-up has regressed toward "
                               "the old 5 ms poll";
}

// The non-blocking lookup surface. TryLookup never blocks — it
// either serves (kReady), claims ownership (kOwned), or registers a
// continuation against the owner's flight (kInFlight) and returns.
TEST(SynthesisCache, TryLookupServesClaimsAndDefers) {
  SynthesisCache cache;
  const core::SynthesisOptions options;

  // Fresh signature: the caller becomes the owner...
  SynthesisCache::DeferredLookup owner_handle;
  auto owned = cache.TryLookup(IsomorphicA(), options, [] {}, &owner_handle);
  ASSERT_EQ(owned.state, SynthesisCache::TryLookupState::kOwned);
  EXPECT_FALSE(owner_handle.active());

  // ...and while its flight is open, another lookup on an isomorphic
  // hierarchy defers: continuation registered, no result yet.
  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), options, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);
  EXPECT_EQ(in_flight.result, nullptr);
  EXPECT_TRUE(deferred.active());
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(cache.stats().deferred_lookups, 1);

  // Owner completion publishes and fires the continuation synchronously.
  auto result = std::make_shared<const core::SynthesisResult>(
      core::SynthesizePrograms(IsomorphicA(), options));
  cache.CompleteOwned(IsomorphicA(), options, result);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The deferred caller retries: a plain hit now (and the retry releases
  // the eviction reservation its handle held).
  SynthesisCacheStats counted;
  const auto retried = cache.TryLookup(IsomorphicB(), options, [] {},
                                       &deferred, &counted);
  ASSERT_EQ(retried.state, SynthesisCache::TryLookupState::kReady);
  EXPECT_FALSE(deferred.active());
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(retried.result.get(), result.get());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SynthesisCache, OwnerDeathFiresContinuationsAndHandsOffOwnership) {
  SynthesisCache cache;
  const core::SynthesisOptions options;

  SynthesisCache::DeferredLookup owner_handle;
  auto owned = cache.TryLookup(IsomorphicA(), options, [] {}, &owner_handle);
  ASSERT_EQ(owned.state, SynthesisCache::TryLookupState::kOwned);

  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), options, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);

  // The owner's synthesis died: the flight dissolves, continuations fire,
  // and the deferred caller's retry finds no entry and no flight — it
  // becomes the new owner and synthesizes for itself.
  cache.AbandonOwned(IsomorphicA(), options);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 1);

  const auto retried =
      cache.TryLookup(IsomorphicB(), options, [] {}, &deferred);
  ASSERT_EQ(retried.state, SynthesisCache::TryLookupState::kOwned);
  auto result = std::make_shared<const core::SynthesisResult>(
      core::SynthesizePrograms(IsomorphicB(), options));
  cache.CompleteOwned(IsomorphicB(), options, result);
  EXPECT_EQ(cache.stats().misses, 1);  // the dead owner's claim counted none
  EXPECT_EQ(cache.size(), 1u);

  SynthesisCacheStats counted;
  cache.GetOrSynthesize(IsomorphicA(), options, &counted);
  EXPECT_EQ(counted.hits, 1);
}

// A deferred waiter holds an eviction reservation, and
// CancelDeferred must release it exactly like the cancelled blocking waiter
// above does — no leaked reservation pinning the
// base in a capped cache forever.
TEST(SynthesisCache, CancelDeferredReleasesTheEvictionReservation) {
  SynthesisCache cache(/*max_entries=*/1);
  const core::SynthesisOptions plain;
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> release_owner{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner stalls
    owner_inside.store(true);
    while (!release_owner.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread owner([&] { cache.GetOrSynthesize(IsomorphicA(), plain); });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), plain, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);
  EXPECT_TRUE(deferred.active());

  // Departure before the owner resolves: reservation released, continuation
  // deregistered — the owner's later completion must fire nothing.
  cache.CancelDeferred(&deferred);
  EXPECT_FALSE(deferred.active());
  release_owner.store(true);
  owner.join();
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 0);

  // With the reservation gone, the published entry is evictable again: a
  // second signature displaces it instead of overflowing the cap.
  cache.GetOrSynthesize(Different(), plain);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1);
}

// The blocking adapter rides the same non-blocking path as the pipeline: a
// GetOrSynthesize call behind a foreign flight defers exactly once, and the
// owner's completion fires exactly that one continuation.
TEST(SynthesisCache, BlockedAdapterCallDefersOnce) {
  SynthesisCache cache;
  const core::SynthesisOptions plain;
  std::atomic<bool> owner_inside{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner stalls
    owner_inside.store(true);
    // Hold the flight open until the waiter has deferred behind it.
    while (cache.stats().deferred_lookups == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread owner([&] { cache.GetOrSynthesize(IsomorphicA(), plain); });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SynthesisCacheStats counted;
  cache.GetOrSynthesize(IsomorphicB(), plain, &counted);
  owner.join();
  // The call's record accumulates across its retry: the deferral and the
  // hit that settled it.
  EXPECT_EQ(counted.deferred_lookups, 1);
  EXPECT_EQ(counted.hits, 1);
  EXPECT_EQ(cache.stats().deferred_lookups, 1);
  EXPECT_EQ(cache.stats().continuations_fired, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

// A cache plane that never lets the lookup through: every round answers
// retry-after at the 1 s ceiling.
class AlwaysRetryAfter : public RemoteCacheBackend {
 public:
  RemoteLookupResult Lookup(const std::string&, std::int64_t) override {
    RemoteLookupResult reply;
    reply.kind = RemoteLookupResult::Kind::kRetryAfter;
    reply.retry_after_ms = 1000;
    return reply;
  }
  bool Publish(const std::string&, const core::SynthesisResult&) override {
    return true;
  }
};

// Runs FetchRemoteOwned against AlwaysRetryAfter under `token` and returns
// how long it took to give up, in ms. `source` (when non-null) is cancelled
// 20 ms in.
double RetryAfterReturnMsOnce(CancelSource* source, const CancelToken& token) {
  SynthesisCache cache;
  cache.set_remote(std::make_shared<AlwaysRetryAfter>());
  core::SynthesisOptions options;
  options.cancel = token;
  SynthesisCache::DeferredLookup handle;
  EXPECT_EQ(cache.TryLookup(IsomorphicA(), options, [] {}, &handle).state,
            SynthesisCache::TryLookupState::kOwned);
  std::thread canceller([source] {
    if (source == nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(cache.FetchRemoteOwned(IsomorphicA(), options), nullptr);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  canceller.join();
  cache.AbandonOwned(IsomorphicA(), options);
  return ms;
}

// Regression: a retry-after round used to sleep its full retry_after_ms
// (up to 1 s) regardless of the request's token, so a cancelled,
// deadline-expired or drain-cancelled request held its pool thread that
// long. The wait now wakes on the cancel and ends at the token's deadline.
TEST(SynthesisCache, CancelInterruptsTheRemoteRetryAfterWait) {
  std::vector<double> latencies_ms;
  for (int trial = 0; trial < 5; ++trial) {
    CancelSource source;
    latencies_ms.push_back(RetryAfterReturnMsOnce(&source, source.token()));
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double median_ms = latencies_ms[latencies_ms.size() / 2];
  EXPECT_LT(median_ms, 50.0) << "cancel 20 ms in; FetchRemoteOwned returned "
                             << median_ms << " ms in (median)";

  CancelSource expiring;
  expiring.SetDeadlineAfter(std::chrono::milliseconds(20));
  EXPECT_LT(RetryAfterReturnMsOnce(nullptr, expiring.token()), 500.0)
      << "the retry-after wait outlived the token's 20 ms deadline";
}

TEST(SynthesisCache, ClearResetsEverything) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  cache.GetOrSynthesize(IsomorphicA(), options);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);
  cache.GetOrSynthesize(IsomorphicA(), options);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace p2::engine
