// The process-wide planning service (ISSUE 4): concurrent Submit()s share
// one synthesis cache, one lowering memo and one worker pool, their work
// items interleave on it, and yet every query's output is byte-identical to
// a serial run — at any service thread count and under any submission
// order. Two queries racing on one uncached signature synthesize it exactly
// once (in-flight dedup), asserted via the cache misses.
#include "engine/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "engine/report.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
}

PlannerServiceOptions ServiceOptions(int threads) {
  PlannerServiceOptions options;
  options.threads = threads;
  options.engine = FastOptions();
  return options;
}

struct Config {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
};

// Four configs of one 2-node A100 system (32 GPUs) whose placements share
// synthesis hierarchies within and across configs; RequestFor names the
// system.
std::vector<Config> Configs() {
  return {
      {{8, 2, 2}, {0}},
      {{8, 4}, {0}},
      {{4, 8}, {1}},
      {{16, 2}, {0}},
  };
}

PlanRequest RequestFor(const Config& config) {
  PlanRequest request;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.cluster = topology::MakeA100Cluster(2);
  return request;
}

TEST(PlannerService, ConcurrentSubmissionIsDeterministic) {
  const auto configs = Configs();

  // Reference: each config on its own cold, single-threaded service — the
  // fully serial path, unaffected by sharing of any kind.
  std::vector<std::string> reference;
  for (const auto& config : configs) {
    PlannerService service(ServiceOptions(1));
    reference.push_back(CanonicalResultText(service.Plan(RequestFor(config))));
  }

  std::mt19937 rng(20260729);
  // The distinct (levels, program) replays the configs need, as stored by
  // the first, serial round; every round's lowering memo must hold as many.
  std::size_t serial_memoized = 0;
  for (const int threads : {1, 4, 8}) {
    // Identity order plus two random submission orders per thread count:
    // neither scheduling nor submission order may leak into any result.
    for (int round = 0; round < 3; ++round) {
      std::vector<std::size_t> order(configs.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (round > 0) std::shuffle(order.begin(), order.end(), rng);

      PlannerService service(ServiceOptions(threads));
      std::vector<PlanHandle> futures(configs.size());
      // The first config goes in twice in a row, so two requests race on
      // the same placements' memo keys.
      PlanHandle duplicate;
      for (const std::size_t index : order) {
        futures[index] = service.Submit(RequestFor(configs[index]));
        if (index == order.front()) {
          duplicate = service.Submit(RequestFor(configs[index]));
        }
      }
      for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(CanonicalResultText(futures[i].get()), reference[i])
            << "config " << i << ", threads=" << threads
            << ", round=" << round;
      }
      EXPECT_EQ(CanonicalResultText(duplicate.get()), reference[order.front()])
          << "duplicate, threads=" << threads << ", round=" << round;

      const std::size_t memoized = service.lowering_memo().memoized_programs();
      if (threads == 1 && round == 0) serial_memoized = memoized;
      EXPECT_GT(memoized, 0u);
      EXPECT_EQ(memoized, serial_memoized)
          << "threads=" << threads << ", round=" << round;
    }
  }
}

TEST(PlannerService, RacingQueriesSynthesizeEachSignatureExactlyOnce) {
  // Repeat the race: every round, four copies of the same uncached query
  // land on a fresh 4-thread service at once. Whoever gets to a signature
  // first synthesizes it; the in-flight dedup makes everyone else wait and
  // then serves them — so across ALL requests each unique signature is
  // missed exactly once, deterministically, no matter how the race goes.
  for (int round = 0; round < 5; ++round) {
    PlannerService service(ServiceOptions(4));
    // 3 placements, 2 unique signatures.
    const PlanRequest request = RequestFor(Config{{8, 2, 2}, {0}});
    std::vector<PlanHandle> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(service.Submit(request));

    std::int64_t per_request_misses = 0;
    std::int64_t per_request_hits = 0;
    for (auto& future : futures) {
      const auto result = future.get();
      EXPECT_EQ(result.pipeline.unique_hierarchies, 2);
      per_request_misses += result.pipeline.cache.misses;
      per_request_hits += result.pipeline.cache.hits;
    }
    const auto stats = service.stats();
    // Synthesis ran exactly once per unique signature across the race.
    EXPECT_EQ(stats.cache.misses, 2) << "round " << round;
    // The per-request attribution varies with the race, but sums match the
    // service totals: 4 requests x 3 placements = 12 lookups.
    EXPECT_EQ(per_request_misses, stats.cache.misses) << "round " << round;
    EXPECT_EQ(per_request_hits, stats.cache.hits) << "round " << round;
    EXPECT_EQ(per_request_misses + per_request_hits, 12) << "round " << round;
    EXPECT_EQ(stats.requests, 4);
  }
}

// ---- deferral-aware scheduler (ISSUE 9) -----------------------------------

// The deferral determinism suite: duplicated configs (so signatures overlap
// across requests) in randomized submission orders on 1/4/8 threads, with a
// fault hook stalling every synthesis frontier layer ~1ms — wide in-flight
// windows, so requests constantly observe each other's open flights and the
// deferred queue is actually exercised. Every output must stay
// byte-identical to the serial reference, and every deferral must have been
// resumed by exactly one fired continuation.
TEST(PlannerService, DeferralSchedulingIsDeterministicUnderStalledOwners) {
  const auto configs = Configs();

  std::vector<std::string> reference;
  for (const auto& config : configs) {
    PlannerService service(ServiceOptions(1));
    reference.push_back(CanonicalResultText(service.Plan(RequestFor(config))));
  }

  FaultScope stall([](std::string_view point) {
    if (point == "synth.layer") {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Each config twice per round: duplicated signatures guarantee in-flight
  // overlap somewhere in every threaded round.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  std::mt19937 rng(20260808);
  for (const int threads : {1, 4, 8}) {
    for (int round = 0; round < 3; ++round) {
      if (round > 0) std::shuffle(order.begin(), order.end(), rng);
      PlannerService service(ServiceOptions(threads));
      std::vector<PlanHandle> futures;
      futures.reserve(order.size());
      for (const std::size_t index : order) {
        futures.push_back(service.Submit(RequestFor(configs[index])));
      }
      for (std::size_t f = 0; f < futures.size(); ++f) {
        EXPECT_EQ(CanonicalResultText(futures[f].get()), reference[order[f]])
            << "config " << order[f] << ", threads=" << threads
            << ", round=" << round;
      }
      const auto stats = service.stats();
      EXPECT_EQ(stats.cache.continuations_fired, stats.cache.deferred_lookups)
          << "threads=" << threads << ", round=" << round;
    }
  }
}

// An inline (threads=1) service runs each Plan() on its caller's thread, so
// concurrent callers do overlap on open flights: a caller deferring behind
// another caller's synthesis must be resumed by that caller's continuation,
// not return early or hang. Four callers plan duplicated configs at once
// under stalled owners; every output must match the serial reference and
// each unique signature must be synthesized exactly once.
TEST(PlannerService, InlineServiceServesConcurrentCallers) {
  const auto configs = Configs();

  std::vector<std::string> reference;
  std::int64_t unique_signatures = 0;
  {
    PlannerService serial(ServiceOptions(1));
    for (const auto& config : configs) {
      reference.push_back(CanonicalResultText(serial.Plan(RequestFor(config))));
    }
    unique_signatures = serial.stats().cache.misses;
  }

  FaultScope stall([](std::string_view point) {
    if (point == "synth.layer") {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  PlannerService service(ServiceOptions(1));
  constexpr int kCallers = 4;
  std::vector<std::vector<std::string>> outputs(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Each caller walks the configs from a different starting point, so
      // callers race on every signature from different directions.
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const std::size_t index = (k + static_cast<std::size_t>(c)) %
                                  configs.size();
        outputs[static_cast<std::size_t>(c)].push_back(
            CanonicalResultText(service.Plan(RequestFor(configs[index]))));
      }
    });
  }
  for (auto& caller : callers) caller.join();

  for (int c = 0; c < kCallers; ++c) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const std::size_t index = (k + static_cast<std::size_t>(c)) %
                                configs.size();
      EXPECT_EQ(outputs[static_cast<std::size_t>(c)][k], reference[index])
          << "caller " << c << ", config " << index;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache.misses, unique_signatures);
  EXPECT_EQ(stats.cache.continuations_fired, stats.cache.deferred_lookups);
  EXPECT_EQ(stats.requests, kCallers * static_cast<std::int64_t>(configs.size()));
}

// A deterministic deferral window: the first synthesis is held open until
// the test has *observed* other requests deferring behind it. Proves the
// non-blocking path actually engages (deferred_lookups > 0) and resolves
// without perturbing any output.
TEST(PlannerService, DeferredRequestsResolveOnOwnerCompletion) {
  // 3 placements, 2 unique signatures.
  const PlanRequest request = RequestFor(Config{{8, 2, 2}, {0}});

  std::string reference;
  {
    PlannerService serial(ServiceOptions(1));
    reference = CanonicalResultText(serial.Plan(request));
  }

  PlannerService service(ServiceOptions(4));
  std::atomic<bool> armed{true};
  std::atomic<bool> release{false};
  FaultScope gate([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (!armed.exchange(false)) return;  // only the first owner stalls
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<PlanHandle> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(service.Submit(request));
  // Wait until at least one racer has registered a continuation against the
  // stalled owner's flight, then let the owner finish. The timeout bounds
  // the test if deferral never engages (that itself fails the assertion
  // below, with the futures still drained).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (service.stats().cache.deferred_lookups == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);

  for (auto& future : futures) {
    EXPECT_EQ(CanonicalResultText(future.get()), reference);
  }
  const auto stats = service.stats();
  EXPECT_GT(stats.cache.deferred_lookups, 0)
      << "no racer ever deferred behind the held-open flight";
  EXPECT_EQ(stats.cache.continuations_fired, stats.cache.deferred_lookups);
  EXPECT_EQ(stats.cache.misses, 2);  // each signature synthesized once
  EXPECT_EQ(stats.latency_count, 4);
  EXPECT_GT(stats.latency_p99_seconds, 0.0);
  EXPECT_GE(stats.latency_p99_seconds, stats.latency_p50_seconds);
}

TEST(PlannerService, SubmitIsAsynchronousAndFuturesCarryResults) {
  PlannerService service(ServiceOptions(2));
  auto future = service.Submit(RequestFor(Config{{8, 4}, {0}}));
  const auto result = future.get();
  EXPECT_GT(result.placements.size(), 0u);
  EXPECT_EQ(result.pipeline.threads, 2);
}

TEST(PlannerService, FuturesPropagateEvaluationErrors) {
  for (const int threads : {1, 2}) {
    PlannerService service(ServiceOptions(threads));
    // EnumeratePlacements rejects axes < 1.
    auto future = service.Submit(RequestFor(Config{{0}, {0}}));
    EXPECT_THROW(future.get(), std::invalid_argument) << threads;
    // The service survives a failed request and keeps serving.
    EXPECT_GT(service.Plan(RequestFor(Config{{8, 4}, {0}})).placements.size(),
              0u);
  }
}

TEST(PlannerService, DestructorDrainsOutstandingRequests) {
  PlanHandle future;
  {
    PlannerService service(ServiceOptions(2));
    future = service.Submit(RequestFor(Configs()[0]));
    // The service goes out of scope with the request possibly in flight;
    // its destructor must drain it, not abandon or crash.
  }
  EXPECT_GT(future.get().placements.size(), 0u);
}

// ---- multi-tenant service (ISSUE 5) ---------------------------------------

// Three distinct machines. The A100(2) and V100(4) clusters both hold 32
// devices, so the same configs run on both; V100(2) gets its own smaller
// configs. A100/V100 reduction factorizations overlap (e.g. an 8-wide axis
// split (2,4) or (1,8)), which is the cross-tenant sharing the shared cache
// must mine.
struct TenantConfig {
  topology::Cluster cluster;
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
};

std::vector<TenantConfig> TenantConfigs() {
  const auto a100_2 = topology::MakeA100Cluster(2);
  const auto v100_4 = topology::MakeV100Cluster(4);
  const auto v100_2 = topology::MakeV100Cluster(2);
  return {
      {a100_2, {8, 2, 2}, {0}}, {a100_2, {8, 4}, {0}},
      {v100_4, {8, 2, 2}, {0}}, {v100_4, {8, 4}, {0}},
      {v100_2, {8, 2}, {0}},    {v100_2, {4, 4}, {1}},
  };
}

PlanRequest RequestFor(const TenantConfig& config) {
  PlanRequest request;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.cluster = config.cluster;
  return request;
}

TEST(MultiTenantService, InterleavedClustersMatchDedicatedServices) {
  const auto configs = TenantConfigs();

  // Reference: every config on its own dedicated single-cluster,
  // single-threaded service — the strongest possible isolation.
  std::vector<std::string> reference;
  for (const auto& config : configs) {
    PlannerService service(ServiceOptions(1));
    reference.push_back(CanonicalResultText(service.Plan(RequestFor(config))));
  }

  std::mt19937 rng(20260729);
  for (const int threads : {1, 4, 8}) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::size_t> order(configs.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (round > 0) std::shuffle(order.begin(), order.end(), rng);

      // One multi-tenant service, requests from three clusters interleaved
      // in randomized submission order: neither the scheduling, nor the
      // order, nor the cross-tenant cache sharing may leak into any result.
      PlannerServiceOptions options;
      options.threads = threads;
      options.engine = FastOptions();
      PlannerService service(options);
      std::vector<PlanHandle> futures(configs.size());
      for (const std::size_t index : order) {
        futures[index] = service.Submit(RequestFor(configs[index]));
      }
      for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(CanonicalResultText(futures[i].get()), reference[i])
            << "config " << i << ", threads=" << threads
            << ", round=" << round;
      }
      // Three tenants, each engine constructed exactly once.
      const auto stats = service.stats();
      EXPECT_EQ(stats.tenants.size(), 3u);
      EXPECT_EQ(stats.engines_constructed, 3);
    }
  }
}

TEST(MultiTenantService, RacingRequestsConstructEachEngineOnce) {
  // Every round, four requests for the same *unregistered* cluster land on
  // a fresh 4-thread service at once: whoever arrives first builds the
  // engine, everyone else blocks on the in-flight construction — one engine
  // total, never four.
  for (int round = 0; round < 5; ++round) {
    PlannerServiceOptions options;
    options.threads = 4;
    options.engine = FastOptions();
    PlannerService service(options);
    PlanRequest request;
    request.axes = {8, 4};
    request.reduction_axes = {0};
    request.cluster = topology::MakeA100Cluster(2);
    std::vector<PlanHandle> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(service.Submit(request));
    for (auto& future : futures) {
      EXPECT_GT(future.get().placements.size(), 0u);
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.engines_constructed, 1) << "round " << round;
    ASSERT_EQ(stats.tenants.size(), 1u);
    EXPECT_EQ(stats.tenants[0].requests, 4);
  }
}

TEST(MultiTenantService, SharedCacheDedupsAcrossTenants) {
  // Both tenants pose the same synthesis problems (equal reduction
  // factorizations on equally-deep hierarchies), so the second tenant's
  // requests are served from the first's entries — cross-tenant hits, and
  // strictly fewer misses than two dedicated services would pay.
  PlannerServiceOptions options;
  options.threads = 1;  // serial: the attribution below is deterministic
  options.engine = FastOptions();
  PlannerService service(options);

  PlanRequest first;
  first.axes = {8, 4};
  first.reduction_axes = {0};
  first.cluster = topology::MakeA100Cluster(2);
  PlanRequest second = first;
  second.cluster = topology::MakeV100Cluster(4);

  const auto a = service.Plan(std::move(first));
  const auto b = service.Plan(std::move(second));
  EXPECT_EQ(a.pipeline.cache.cross_tenant_hits, 0);
  EXPECT_GT(b.pipeline.cache.cross_tenant_hits, 0);
  EXPECT_LT(b.pipeline.cache.misses, a.pipeline.cache.misses)
      << "the second tenant must reuse the first tenant's synthesis";

  const auto stats = service.stats();
  EXPECT_EQ(stats.cache.cross_tenant_hits, b.pipeline.cache.cross_tenant_hits);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].cache.cross_tenant_hits, 0);
  EXPECT_EQ(stats.tenants[1].cache.cross_tenant_hits,
            b.pipeline.cache.cross_tenant_hits);
  EXPECT_EQ(stats.tenants[0].requests, 1);
  EXPECT_EQ(stats.tenants[1].requests, 1);
  // Sums across tenants match the service-wide cache totals.
  EXPECT_EQ(stats.tenants[0].cache.hits + stats.tenants[1].cache.hits,
            stats.cache.hits);
  EXPECT_EQ(stats.tenants[0].cache.misses + stats.tenants[1].cache.misses,
            stats.cache.misses);
}

// Every cache event is counted on exactly one request: the lookup that
// caused it, or the owner whose publish forced the eviction or fired the
// continuation. So once every request has completed, the per-request
// records, the tenant rows and the service totals agree on every integer
// counter. Three clusters in randomized submission order, with a cap small
// enough to evict and stalled owners so requests defer behind each other.
TEST(MultiTenantService, CacheCountersAgreeAtEveryScope) {
  const auto configs = TenantConfigs();
  FaultScope stall([](std::string_view point) {
    if (point == "synth.layer") {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  std::mt19937 rng(20261017);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    PlannerServiceOptions options;
    options.threads = 4;
    options.engine = FastOptions();
    options.cache_max_entries = 2;
    PlannerService service(options);
    std::vector<PlanHandle> handles;
    for (const std::size_t index : order) {
      handles.push_back(service.Submit(RequestFor(configs[index])));
    }
    SynthesisCacheStats per_request;
    for (auto& handle : handles) per_request += handle.get().pipeline.cache;

    const auto stats = service.stats();
    ASSERT_EQ(stats.tenants.size(), 3u);
    SynthesisCacheStats per_tenant;
    for (const TenantStats& tenant : stats.tenants) per_tenant += tenant.cache;
    EXPECT_GT(stats.cache.evictions, 0) << "round " << round;
    SynthesisCacheStats::ForEachField([&](const char* name, auto member) {
      using Field = std::remove_cvref_t<decltype(stats.cache.*member)>;
      if constexpr (std::is_integral_v<Field>) {
        EXPECT_EQ(per_request.*member, stats.cache.*member)
            << name << ", round " << round;
        EXPECT_EQ(per_tenant.*member, stats.cache.*member)
            << name << ", round " << round;
      }
    });
  }
}

TEST(MultiTenantService, RequestWithoutClusterFailsAtSubmit) {
  for (const int threads : {1, 2}) {
    PlannerService service(ServiceOptions(threads));
    PlanRequest request = RequestFor(Config{{8, 4}, {0}});
    request.cluster.reset();
    PlanHandle handle = service.Submit(std::move(request));
    // Failed at Submit: the handle is already ready, and no tenant was
    // registered, no engine built and no request admitted or timed.
    ASSERT_EQ(handle.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << threads;
    EXPECT_THROW(handle.get(), std::invalid_argument) << threads;
    auto stats = service.stats();
    EXPECT_TRUE(stats.tenants.empty()) << threads;
    EXPECT_EQ(stats.engines_constructed, 0) << threads;
    EXPECT_EQ(stats.peak_in_flight, 0) << threads;
    EXPECT_EQ(stats.latency_count, 0) << threads;
    EXPECT_EQ(stats.rejected, 0) << threads;
    // The service survives and serves requests that do name a cluster.
    EXPECT_GT(service.Plan(RequestFor(Config{{8, 4}, {0}})).placements.size(),
              0u);
    stats = service.stats();
    ASSERT_EQ(stats.tenants.size(), 1u) << threads;
    EXPECT_EQ(stats.tenants[0].requests, 1) << threads;
    EXPECT_EQ(stats.engines_constructed, 1) << threads;
  }
}

TEST(MultiTenantService, RingNodesDifferingOnlyInPcieGetTheirOwnEngines) {
  // Cross-node traffic of an NVLink ring node crosses its PCIe switch even
  // at pcie_domains == 0, so the PCIe bandwidth changes every measurement:
  // planning the slow machine after the fast one on one service must not
  // reuse the fast machine's engine.
  topology::Cluster fast = topology::MakeV100Cluster(2);
  fast.node.pcie_domains = 0;
  fast.node.pcie_bandwidth = 32.0;
  topology::Cluster slow = fast;
  slow.node.pcie_bandwidth = 1.0;
  const TenantConfig fast_config{fast, {8, 2}, {0}};
  const TenantConfig slow_config{slow, {8, 2}, {0}};

  const PlannerServiceOptions options = ServiceOptions(1);
  PlannerService dedicated(options);
  const std::string expected =
      CanonicalResultText(dedicated.Plan(RequestFor(slow_config)));

  PlannerService shared(options);
  shared.Plan(RequestFor(fast_config));
  EXPECT_EQ(CanonicalResultText(shared.Plan(RequestFor(slow_config))),
            expected);
  EXPECT_EQ(shared.stats().engines_constructed, 2);
}

TEST(MultiTenantService, EngineForRegistersAndMemoizes) {
  PlannerServiceOptions options;
  options.engine = FastOptions();
  PlannerService service(options);
  const auto cluster = topology::MakeA100Cluster(2);
  const Engine& first = service.EngineFor(cluster);
  const Engine& second = service.EngineFor(cluster);
  EXPECT_EQ(&first, &second);  // one engine per fingerprint
  EXPECT_EQ(first.cluster().Fingerprint(), cluster.Fingerprint());
  EXPECT_EQ(service.stats().engines_constructed, 1);
}

TEST(PlannerService, StatsAggregateOncePerService) {
  PlannerService service(ServiceOptions(1));
  const auto first = service.Plan(RequestFor(Config{{8, 2, 2}, {0}}));
  const auto second = service.Plan(RequestFor(Config{{8, 2, 2}, {0}}));
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache.misses,
            first.pipeline.cache.misses + second.pipeline.cache.misses);
  EXPECT_EQ(stats.cache.hits,
            first.pipeline.cache.hits + second.pipeline.cache.hits);
  EXPECT_EQ(stats.cache_entries_loaded, 0);  // no cache file configured
  EXPECT_EQ(stats.threads, 1);
}

}  // namespace
}  // namespace p2::engine
