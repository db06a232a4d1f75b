// Production hardening of the PlannerService (ISSUE 7), proven under
// injected chaos: deadlines and cooperative cancellation abort exactly the
// requests they target (with the right error from the service's abort
// taxonomy), admission control fails fast instead of queuing silently,
// BeginDrain stops intake and settles in-flight work, and none of it ever
// perturbs a surviving request — survivors' outputs stay byte-identical to
// dedicated serial runs at any thread count and under any submission order.
//
// The chaos itself comes from common/fault_injection.h: hooks stall or kill
// library code at the checkpoints the planning stack plants (synthesis
// layers, pipeline stages, cache-store I/O), which is how a request is held
// in flight long enough to be cancelled deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/report.h"
#include "engine/service.h"
#include "test_temp_path.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

using namespace std::chrono_literals;

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
}

PlannerServiceOptions ServiceOptions(int threads = 1) {
  PlannerServiceOptions options;
  options.threads = threads;
  options.engine = FastOptions();
  return options;
}

struct Config {
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
};

std::vector<Config> Configs() {
  return {
      {{8, 2, 2}, {0}},
      {{8, 4}, {0}},
      {{4, 8}, {1}},
      {{16, 2}, {0}},
  };
}

// `config` on a 2-node A100 system.
PlanRequest RequestFor(const Config& config) {
  PlanRequest request;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.cluster = topology::MakeA100Cluster(2);
  return request;
}

/// A hook that parks the first `pipeline.synthesize` checkpoint it sees
/// until the test releases it — the standard way to hold one request in
/// flight at a known point. `entered` flips once the request is parked.
class StallGate {
 public:
  FaultInjector::Hook Hook() {
    return [this](std::string_view point) {
      if (point != "pipeline.synthesize") return;
      if (armed_.exchange(false)) {
        entered_.store(true);
        while (!release_.load()) std::this_thread::sleep_for(1ms);
      }
    };
  }
  void AwaitEntered() const {
    while (!entered_.load()) std::this_thread::sleep_for(1ms);
  }
  void Release() { release_.store(true); }

 private:
  std::atomic<bool> armed_{true};  ///< only the first checkpoint stalls
  std::atomic<bool> entered_{false};
  std::atomic<bool> release_{false};
};

TEST(ServiceFaults, DeadlineExpiresMidFlight) {
  PlannerService service(ServiceOptions(2));
  // Every synthesis stage dawdles past the deadline; whichever checkpoint
  // the request reaches next classifies the abort as deadline-exceeded.
  FaultScope scope([](std::string_view point) {
    if (point == "pipeline.synthesize") std::this_thread::sleep_for(50ms);
  });
  PlanRequest request = RequestFor(Configs()[0]);
  request.deadline = 5ms;
  auto handle = service.Submit(std::move(request));
  EXPECT_THROW(handle.get(), PlanDeadlineExceeded);

  const auto stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.cancelled, 0);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].deadline_exceeded, 1);

  // The slot was released and the service keeps serving.
  EXPECT_GT(service.Plan(RequestFor(Configs()[1])).placements.size(), 0u);
}

TEST(ServiceFaults, CancelAbortsMidFlightAndReleasesItsSlot) {
  PlannerService service(ServiceOptions(2));
  StallGate gate;
  FaultScope scope(gate.Hook());

  auto handle = service.Submit(RequestFor(Configs()[0]));
  gate.AwaitEntered();  // the request is provably in flight...
  handle.Cancel();      // ...when the cancel lands
  gate.Release();
  EXPECT_THROW(handle.get(), PlanCancelled);

  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.peak_in_flight, 1);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].cancelled, 1);

  // Cancellation released the in-flight slot: later requests run normally.
  EXPECT_GT(service.Plan(RequestFor(Configs()[1])).placements.size(), 0u);
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(ServiceFaults, CancellingAFinishedRequestIsANoOp) {
  PlannerService service(ServiceOptions(2));
  auto handle = service.Submit(RequestFor(Configs()[0]));
  handle.wait();
  handle.Cancel();  // completion beats abortion
  EXPECT_GT(handle.get().placements.size(), 0u);
  EXPECT_EQ(service.stats().cancelled, 0);
}

TEST(ServiceFaults, AdmissionRejectsBeyondTheServiceCap) {
  PlannerServiceOptions options = ServiceOptions();
  options.threads = 2;
  options.max_in_flight = 1;
  PlannerService service(options);
  StallGate gate;
  FaultScope scope(gate.Hook());

  auto first = service.Submit(RequestFor(Configs()[0]));
  auto second = service.Submit(RequestFor(Configs()[1]));
  EXPECT_THROW(second.get(), PlanRejected);  // fail fast, no queuing

  gate.Release();
  EXPECT_GT(first.get().placements.size(), 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.peak_in_flight, 1);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1);
  EXPECT_EQ(stats.tenants[0].peak_in_flight, 1);

  // The slot freed: the same request is admitted now.
  EXPECT_GT(service.Plan(RequestFor(Configs()[1])).placements.size(), 0u);
  EXPECT_EQ(service.stats().rejected, 1);
}

TEST(ServiceFaults, AdmissionRejectsBeyondThePerTenantCap) {
  PlannerServiceOptions options = ServiceOptions();
  options.threads = 2;
  options.max_in_flight_per_tenant = 1;
  PlannerService service(options);
  StallGate gate;
  FaultScope scope(gate.Hook());

  auto first = service.Submit(RequestFor(Configs()[0]));
  auto second = service.Submit(RequestFor(Configs()[1]));
  EXPECT_THROW(second.get(), PlanRejected);
  gate.Release();
  EXPECT_GT(first.get().placements.size(), 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 1);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1);
}

TEST(ServiceFaults, DrainWaitsForInFlightWorkThenRejectsNewSubmissions) {
  PlannerService service(ServiceOptions(2));
  auto handle = service.Submit(RequestFor(Configs()[0]));
  service.BeginDrain();  // no grace: waits for the request
  EXPECT_TRUE(service.draining());
  EXPECT_GT(handle.get().placements.size(), 0u);

  auto late = service.Submit(RequestFor(Configs()[1]));
  EXPECT_THROW(late.get(), PlanRejected);
  EXPECT_EQ(service.stats().rejected, 1);

  service.BeginDrain();  // idempotent
  EXPECT_TRUE(service.draining());
}

TEST(ServiceFaults, DrainGraceCancelsStragglers) {
  PlannerService service(ServiceOptions(2));
  std::atomic<bool> parked{false};
  // The straggler stalls until it sees the drain begin, lingers long enough
  // for the zero-grace cancel to land, then runs into its next checkpoint.
  FaultScope scope([&](std::string_view point) {
    if (point != "pipeline.synthesize") return;
    parked.store(true);
    while (!service.draining()) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(50ms);
  });
  auto handle = service.Submit(RequestFor(Configs()[0]));
  while (!parked.load()) std::this_thread::sleep_for(1ms);
  service.BeginDrain(0ms);  // grace expires immediately: cancel stragglers
  EXPECT_THROW(handle.get(), PlanCancelled);
  EXPECT_EQ(service.stats().cancelled, 1);
}

// The tentpole's acceptance gate: a chaos tenant randomly cancelling
// requests mid-flight never perturbs the survivors. At 1, 4 and 8 threads
// and under randomized submission order, every request that completes
// returns byte-for-byte the result of a dedicated serial run — and after
// the chaos the shared cache still serves correct results.
TEST(ServiceFaults, RandomCancellationNeverPerturbsSurvivors) {
  const auto configs = Configs();

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
      std::vector<bool> storm(configs.size());
      for (std::size_t i = 0; i < storm.size(); ++i) storm[i] = rng() % 2 == 0;

      PlannerService service(ServiceOptions(threads));
      std::vector<PlanHandle> handles(configs.size());
      for (const std::size_t index : order) {
        handles[index] = service.Submit(RequestFor(configs[index]));
      }
      // Cancel the storm set while the rest are (possibly) in flight.
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (storm[i]) handles[i].Cancel();
      }
      for (std::size_t i = 0; i < handles.size(); ++i) {
        try {
          // Survivors — and cancelled requests that won the race and
          // completed anyway — must match the serial reference exactly.
          EXPECT_EQ(CanonicalResultText(handles[i].get()), reference[i])
              << "config " << i << ", threads=" << threads
              << ", round=" << round;
        } catch (const PlanCancelled&) {
          EXPECT_TRUE(storm[i])
              << "request " << i << " aborted without being cancelled"
              << ", threads=" << threads << ", round=" << round;
        }
      }
      // Post-chaos the cache is sane: a fresh request on the same service
      // still reproduces the serial result.
      EXPECT_EQ(CanonicalResultText(service.Plan(RequestFor(configs[0]))),
                reference[0])
          << "threads=" << threads << ", round=" << round;
    }
  }
}

TEST(ServiceFaults, InjectedSaveFailureIsReportedNotThrown) {
  const std::string path =
      p2::test::TempPath("p2_service_faults_test", "save_fault");
  PlannerServiceOptions options = ServiceOptions();
  options.cache_file = path;
  PlannerService service(options);
  EXPECT_GT(service.Plan(RequestFor(Configs()[0])).placements.size(), 0u);
  {
    FaultScope scope([](std::string_view point) {
      if (point == "cache_store.save") throw std::runtime_error("disk died");
    });
    std::string error;
    EXPECT_FALSE(service.SaveCache(&error));
    EXPECT_NE(error.find("injected fault"), std::string::npos) << error;
  }
  // With the fault gone the same save succeeds (and the destructor's
  // drain-time save will too).
  std::string error;
  EXPECT_TRUE(service.SaveCache(&error)) << error;
}

TEST(ServiceFaults, DrainTimeSaveFailureSurfacesInStats) {
  // ISSUE 8: BeginDrain discards SaveCache's error return — nobody is left
  // to read it on the destructor path, and a server's operator would never
  // learn the cache stopped persisting. Every save failure is now recorded
  // in the service stats (counter + last-error detail), where the /stats
  // endpoint and the report renderer surface it.
  const std::string path =
      p2::test::TempPath("p2_service_faults_test", "drain_save_fault");
  PlannerServiceOptions options = ServiceOptions();
  options.cache_file = path;
  PlannerService service(options);
  EXPECT_GT(service.Plan(RequestFor(Configs()[0])).placements.size(), 0u);
  {
    FaultScope scope([](std::string_view point) {
      if (point == "cache_store.save") throw std::runtime_error("disk died");
    });
    service.BeginDrain();  // the drain-time save fails silently...
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.save_errors, 1);  // ...but not unaccountably
  EXPECT_NE(stats.last_save_error.find("injected fault"), std::string::npos)
      << stats.last_save_error;
  // The failure is rendered for humans too, not just exported.
  const std::string report = RenderServiceStats(stats);
  EXPECT_NE(report.find("cache save errors: 1"), std::string::npos) << report;
}

TEST(ServiceFaults, InjectedLoadFailureFallsBackToAColdCache) {
  const std::string path =
      p2::test::TempPath("p2_service_faults_test", "load_fault");
  // Seed a valid cache file.
  {
    PlannerServiceOptions options = ServiceOptions();
    options.cache_file = path;
    PlannerService service(options);
    EXPECT_GT(service.Plan(RequestFor(Configs()[0])).placements.size(), 0u);
    EXPECT_TRUE(service.SaveCache());
  }
  // A reader whose load I/O dies starts cold — degraded, never crashed —
  // and still serves correct plans.
  FaultScope scope([](std::string_view point) {
    if (point == "cache_store.load") throw std::runtime_error("disk died");
  });
  PlannerServiceOptions options = ServiceOptions();
  options.cache_file = path;
  options.cache_readonly = true;  // don't clobber the file on destruction
  PlannerService service(options);
  EXPECT_EQ(service.cache_load_status(), CacheLoadStatus::kIoError);
  EXPECT_NE(service.cache_load_message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(service.cache_entries_loaded(), 0);
  EXPECT_GT(service.Plan(RequestFor(Configs()[0])).placements.size(), 0u);
}

}  // namespace
}  // namespace p2::engine
