#include "engine/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "engine/pipeline.h"

namespace p2::engine {

namespace {

/// Digest of every EngineOptions field that can change a plan. Appended to
/// the cluster fingerprint in the tenant key so one machine under two
/// evaluation configurations gets two engines instead of silently sharing
/// one. `threads` is excluded: it is an execution-strategy knob with
/// byte-identical output at any setting.
std::string EngineOptionsDigest(const EngineOptions& options) {
  char payload[40];
  std::snprintf(payload, sizeof(payload), "%.17g", options.payload_bytes);
  std::string digest = "algo=";
  digest += core::ToString(options.algo);
  digest += ";payload=";
  digest += payload;
  digest += ";size<=" + std::to_string(options.synthesis.max_program_size);
  digest += ";cap=" + std::to_string(options.synthesis.max_programs);
  digest += ";collapse=" + std::to_string(options.collapse_hierarchy ? 1 : 0);
  digest += ";kind=";
  digest += core::ToString(options.hierarchy_kind);
  digest += ";measure=" + std::to_string(options.measure ? 1 : 0);
  return digest;
}

std::string TenantKey(const topology::Cluster& cluster,
                      const EngineOptions& options) {
  return cluster.Fingerprint() + "|" + EngineOptionsDigest(options);
}

}  // namespace

const char* ToString(PlanOutcome outcome) {
  switch (outcome) {
    case PlanOutcome::kOk:
      return "ok";
    case PlanOutcome::kRejected:
      return "rejected";
    case PlanOutcome::kCancelled:
      return "cancelled";
    case PlanOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case PlanOutcome::kInvalidArgument:
      return "invalid_argument";
    case PlanOutcome::kInternal:
      return "internal";
  }
  return "internal";
}

PlanOutcome ClassifyPlanError(std::exception_ptr error) {
  if (error == nullptr) return PlanOutcome::kOk;
  try {
    std::rethrow_exception(error);
  } catch (const PlanRejected&) {
    return PlanOutcome::kRejected;
  } catch (const PlanDeadlineExceeded&) {
    return PlanOutcome::kDeadlineExceeded;
  } catch (const PlanCancelled&) {
    return PlanOutcome::kCancelled;
  } catch (const std::invalid_argument&) {
    return PlanOutcome::kInvalidArgument;
  } catch (...) {
    return PlanOutcome::kInternal;
  }
}

PlannerService::PlannerService(PlannerServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_max_entries),
      pool_(options_.threads) {
  cache_.set_remote(options_.remote_cache);
  if (!options_.cache_file.empty()) {
    store_.emplace(options_.cache_file);
    // TTL must be set before the load: expiry is a load-time policy (stale
    // entries are pruned as the file is read, never served once).
    store_->set_ttl_seconds(options_.cache_ttl_seconds);
    // Any corruption leaves the cache cold and the status queryable; the
    // service itself never fails over a bad cache file.
    store_->LoadInto(&cache_);
  }
}

PlannerService::PlannerService(const Engine& engine,
                               PlannerServiceOptions options)
    : PlannerService([&] {
        // Requests that *do* name a cluster should evaluate under the same
        // knobs as the borrowed default engine.
        options.engine = engine.options();
        return std::move(options);
      }()) {
  // Borrowed, not owned: the no-op deleter encodes the documented contract
  // that the engine outlives the service.
  default_tenant_ = &AdoptTenant(
      engine.cluster(), engine.options(),
      std::shared_ptr<const Engine>(&engine, [](const Engine*) {}));
}

PlannerService::~PlannerService() {
  // The same drain callers can run explicitly: reject new submissions, wait
  // for (or after the configured grace, cancel) in-flight requests, persist
  // the cache. request_tasks_ (declared last) then has nothing left and the
  // pool joins its workers.
  BeginDrain(options_.drain_grace);
}

const Engine* PlannerService::default_engine() const {
  std::unique_lock<std::mutex> lock(tenants_mu_);
  return default_tenant_ != nullptr ? default_tenant_->engine.get() : nullptr;
}

PlannerService::Tenant& PlannerService::RegisterTenantLocked(
    const std::string& key, const topology::Cluster& cluster) {
  auto tenant = std::make_unique<Tenant>();
  tenant->id = next_tenant_id_++;
  tenant->fingerprint = cluster.Fingerprint();
  tenant->cluster = cluster;
  tenant->stats.id = tenant->id;
  tenant->stats.fingerprint = tenant->fingerprint;
  tenant->stats.cluster = cluster.ToString();
  Tenant& ref = *tenant;
  tenant_by_key_.emplace(key, tenant.get());
  tenants_.push_back(std::move(tenant));
  return ref;
}

PlannerService::Tenant& PlannerService::AdoptTenant(
    const topology::Cluster& cluster, const EngineOptions& engine_options,
    std::shared_ptr<const Engine> engine) {
  const std::string key = TenantKey(cluster, engine_options);
  std::unique_lock<std::mutex> lock(tenants_mu_);
  const auto it = tenant_by_key_.find(key);
  if (it != tenant_by_key_.end()) {
    // Admission may have registered the record engine-less; adopt into it.
    if (it->second->engine == nullptr) it->second->engine = std::move(engine);
    return *it->second;
  }
  Tenant& tenant = RegisterTenantLocked(key, cluster);
  tenant.engine = std::move(engine);
  return tenant;
}

EngineOptions PlannerService::EffectiveEngineOptions(
    const PlanRequest& request) const {
  EngineOptions effective = options_.engine;
  if (request.max_programs > 0) {
    effective.synthesis.max_programs = request.max_programs;
  }
  return effective;
}

PlannerService::Tenant& PlannerService::ResolveTenant(
    const topology::Cluster& cluster, const EngineOptions& engine_options) {
  const std::string key = TenantKey(cluster, engine_options);
  std::unique_lock<std::mutex> lock(tenants_mu_);
  Tenant* record = nullptr;
  for (;;) {
    const auto it = tenant_by_key_.find(key);
    if (it == tenant_by_key_.end()) {
      record = &RegisterTenantLocked(key, cluster);
      break;
    }
    Tenant& tenant = *it->second;
    if (tenant.engine != nullptr) return tenant;
    if (!tenant.built.valid()) {
      // An engine-less record (registered by admission, or left behind by a
      // failed construction) nobody is building: claim the construction.
      record = &tenant;
      break;
    }
    // Another request is constructing this tenant's engine right now: wait
    // for it and re-check (a construction that threw leaves the record
    // engine-less and unclaimed, sending us around the loop into our own
    // attempt). Same in-flight-dedup pattern as the synthesis cache.
    const auto built = tenant.built;
    lock.unlock();
    built.wait();
    lock.lock();
  }

  // Announce the construction, run it outside the lock so other tenants'
  // requests proceed, then publish.
  std::promise<void> built_promise;
  record->built = built_promise.get_future().share();
  lock.unlock();

  std::shared_ptr<const Engine> engine;
  try {
    engine = std::make_shared<const Engine>(cluster, engine_options);
  } catch (...) {
    // Withdraw the claim — but keep the record, so the tenant's id and its
    // admission counters survive — and wake the racers; each retries the
    // construction (and presumably fails the same way, in its own future).
    lock.lock();
    record->built = {};
    lock.unlock();
    built_promise.set_value();
    throw;
  }

  lock.lock();
  record->engine = std::move(engine);
  ++engines_constructed_;
  lock.unlock();
  built_promise.set_value();
  return *record;
}

PlannerService::Tenant& PlannerService::TenantForRequest(
    const PlanRequest& request) {
  if (request.cluster.has_value()) {
    return ResolveTenant(*request.cluster, EffectiveEngineOptions(request));
  }
  if (request.max_programs > 0) {
    throw std::invalid_argument(
        "PlanRequest::max_programs overrides the tenant's synthesis cap and "
        "so requires PlanRequest::cluster; the borrowed default tenant's "
        "engine cannot be re-optioned");
  }
  std::unique_lock<std::mutex> lock(tenants_mu_);
  if (default_tenant_ != nullptr) return *default_tenant_;
  throw std::invalid_argument(
      "PlanRequest names no cluster and the PlannerService has no default "
      "tenant; set PlanRequest::cluster or construct the service with an "
      "Engine");
}

PlannerService::Tenant& PlannerService::AdmitTenantLocked(
    const PlanRequest& request) {
  if (!request.cluster.has_value()) {
    if (request.max_programs > 0) {
      throw std::invalid_argument(
          "PlanRequest::max_programs overrides the tenant's synthesis cap "
          "and so requires PlanRequest::cluster; the borrowed default "
          "tenant's engine cannot be re-optioned");
    }
    if (default_tenant_ != nullptr) return *default_tenant_;
    throw std::invalid_argument(
        "PlanRequest names no cluster and the PlannerService has no default "
        "tenant; set PlanRequest::cluster or construct the service with an "
        "Engine");
  }
  const std::string key =
      TenantKey(*request.cluster, EffectiveEngineOptions(request));
  const auto it = tenant_by_key_.find(key);
  if (it != tenant_by_key_.end()) return *it->second;
  // New fingerprint at Submit time: register the record engine-less so this
  // submission (and any rejection of it) is attributable; the request task
  // constructs the engine when it runs (ResolveTenant claims the record).
  return RegisterTenantLocked(key, *request.cluster);
}

void PlannerService::FinishRequest(
    std::int64_t id, Tenant& tenant, std::exception_ptr error,
    std::chrono::steady_clock::time_point submitted) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    submitted)
          .count();
  std::unique_lock<std::mutex> lock(tenants_mu_);
  // Every finished request — aborted included — contributes a latency
  // sample; rejected submissions never reach here.
  latency_.Record(elapsed);
  active_.erase(id);
  --in_flight_;
  --tenant.in_flight;
  // Book aborts on the tenant row; other failures (engine construction,
  // evaluation bugs) reach the caller through the future but are not aborts.
  const PlanOutcome outcome = ClassifyPlanError(error);
  if (outcome == PlanOutcome::kCancelled) ++tenant.stats.cancelled;
  if (outcome == PlanOutcome::kDeadlineExceeded) {
    ++tenant.stats.deadline_exceeded;
  }
  lock.unlock();
  drained_cv_.notify_all();
}

void PlannerService::AccumulateTenantStats(Tenant& tenant,
                                           const ExperimentResult& result) {
  std::unique_lock<std::mutex> lock(tenants_mu_);
  TenantStats& stats = tenant.stats;
  ++stats.requests;
  stats.placements += result.pipeline.num_placements;
  stats.cache += result.pipeline.cache;
}

PlanHandle PlannerService::Submit(PlanRequest request) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  CancelSource source;
  if (request.deadline.has_value()) {
    // Relative to Submit, absolute from here on: the clock runs while the
    // request sits in the pool's queue too.
    source.SetDeadlineAfter(*request.deadline);
  }
  const auto fail = [&source](std::exception_ptr error) {
    std::promise<ExperimentResult> failed;
    failed.set_exception(std::move(error));
    return PlanHandle(failed.get_future(), std::move(source));
  };

  // Admission, under the registry lock: attribute the submission to its
  // tenant record — registering an engine-less one on a new fingerprint —
  // and check drain state and the in-flight caps. Over-limit fails fast
  // with PlanRejected through the (already-failed) handle: no silent
  // queuing, and Plan() = Submit().get() surfaces it uniformly.
  Tenant* tenant = nullptr;
  std::int64_t id = 0;
  {
    std::unique_lock<std::mutex> lock(tenants_mu_);
    try {
      tenant = &AdmitTenantLocked(request);
    } catch (...) {
      return fail(std::current_exception());
    }
    if (draining_) {
      ++tenant->stats.rejected;
      return fail(std::make_exception_ptr(
          PlanRejected("PlannerService is draining; no new submissions")));
    }
    if (options_.max_in_flight > 0 && in_flight_ >= options_.max_in_flight) {
      ++tenant->stats.rejected;
      return fail(std::make_exception_ptr(PlanRejected(
          "service-wide max_in_flight (" +
          std::to_string(options_.max_in_flight) + ") reached")));
    }
    if (options_.max_in_flight_per_tenant > 0 &&
        tenant->in_flight >= options_.max_in_flight_per_tenant) {
      ++tenant->stats.rejected;
      return fail(std::make_exception_ptr(PlanRejected(
          "per-tenant max_in_flight (" +
          std::to_string(options_.max_in_flight_per_tenant) +
          ") reached for tenant " + std::to_string(tenant->id))));
    }
    ++in_flight_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    ++tenant->in_flight;
    tenant->stats.peak_in_flight =
        std::max(tenant->stats.peak_in_flight, tenant->in_flight);
    id = next_request_id_++;
    active_.emplace(id, source);
  }

  // The request runs as a pool task so Submit returns immediately — tenant
  // resolution included, so a request racing onto a new fingerprint never
  // blocks the submitter behind an Engine construction. The pipeline's own
  // work items join the pool through a separate TaskGroup, and the
  // orchestrating task *helps* execute them while waiting (see
  // ThreadPool::TaskGroup::Wait), so request tasks never deadlock the pool
  // they occupy. packaged_task routes the result — or the first exception,
  // cancellation included — into the future; request_tasks_ therefore never
  // sees a throwing task, so one aborted request cannot fail-fast the
  // group's other requests.
  const auto submitted = std::chrono::steady_clock::now();
  auto task = std::make_shared<std::packaged_task<ExperimentResult()>>(
      [this, request = std::move(request), token = source.token(), tenant, id,
       submitted]() {
        try {
          // Aborted while queued (deadline already past, cancelled before a
          // worker picked it up): unwind before resolving anything.
          token.ThrowIfCancelled();
          Tenant& resolved = TenantForRequest(request);
          Pipeline pipeline(*this, *resolved.engine,
                            PipelineOptions{
                                .measure_top_k = request.measure_top_k,
                                .tenant = resolved.id,
                                .cancel = token,
                            });
          ExperimentResult result =
              pipeline.Run(request.axes, request.reduction_axes);
          AccumulateTenantStats(resolved, result);
          FinishRequest(id, *tenant, nullptr, submitted);
          return result;
        } catch (...) {
          FinishRequest(id, *tenant, std::current_exception(), submitted);
          throw;
        }
      });
  auto future = task->get_future();
  request_tasks_.Submit([task] { (*task)(); });
  return PlanHandle(std::move(future), std::move(source));
}

void PlannerService::BeginDrain(
    std::optional<std::chrono::milliseconds> grace) {
  std::unique_lock<std::mutex> lock(tenants_mu_);
  draining_ = true;  // every later Submit rejects
  const auto idle = [this] { return in_flight_ == 0; };
  if (grace.has_value()) {
    if (!drained_cv_.wait_for(lock, *grace, idle)) {
      // Grace expired: fire every in-flight request's cancel lever, then
      // wait out the cooperative unwinds (checkpoints are frequent, so this
      // tail is short). Their futures carry PlanCancelled.
      for (auto& [id, source] : active_) source.Cancel();
      drained_cv_.wait(lock, idle);
    }
  } else {
    drained_cv_.wait(lock, idle);
  }
  lock.unlock();
  // Persist what this run learned (no-op without a cache_file or under
  // cache_readonly). Nobody is left to read a return value here — this
  // path is also the destructor's — so SaveCache records any failure in
  // stats() (save_errors / last_save_error), where a server's /stats
  // endpoint can surface it.
  SaveCache();
}

bool PlannerService::draining() const {
  std::unique_lock<std::mutex> lock(tenants_mu_);
  return draining_;
}

ExperimentResult PlannerService::Plan(PlanRequest request) {
  return Submit(std::move(request)).get();
}

ExperimentResult PlannerService::Plan(std::span<const std::int64_t> axes,
                                      std::span<const int> reduction_axes) {
  PlanRequest request;
  request.axes.assign(axes.begin(), axes.end());
  request.reduction_axes.assign(reduction_axes.begin(), reduction_axes.end());
  return Plan(std::move(request));
}

const Engine& PlannerService::EngineFor(const topology::Cluster& cluster) {
  return *ResolveTenant(cluster, options_.engine).engine;
}

CacheLoadStatus PlannerService::cache_load_status() const {
  return store_.has_value() ? store_->last_load_status()
                            : CacheLoadStatus::kNotConfigured;
}

const std::string& PlannerService::cache_load_message() const {
  static const std::string kEmpty;
  return store_.has_value() ? store_->last_load_message() : kEmpty;
}

std::int64_t PlannerService::cache_entries_loaded() const {
  return store_.has_value() ? store_->entries_loaded() : 0;
}

bool PlannerService::CacheLookupEntry(const std::string& base_key,
                                      std::int64_t cap, std::string* key,
                                      core::SynthesisResult* result,
                                      bool* in_flight) {
  return cache_.LookupByKey(base_key, cap, key, result, in_flight);
}

void PlannerService::CachePublishEntry(const std::string& key,
                                       core::SynthesisResult result) {
  cache_.PublishByKey(key, std::move(result));
}

bool PlannerService::SaveCache(std::string* error) {
  if (!store_.has_value() || options_.cache_readonly) return true;
  std::string detail;
  if (store_->Save(cache_, &detail)) return true;
  {
    // Record the failure even when the caller discards the return (the
    // drain-time save does): the counter is the durable trace.
    std::unique_lock<std::mutex> lock(tenants_mu_);
    ++save_errors_;
    last_save_error_ = detail;
  }
  if (error != nullptr) *error = std::move(detail);
  return false;
}

PlannerServiceStats PlannerService::stats() const {
  PlannerServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.cache_entries_loaded = cache_entries_loaded();
  stats.cache_entries_expired =
      store_.has_value() ? store_->entries_expired() : 0;
  stats.cache = cache_.stats();
  stats.threads = options_.threads > 1 ? options_.threads : 1;
  std::unique_lock<std::mutex> lock(tenants_mu_);
  stats.engines_constructed = engines_constructed_;
  stats.peak_in_flight = peak_in_flight_;
  stats.save_errors = save_errors_;
  stats.last_save_error = last_save_error_;
  stats.latency_count = latency_.count();
  stats.latency_p50_seconds = latency_.Percentile(50.0);
  stats.latency_p95_seconds = latency_.Percentile(95.0);
  stats.latency_p99_seconds = latency_.Percentile(99.0);
  stats.tenants.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    stats.tenants.push_back(tenant->stats);
    stats.rejected += tenant->stats.rejected;
    stats.cancelled += tenant->stats.cancelled;
    stats.deadline_exceeded += tenant->stats.deadline_exceeded;
  }
  return stats;
}

}  // namespace p2::engine
