#include "server/planner_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/cli.h"
#include "engine/json_export.h"
#include "engine/report.h"

namespace p2::server {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

WireStatus WireStatusFor(engine::PlanOutcome outcome) {
  switch (outcome) {
    case engine::PlanOutcome::kOk:
      return WireStatus::kOk;
    case engine::PlanOutcome::kRejected:
      return WireStatus::kResourceExhausted;
    case engine::PlanOutcome::kCancelled:
      return WireStatus::kCancelled;
    case engine::PlanOutcome::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
    case engine::PlanOutcome::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case engine::PlanOutcome::kInternal:
      return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

PlannerServer::PlannerServer(engine::PlannerService& service,
                             PlannerServerOptions options)
    : service_(service), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the planner has no authentication; exposing it beyond
  // the machine is a deployment decision a proxy should make, not a default.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    ThrowErrno("bind");
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    ThrowErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    ThrowErrno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

PlannerServer::~PlannerServer() {
  Shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PlannerServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() on the listener (RequestShutdown) lands here.
      return;
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.insert(fd);
    threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

bool PlannerServer::SendFrame(int fd, const Frame& frame) {
  return SendAll(fd, EncodeFrame(frame));
}

void PlannerServer::ServeConnection(int fd) {
  // Frames are served strictly in arrival order per connection; a client
  // wanting concurrency opens more connections (tools/p2_client does).
  std::string buffer;
  for (;;) {
    Frame frame;
    const FrameDecodeStatus status = ReceiveFrame(fd, &buffer, &frame);
    if (status == FrameDecodeStatus::kNeedMore) {
      break;  // peer closed, or our shutdown woke the read
    }
    if (status != FrameDecodeStatus::kOk) {
      // Framing is lost: one Error frame with the reason, then close.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      Frame error;
      error.type = FrameType::kError;
      error.payload =
          EncodeStatusPayload(WireStatus::kInvalidArgument, ToString(status));
      SendFrame(fd, error);
      break;
    }
    if (!HandleFrame(fd, frame)) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  conn_fds_.erase(fd);
}

bool PlannerServer::HandleFrame(int fd, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPlanRequest: {
      requests_.fetch_add(1, std::memory_order_relaxed);
      PlanWireResponse out;
      PlanWireRequest wire;
      std::string decode_error;
      if (!DecodePlanRequest(frame.payload, &wire, &decode_error)) {
        out.status = WireStatus::kInvalidArgument;
        out.message = "bad plan request: " + decode_error;
      } else {
        engine::PlanRequest request;
        request.axes = std::move(wire.axes);
        request.reduction_axes = std::move(wire.reduction_axes);
        request.measure_top_k = wire.measure_top_k;
        request.max_programs = wire.max_programs;
        if (wire.deadline_ms > 0) {
          request.deadline = std::chrono::milliseconds(wire.deadline_ms);
        }
        request.cluster =
            wire.has_cluster
                ? wire.cluster
                : engine::ClusterFromPreset(engine::TopologyPreset{
                      wire.preset_system, wire.preset_nodes});
        try {
          engine::ExperimentResult result =
              service_.Submit(std::move(request)).get();
          out.status = WireStatus::kOk;
          out.body = engine::CanonicalResultText(result);
          out.stats = result.pipeline;
        } catch (const std::exception& e) {
          out.status =
              WireStatusFor(engine::ClassifyPlanError(std::current_exception()));
          out.message = e.what();
        }
      }
      if (out.status == WireStatus::kOk) {
        plan_ok_.fetch_add(1, std::memory_order_relaxed);
      } else {
        plan_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      Frame response;
      response.type = FrameType::kPlanResponse;
      response.payload = EncodePlanResponse(out);
      return SendFrame(fd, response);
    }
    case FrameType::kStatsRequest: {
      // Incremented before rendering, so the served document always reports
      // at least the request it answers — the CI smoke greps for that.
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      Frame response;
      response.type = FrameType::kStatsResponse;
      response.payload = EncodeStatusPayload(WireStatus::kOk, StatsJson());
      return SendFrame(fd, response);
    }
    case FrameType::kShutdownRequest: {
      // Drain first, acknowledge after: the client's ack therefore implies
      // every in-flight request finished and the cache was persisted.
      RequestShutdown(fd);
      Frame response;
      response.type = FrameType::kShutdownResponse;
      SendFrame(fd, response);
      return false;
    }
    case FrameType::kCacheLookupRequest: {
      CacheLookupWireRequest wire;
      std::string decode_error;
      if (!options_.cache_server) {
        decode_error = "cache-server mode disabled on this server";
      } else if (!DecodeCacheLookupRequest(frame.payload, &wire,
                                           &decode_error)) {
        decode_error = "bad cache lookup: " + decode_error;
      } else {
        // Counted only once the plane answers: every counted lookup ends as
        // exactly one hit, grant or retry.
        cache_lookups_.fetch_add(1, std::memory_order_relaxed);
        CacheLookupWireResponse out;
        std::string key;
        core::SynthesisResult result;
        bool in_flight = false;
        if (service_.CacheLookupEntry(wire.base_key, wire.cap, &key, &result,
                                      &in_flight)) {
          out.kind = CacheLookupWireResponse::Kind::kHit;
          out.entry.key = std::move(key);
          out.entry.result = std::move(result);
          cache_hits_.fetch_add(1, std::memory_order_relaxed);
          // The entry exists now; whoever held the grant no longer needs
          // protection and the base can be granted again if the entry is
          // ever evicted.
          std::lock_guard<std::mutex> lock(grants_mu_);
          grants_.erase(wire.base_key);
        } else {
          const auto now = std::chrono::steady_clock::now();
          std::lock_guard<std::mutex> lock(grants_mu_);
          const auto it = grants_.find(wire.base_key);
          const bool foreign_grant = it != grants_.end() && it->second > now;
          if (in_flight || foreign_grant) {
            // Someone — a foreign worker under grant, or this server's own
            // in-flight synthesis — is already searching this signature:
            // the asker retries instead of duplicating the work.
            out.kind = CacheLookupWireResponse::Kind::kRetryAfter;
            std::int64_t suggest_ms = 20;
            if (foreign_grant) {
              suggest_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               it->second - now)
                               .count();
            }
            out.retry_after_ms = static_cast<std::int32_t>(
                std::clamp<std::int64_t>(suggest_ms, 1, 1000));
            cache_retries_.fetch_add(1, std::memory_order_relaxed);
          } else {
            grants_[wire.base_key] = now + options_.grant_ttl;
            out.kind = CacheLookupWireResponse::Kind::kOwned;
            cache_grants_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        Frame response;
        response.type = FrameType::kCacheLookupResponse;
        response.payload = EncodeCacheLookupResponse(out);
        return SendFrame(fd, response);
      }
      // Valid frame, unusable payload (or mode off): INVALID_ARGUMENT, and
      // the connection lives on.
      Frame error;
      error.type = FrameType::kError;
      error.payload =
          EncodeStatusPayload(WireStatus::kInvalidArgument, decode_error);
      return SendFrame(fd, error);
    }
    case FrameType::kCachePublishRequest: {
      engine::CacheFileEntry entry;
      std::string decode_error;
      if (!options_.cache_server) {
        decode_error = "cache-server mode disabled on this server";
      } else if (!DecodeCachePublishRequest(frame.payload, &entry,
                                            &decode_error)) {
        decode_error = "bad cache publish: " + decode_error;
      } else {
        cache_publishes_.fetch_add(1, std::memory_order_relaxed);
        const std::string base = engine::SynthesisCache::BaseOfKey(entry.key);
        service_.CachePublishEntry(entry.key, std::move(entry.result));
        {
          // The publish settles the grant for its base: the next asker is
          // served the entry instead of a retry-after.
          std::lock_guard<std::mutex> lock(grants_mu_);
          grants_.erase(base);
        }
        Frame response;
        response.type = FrameType::kCachePublishResponse;
        response.payload = EncodeStatusPayload(WireStatus::kOk, "");
        return SendFrame(fd, response);
      }
      Frame error;
      error.type = FrameType::kError;
      error.payload =
          EncodeStatusPayload(WireStatus::kInvalidArgument, decode_error);
      return SendFrame(fd, error);
    }
    case FrameType::kPlanResponse:
    case FrameType::kStatsResponse:
    case FrameType::kError:
    case FrameType::kShutdownResponse:
    case FrameType::kCacheLookupResponse:
    case FrameType::kCachePublishResponse: {
      // Client-to-server traffic must never carry response types.
      Frame error;
      error.type = FrameType::kError;
      error.payload = EncodeStatusPayload(WireStatus::kInvalidArgument,
                                          "unexpected frame type");
      SendFrame(fd, error);
      return false;
    }
  }
  return false;
}

std::string PlannerServer::StatsJson() {
  const PlannerServerStats server = stats();
  std::ostringstream os;
  os << "{\"server\":{"
     << "\"connections\":" << server.connections << ","
     << "\"requests\":" << server.requests << ","
     << "\"plan_ok\":" << server.plan_ok << ","
     << "\"plan_errors\":" << server.plan_errors << ","
     << "\"stats_requests\":" << server.stats_requests << ","
     << "\"malformed_frames\":" << server.malformed_frames << ","
     << "\"cache_lookups\":" << server.cache_lookups << ","
     << "\"cache_hits\":" << server.cache_hits << ","
     << "\"cache_grants\":" << server.cache_grants << ","
     << "\"cache_retries\":" << server.cache_retries << ","
     << "\"cache_publishes\":" << server.cache_publishes << "},"
     << "\"service\":" << engine::ToJson(service_.stats()) << "}";
  return os.str();
}

void PlannerServer::RequestShutdown(int keep_fd) {
  // shutdown_cv_'s mutex also serializes concurrent shutdown requests: a
  // second caller blocks here until the first finished draining, so nobody
  // acknowledges a shutdown before the drain is actually complete.
  std::lock_guard<std::mutex> serialize(shutdown_mu_);
  if (!shutting_down_.exchange(true, std::memory_order_acq_rel)) {
    service_.BeginDrain(options_.drain_grace);
    // Wakes the accept() with an error; the accept loop exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    // SHUT_RD, not RDWR: blocked reads wake (the connection loop exits at
    // its next recv) while responses already being written still flush —
    // BeginDrain above waited for those requests to finish.
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) {
      if (fd != keep_fd) ::shutdown(fd, SHUT_RD);
    }
  }
  shutdown_cv_.notify_all();
}

void PlannerServer::Shutdown() {
  RequestShutdown(-1);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is gone, so threads_ can no longer grow; joining a
  // snapshot under the lock is therefore complete.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(threads_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

void PlannerServer::Wait() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutting_down_.load(std::memory_order_acquire);
  });
}

PlannerServerStats PlannerServer::stats() const {
  PlannerServerStats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.plan_ok = plan_ok_.load(std::memory_order_relaxed);
  stats.plan_errors = plan_errors_.load(std::memory_order_relaxed);
  stats.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  stats.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  stats.cache_lookups = cache_lookups_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_grants = cache_grants_.load(std::memory_order_relaxed);
  stats.cache_retries = cache_retries_.load(std::memory_order_relaxed);
  stats.cache_publishes = cache_publishes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace p2::server
