// The planning service on the wire: a blocking-accept TCP front end over
// engine/service.h speaking the framed protocol of server/wire_protocol.h.
//
//   PlannerService service(options);          // the in-process service
//   PlannerServer server(service, {.port = 0});
//   server.port();                            // the bound (ephemeral) port
//   ...
//   server.Shutdown();                        // BeginDrain, close, join
//
// One thread blocks in accept(); each connection gets its own thread that
// decodes frames and serves them in order. Every plan request goes through
// PlannerService::Submit, so admission control, per-tenant accounting,
// deadlines and drain apply to wire traffic exactly as to in-process
// callers; the response carries the CanonicalResultText body (byte-equal
// across servers, thread counts and request interleavings) or the wire
// status its abort maps to. A stats request answers with the service's
// ToJson(PlannerServiceStats) wrapped together with the server's own
// counters. A shutdown request drains the service first and acknowledges
// only after the drain — a client that got the ack knows every in-flight
// request finished and the cache was persisted.
//
// Malformed frames never crash the server: the connection gets one Error
// frame with the decode reason and is closed (framing is lost, nothing
// after the bad bytes can be trusted). Malformed *payloads* inside a valid
// frame are answered with INVALID_ARGUMENT and the connection lives on.
//
// With options.cache_server on, the server additionally serves the cache
// plane (frames 8-11 of server/wire_protocol.h): lookups answer from the
// service's SynthesisCache with a hit, an ownership grant, or a retry-after
// for a base another worker is synthesizing (grants expire after
// options.grant_ttl so a dead worker never wedges the plane), and publishes
// land completed entries in the shared cache — so the server's own plans,
// its persistent cache file, and every connected worker share one
// memoization plane.
#ifndef P2_SERVER_PLANNER_SERVER_H_
#define P2_SERVER_PLANNER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/service.h"
#include "server/wire_protocol.h"

namespace p2::server {

/// PlanOutcome -> wire status, 1:1 (the abort taxonomy on the wire).
WireStatus WireStatusFor(engine::PlanOutcome outcome);

struct PlannerServerOptions {
  /// TCP port to bind on the loopback interface; 0 picks an ephemeral port
  /// (read it back via port()).
  int port = 0;
  /// Grace passed to PlannerService::BeginDrain at shutdown: in-flight
  /// requests get this long to finish before being cooperatively cancelled.
  /// nullopt waits for them indefinitely.
  std::optional<std::chrono::milliseconds> drain_grace;
  /// Serve the cache plane (frame types 8-11): sharded workers
  /// (tools/p2_shard) look synthesis entries up here before synthesizing
  /// and publish completions back. Off by default; cache frames on a
  /// non-cache server answer INVALID_ARGUMENT (the connection lives).
  bool cache_server = false;
  /// How long an ownership grant shields a base key from being granted to
  /// another worker. A worker that dies mid-synthesis stops publishing;
  /// after this long the next asker is granted the synthesis instead of
  /// retrying forever.
  std::chrono::milliseconds grant_ttl{10000};
};

/// The server's own counters, separate from (and served alongside) the
/// service's PlannerServiceStats.
struct PlannerServerStats {
  std::int64_t connections = 0;      ///< accepted so far
  std::int64_t requests = 0;         ///< plan requests served (any status)
  std::int64_t plan_ok = 0;          ///< ... of which completed OK
  std::int64_t plan_errors = 0;      ///< ... of which carried a non-OK status
  std::int64_t stats_requests = 0;   ///< stats frames served
  std::int64_t malformed_frames = 0; ///< connections dropped on bad frames
  // Cache-plane counters (all zero unless cache_server is on).
  /// Lookup frames the plane answered. Each ends as exactly one hit, grant
  /// or retry, so between lookups this is cache_hits + cache_grants +
  /// cache_retries; a malformed lookup, or one sent to a non-cache server,
  /// is not counted.
  std::int64_t cache_lookups = 0;
  std::int64_t cache_hits = 0;       ///< ... answered with an entry
  std::int64_t cache_grants = 0;     ///< ... answered with an ownership grant
  std::int64_t cache_retries = 0;    ///< ... answered retry-after
  std::int64_t cache_publishes = 0;  ///< publish frames accepted
};

class PlannerServer {
 public:
  /// Binds and starts accepting immediately; throws std::runtime_error when
  /// the socket cannot be created or bound. `service` is borrowed and must
  /// outlive the server.
  PlannerServer(engine::PlannerService& service,
                PlannerServerOptions options = {});
  /// Shutdown() (idempotent) then joins every thread.
  ~PlannerServer();

  PlannerServer(const PlannerServer&) = delete;
  PlannerServer& operator=(const PlannerServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  int port() const { return port_; }

  /// Graceful stop, callable from any non-connection thread: drains the
  /// service (BeginDrain with options.drain_grace), stops accepting, closes
  /// every connection and joins all threads. Idempotent.
  void Shutdown();

  /// Blocks until a shutdown is requested — by Shutdown() or by a client's
  /// shutdown frame. tools/p2_server parks its main thread here.
  void Wait();

  PlannerServerStats stats() const;

 private:
  /// The drain-and-stop half of Shutdown(), safe to call from a connection
  /// thread (does not join). `keep_fd` is exempted from the connection
  /// close, so the shutdown frame's own connection can still send its ack.
  void RequestShutdown(int keep_fd);
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Serves one decoded frame; false means "close this connection now".
  bool HandleFrame(int fd, const Frame& frame);
  bool SendFrame(int fd, const Frame& frame);
  std::string StatsJson();

  engine::PlannerService& service_;
  const PlannerServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  /// Ownership grants of the cache plane: base key -> grant expiry. A base
  /// is granted to the first asker whose lookup misses; later askers get
  /// retry-after until the grant expires or a publish / local synthesis
  /// lands an entry for it. No per-connection identity is needed — the
  /// protocol only promises that at most one *live* worker holds a base's
  /// grant at a time, and a dead worker's grant times out.
  std::mutex grants_mu_;
  std::unordered_map<std::string, std::chrono::steady_clock::time_point>
      grants_;

  std::atomic<bool> shutting_down_{false};
  std::mutex mu_;  ///< guards conn_fds_ and threads_
  /// Serializes shutdown requests (held across the drain, so a racing
  /// second request blocks until the first finished) and backs Wait().
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  std::unordered_set<int> conn_fds_;
  std::vector<std::thread> threads_;  ///< connection threads
  std::thread accept_thread_;

  std::atomic<std::int64_t> connections_{0};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> plan_ok_{0};
  std::atomic<std::int64_t> plan_errors_{0};
  std::atomic<std::int64_t> stats_requests_{0};
  std::atomic<std::int64_t> malformed_frames_{0};
  std::atomic<std::int64_t> cache_lookups_{0};
  std::atomic<std::int64_t> cache_hits_{0};
  std::atomic<std::int64_t> cache_grants_{0};
  std::atomic<std::int64_t> cache_retries_{0};
  std::atomic<std::int64_t> cache_publishes_{0};
};

}  // namespace p2::server

#endif  // P2_SERVER_PLANNER_SERVER_H_
