// Blocking client for the planner's wire protocol (server/wire_protocol.h):
// one TCP connection, requests served strictly in order. Concurrency is
// modeled as one client per thread — connections are cheap and the server
// is thread-per-connection, so this keeps the client free of any
// multiplexing state. Used by tools/p2_client, tests/server_test.cc, and
// RemoteCacheClient (server/remote_cache_client.h), which speaks the
// cache-plane frames through RoundTrip.
#ifndef P2_SERVER_PLANNER_CLIENT_H_
#define P2_SERVER_PLANNER_CLIENT_H_

#include <string>
#include <string_view>

#include "server/wire_protocol.h"

namespace p2::server {

class PlannerClient {
 public:
  /// Connects to the server on the loopback interface; throws
  /// std::runtime_error when the connection cannot be established.
  explicit PlannerClient(int port);
  ~PlannerClient();

  PlannerClient(const PlannerClient&) = delete;
  PlannerClient& operator=(const PlannerClient&) = delete;

  /// One round trip: sends the request, blocks for the response. A
  /// transport failure (server gone, connection dropped) or a protocol
  /// violation comes back as kInternal with a message — the caller never
  /// needs a second error channel.
  PlanWireResponse Plan(const PlanWireRequest& request);

  struct StatsResult {
    WireStatus status = WireStatus::kInternal;
    std::string json;  ///< {"server":{...},"service":{...}} when kOk
  };
  StatsResult Stats();

  /// Requests a server shutdown; true once the ack arrived — which the
  /// server sends only after its service drained, so a true return means
  /// every in-flight request finished and the cache was persisted.
  bool Shutdown();

  /// Sends `request` and blocks for the next well-formed frame; false on a
  /// transport failure or a decode failure (the connection is unusable
  /// either way).
  bool RoundTrip(const Frame& request, Frame* reply);

  // --- low-level surface for protocol tests ---------------------------------

  /// Sends raw bytes as-is (corruption tests forge frames with this).
  bool SendRaw(std::string_view bytes);
  /// Blocks for the next well-formed frame; false on EOF or a decode
  /// failure (the connection is unusable either way).
  bool ReceiveFrame(Frame* frame);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received beyond the last decoded frame
};

/// Polls for a server's --port-file (its readiness signal) for about 30 s;
/// returns the port it names, or -1 when none appeared.
int PortFromFile(const std::string& path);

}  // namespace p2::server

#endif  // P2_SERVER_PLANNER_CLIENT_H_
