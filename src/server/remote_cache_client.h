// Worker-side client for the cache plane served by `p2_server
// --cache-server`: an engine::RemoteCacheBackend that speaks the framed
// protocol of server/wire_protocol.h (frame types 8-11) through a
// PlannerClient (server/planner_client.h) on the loopback interface.
//
// The backend contract (engine/remote_cache.h) is "never throw, never
// wedge": construction does not connect (the ctor cannot fail), the first
// call connects lazily, and every failure (the plane is unreachable, the
// connection drops, framing is lost, or the reply is of the wrong type or
// malformed) drops the connection and degrades to kUnavailable / false; the
// SynthesisCache then proceeds local-only and counts remote_errors. The
// next call connects afresh, so a plane that restarts is picked back up
// without any client-side state management.
//
// Round trips are serialized under an internal mutex: the plane protocol is
// strictly request/response on one connection, and workers consult the
// plane at most once per signature (the local cache's in-flight dedup sits
// in front), so contention here is not a throughput concern.
#ifndef P2_SERVER_REMOTE_CACHE_CLIENT_H_
#define P2_SERVER_REMOTE_CACHE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "engine/remote_cache.h"
#include "server/planner_client.h"
#include "server/wire_protocol.h"

namespace p2::server {

class RemoteCacheClient : public engine::RemoteCacheBackend {
 public:
  /// Remembers the port; does not connect (lazy, on first use).
  explicit RemoteCacheClient(int port);

  RemoteCacheClient(const RemoteCacheClient&) = delete;
  RemoteCacheClient& operator=(const RemoteCacheClient&) = delete;

  engine::RemoteLookupResult Lookup(const std::string& base_key,
                                    std::int64_t cap) override;
  bool Publish(const std::string& key,
               const core::SynthesisResult& result) override;

 private:
  /// One exchange over the connection, connecting first if there is none:
  /// true when a reply of type `reply_type` arrived. The caller drops the
  /// connection (client_.reset()) on false.
  bool RoundTripLocked(const Frame& request, FrameType reply_type,
                       Frame* reply);

  const int port_;
  std::mutex mu_;
  std::unique_ptr<PlannerClient> client_;  ///< guarded by mu_; null = none
};

}  // namespace p2::server

#endif  // P2_SERVER_REMOTE_CACHE_CLIENT_H_
