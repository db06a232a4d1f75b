#include "server/remote_cache_client.h"

#include <exception>
#include <utility>

namespace p2::server {

RemoteCacheClient::RemoteCacheClient(int port) : port_(port) {}

bool RemoteCacheClient::RoundTripLocked(const Frame& request,
                                        FrameType reply_type, Frame* reply) {
  if (client_ == nullptr) {
    try {
      client_ = std::make_unique<PlannerClient>(port_);
    } catch (const std::exception&) {
      return false;  // the plane is unreachable (the backend never throws)
    }
  }
  return client_->RoundTrip(request, reply) && reply->type == reply_type;
}

engine::RemoteLookupResult RemoteCacheClient::Lookup(
    const std::string& base_key, std::int64_t cap) {
  engine::RemoteLookupResult result;  // kUnavailable until proven otherwise
  const Frame request{FrameType::kCacheLookupRequest,
                      EncodeCacheLookupRequest({base_key, cap})};
  Frame reply;
  CacheLookupWireResponse wire;
  std::string error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!RoundTripLocked(request, FrameType::kCacheLookupResponse, &reply) ||
        !DecodeCacheLookupResponse(reply.payload, &wire, &error)) {
      client_.reset();
      return result;
    }
  }
  switch (wire.kind) {
    case CacheLookupWireResponse::Kind::kHit:
      result.kind = engine::RemoteLookupResult::Kind::kHit;
      result.key = std::move(wire.entry.key);
      result.result = std::move(wire.entry.result);
      break;
    case CacheLookupWireResponse::Kind::kOwned:
      result.kind = engine::RemoteLookupResult::Kind::kOwned;
      break;
    case CacheLookupWireResponse::Kind::kRetryAfter:
      result.kind = engine::RemoteLookupResult::Kind::kRetryAfter;
      result.retry_after_ms = wire.retry_after_ms;
      break;
  }
  return result;
}

bool RemoteCacheClient::Publish(const std::string& key,
                                const core::SynthesisResult& result) {
  // Stamp 0 = "unknown age": the plane's persistent store stamps the entry
  // at its next save, exactly as it does for v1 files.
  const Frame request{FrameType::kCachePublishRequest,
                      EncodeCachePublishRequest({key, result})};
  Frame reply;
  WireStatus status = WireStatus::kInternal;
  std::string text;
  std::lock_guard<std::mutex> lock(mu_);
  if (!RoundTripLocked(request, FrameType::kCachePublishResponse, &reply) ||
      !DecodeStatusPayload(reply.payload, &status, &text)) {
    client_.reset();
    return false;
  }
  return status == WireStatus::kOk;
}

}  // namespace p2::server
