// The planner's wire format: length-prefixed frames in the same codec idiom
// as the on-disk cache (engine/cache_store.cc) — versioned magic,
// little-endian integers, a per-frame FNV-1a-64 checksum, and a
// never-crash decode policy (every malformation is a status, the reader is
// bounds-checked, counts are sanity-bounded before any reserve).
//
//   frame  := magic "P2RF" | version u32 | type u8 | payload_len u32
//             | checksum u64 (FNV-1a-64 of payload) | payload bytes
//
// Frame types (u8):
//   1 PlanRequest          2 PlanResponse
//   3 StatsRequest         4 StatsResponse
//   5 Error                6 ShutdownRequest     7 ShutdownResponse
//   8 CacheLookupRequest   9 CacheLookupResponse
//  10 CachePublishRequest 11 CachePublishResponse
//
// Types 8-11 are the cache-server plane (`p2_server --cache-server`): a
// lookup miss answers with an ownership grant (kOwned) or a retry-after for
// a foreign in-flight synthesis, so two workers never synthesize one
// signature; a publish carries a completed entry in the persisted
// engine/cache_store.h payload encoding — the wire reuses the disk codec,
// semantic validation included.
//
// Statuses are gRPC-style codes so the abort taxonomy of engine/service.h
// maps 1:1: PlanRejected -> kResourceExhausted, PlanCancelled ->
// kCancelled, PlanDeadlineExceeded -> kDeadlineExceeded, codec/validation
// errors -> kInvalidArgument, everything else -> kInternal.
//
// A PlanRequest payload carries either a topology preset ("a100"/"v100" at
// a node count) or a fully serialized topology::Cluster, the experiment
// axes, and the per-request knobs (max_programs, measure_top_k,
// deadline-ms). A PlanResponse carries the wire status, the
// CanonicalResultText body (the byte-identity oracle — equal bytes mean
// equal plans), and the request's PipelineStats.
#ifndef P2_SERVER_WIRE_PROTOCOL_H_
#define P2_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache_store.h"
#include "engine/engine.h"
#include "topology/cluster.h"

namespace p2::server {

inline constexpr std::string_view kFrameMagic = "P2RF";
/// Bumped whenever a payload layout changes, so an older peer fails fast
/// with kBadVersion instead of misparsing: 2 added the cache-server frames
/// and grew the PlanResponse stats payload by two counters; 3 dropped the
/// in-flight-waits counter from that payload; 4 carries the request's whole
/// engine::SynthesisCacheStats record there (four more counters).
inline constexpr std::uint32_t kWireVersion = 4;
/// magic + version u32 + type u8 + payload_len u32 + checksum u64.
inline constexpr std::size_t kFrameHeaderBytes = 21;
/// Upper bound a decoder trusts from a length prefix; anything larger is
/// kOversized before a single payload byte is read (a lying length field
/// must not become an allocation).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kPlanRequest = 1,
  kPlanResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kError = 5,
  kShutdownRequest = 6,
  kShutdownResponse = 7,
  kCacheLookupRequest = 8,
  kCacheLookupResponse = 9,
  kCachePublishRequest = 10,
  kCachePublishResponse = 11,
};

/// gRPC-style status codes (the subset the planner can produce).
enum class WireStatus : std::uint32_t {
  kOk = 0,
  kCancelled = 1,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kResourceExhausted = 8,
  kInternal = 13,
};

const char* ToString(WireStatus status);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// How far DecodeFrame got. kNeedMore is the only non-terminal status: the
/// buffer simply does not hold a whole frame yet. Every other non-kOk value
/// is a protocol violation the connection cannot recover from (framing is
/// lost), so the server answers with an Error frame and closes.
enum class FrameDecodeStatus {
  kOk,
  kNeedMore,
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,
  kBadChecksum,
};

const char* ToString(FrameDecodeStatus status);

std::string EncodeFrame(const Frame& frame);

/// Decodes the first frame of `buffer`. On kOk fills `frame` and sets
/// `consumed` to the bytes to drop from the buffer; on kNeedMore nothing is
/// consumed; on any error `consumed` is meaningless (the connection is done
/// for). Never throws, never reads out of bounds.
FrameDecodeStatus DecodeFrame(std::string_view buffer, Frame* frame,
                              std::size_t* consumed);

/// The body of a PlanRequest frame. Exactly one of `preset_system` (with
/// `preset_nodes`) or `cluster` (with has_cluster) names the machine.
struct PlanWireRequest {
  bool has_cluster = false;
  topology::Cluster cluster;   ///< used when has_cluster
  std::string preset_system;   ///< "a100" or "v100" otherwise
  int preset_nodes = 1;
  std::vector<std::int64_t> axes;
  std::vector<int> reduction_axes;
  std::int64_t max_programs = 0;  ///< 0 = the server engine's default cap
  int measure_top_k = -1;         ///< -1 = the server engine's default
  std::int64_t deadline_ms = 0;   ///< 0 = no deadline
};

std::string EncodePlanRequest(const PlanWireRequest& request);
/// Semantic validation included (known preset system, positive node count,
/// bounded axis counts): a checksum-valid but nonsensical payload decodes
/// false with a reason, never constructs a cluster.
bool DecodePlanRequest(std::string_view payload, PlanWireRequest* request,
                       std::string* error);

/// The body of a PlanResponse frame: `body`/`stats` are meaningful only
/// when status == kOk; `message` only when it is not.
struct PlanWireResponse {
  WireStatus status = WireStatus::kOk;
  std::string message;
  std::string body;  ///< engine::CanonicalResultText of the result
  engine::PipelineStats stats;
};

std::string EncodePlanResponse(const PlanWireResponse& response);
bool DecodePlanResponse(std::string_view payload, PlanWireResponse* response,
                        std::string* error);

/// StatsResponse / Error / CachePublishResponse payloads share one shape:
/// status + a string (the stats JSON document, or the error detail).
std::string EncodeStatusPayload(WireStatus status, std::string_view text);
bool DecodeStatusPayload(std::string_view payload, WireStatus* status,
                         std::string* text);

/// The body of a CacheLookupRequest frame: a SynthesisCache base key (the
/// cap-less lookup identity) plus the querying worker's max_programs cap.
struct CacheLookupWireRequest {
  std::string base_key;
  std::int64_t cap = 0;
};

std::string EncodeCacheLookupRequest(const CacheLookupWireRequest& request);
bool DecodeCacheLookupRequest(std::string_view payload,
                              CacheLookupWireRequest* request,
                              std::string* error);

/// The body of a CacheLookupResponse frame — the ownership-grant protocol:
/// kHit carries an entry that serves the requested cap; kOwned grants the
/// asker the synthesis (no other worker will be granted the base until the
/// grant expires or a publish lands); kRetryAfter means a foreign worker
/// holds the grant (or the server itself is synthesizing the base) — ask
/// again after retry_after_ms.
struct CacheLookupWireResponse {
  enum class Kind : std::uint8_t {
    kHit = 1,
    kOwned = 2,
    kRetryAfter = 3,
  };
  Kind kind = Kind::kOwned;
  std::int32_t retry_after_ms = 0;  ///< meaningful only for kRetryAfter
  /// Meaningful only for kHit; carried in the persisted
  /// engine/cache_store.h entry encoding (semantic validation included on
  /// decode, so a forged hit can never feed the lowering path).
  engine::CacheFileEntry entry;
};

std::string EncodeCacheLookupResponse(const CacheLookupWireResponse& response);
bool DecodeCacheLookupResponse(std::string_view payload,
                               CacheLookupWireResponse* response,
                               std::string* error);

/// A CachePublishRequest payload is exactly one persisted cache entry
/// (engine::CacheStore entry payload bytes); the response is a status
/// payload. Decoding inherits the cache store's semantic validation.
std::string EncodeCachePublishRequest(const engine::CacheFileEntry& entry);
bool DecodeCachePublishRequest(std::string_view payload,
                               engine::CacheFileEntry* entry,
                               std::string* error);

}  // namespace p2::server

#endif  // P2_SERVER_WIRE_PROTOCOL_H_
