#include "server/wire_protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cmath>

#include "common/byte_codec.h"
#include "engine/cli.h"

namespace p2::server {

namespace {

// Overloads for the SynthesisCacheStats field loop, whose members are
// int64 counters and double seconds.
void Append(std::string* out, std::int64_t v) { AppendI64(out, v); }
void Append(std::string* out, double v) { AppendF64(out, v); }
bool Read(ByteReader* r, std::int64_t* v) { return r->ReadI64(v); }
bool Read(ByteReader* r, double* v) { return r->ReadF64(v); }

// Sanity bounds for counts and sizes a decoder would otherwise trust from
// the wire. Generous for every real request, tight enough that a forged
// payload cannot demand pathological work.
constexpr std::size_t kMaxAxes = 64;
constexpr int kMaxGpusPerNode = 1 << 12;

void EncodeCluster(std::string* out, const topology::Cluster& cluster) {
  const topology::GpuNodeModel& node = cluster.node;
  AppendString(out, node.name);
  AppendI32(out, node.gpus_per_node);
  AppendU8(out, static_cast<std::uint8_t>(node.transport));
  AppendF64(out, node.local_bandwidth);
  AppendF64(out, node.local_latency);
  AppendI32(out, node.pcie_domains);
  AppendF64(out, node.pcie_bandwidth);
  AppendF64(out, node.pcie_latency);
  AppendF64(out, node.nic_bandwidth);
  AppendF64(out, node.nic_latency);
  AppendI32(out, cluster.num_nodes);
  AppendF64(out, cluster.dcn_latency);
  AppendI32(out, cluster.racks);
  AppendF64(out, cluster.rack_uplink_bandwidth);
  AppendF64(out, cluster.rack_uplink_latency);
}

bool Fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

// Only the six WireStatus codes exist on the wire; any other u32 is a
// malformed payload, never a status to guess a meaning for.
bool WireStatusFromCode(std::uint32_t code, WireStatus* status) {
  switch (static_cast<WireStatus>(code)) {
    case WireStatus::kOk:
    case WireStatus::kCancelled:
    case WireStatus::kInvalidArgument:
    case WireStatus::kDeadlineExceeded:
    case WireStatus::kResourceExhausted:
    case WireStatus::kInternal:
      *status = static_cast<WireStatus>(code);
      return true;
  }
  return false;
}

// Semantic validation mirrors the cache store's decode policy: every
// precondition the engine (hierarchy derivation, cost model) relies on is
// checked here, so a forged request becomes kInvalidArgument, not a crash.
bool DecodeCluster(ByteReader* r, topology::Cluster* cluster,
                   std::string* error) {
  topology::GpuNodeModel& node = cluster->node;
  std::uint8_t transport = 0;
  if (!r->ReadString(&node.name) || !r->ReadI32(&node.gpus_per_node) ||
      !r->ReadU8(&transport) || !r->ReadF64(&node.local_bandwidth) ||
      !r->ReadF64(&node.local_latency) || !r->ReadI32(&node.pcie_domains) ||
      !r->ReadF64(&node.pcie_bandwidth) || !r->ReadF64(&node.pcie_latency) ||
      !r->ReadF64(&node.nic_bandwidth) || !r->ReadF64(&node.nic_latency) ||
      !r->ReadI32(&cluster->num_nodes) || !r->ReadF64(&cluster->dcn_latency) ||
      !r->ReadI32(&cluster->racks) ||
      !r->ReadF64(&cluster->rack_uplink_bandwidth) ||
      !r->ReadF64(&cluster->rack_uplink_latency)) {
    return Fail(error, "truncated cluster");
  }
  if (transport >
      static_cast<std::uint8_t>(topology::IntraNodeTransport::kNvLinkRing)) {
    return Fail(error, "unknown intra-node transport");
  }
  node.transport = static_cast<topology::IntraNodeTransport>(transport);
  if (node.gpus_per_node < 1 || node.gpus_per_node > kMaxGpusPerNode) {
    return Fail(error, "gpus_per_node out of range");
  }
  if (cluster->num_nodes < 1 || cluster->num_nodes > topology::kMaxNodes) {
    return Fail(error, "num_nodes out of range");
  }
  if (node.pcie_domains < 0 || node.pcie_domains > node.gpus_per_node) {
    return Fail(error, "pcie_domains out of range");
  }
  if (cluster->racks < 1 || cluster->racks > cluster->num_nodes ||
      cluster->num_nodes % cluster->racks != 0) {
    return Fail(error, "racks must evenly divide num_nodes");
  }
  const double finite_checks[] = {
      node.local_bandwidth,  node.local_latency,
      node.pcie_bandwidth,   node.pcie_latency,
      node.nic_bandwidth,    node.nic_latency,
      cluster->dcn_latency,  cluster->rack_uplink_bandwidth,
      cluster->rack_uplink_latency};
  for (double v : finite_checks) {
    if (!std::isfinite(v) || v < 0.0) {
      return Fail(error, "non-finite or negative cluster parameter");
    }
  }
  if (node.local_bandwidth <= 0.0 || node.nic_bandwidth <= 0.0) {
    return Fail(error, "zero link bandwidth");
  }
  // A node's cross-node traffic crosses its PCIe switches, if it has any:
  // GPUs left over by an uneven split reach no switch, and a zero-bandwidth
  // switch stalls every flow through it.
  if (node.PcieSwitches() > 0) {
    if (node.gpus_per_node % node.PcieSwitches() != 0) {
      return Fail(error, "pcie_domains must evenly divide gpus_per_node");
    }
    if (node.pcie_bandwidth <= 0.0) return Fail(error, "zero PCIe bandwidth");
  }
  return true;
}

// The cache record travels whole, field by field in
// SynthesisCacheStats::ForEachField order.
void EncodePipelineStats(std::string* out, const engine::PipelineStats& s) {
  AppendI64(out, s.num_placements);
  AppendI64(out, s.unique_hierarchies);
  engine::SynthesisCacheStats::ForEachField(
      [&](const char*, auto member) { Append(out, s.cache.*member); });
  AppendI64(out, s.synth_states_visited);
  AppendI64(out, s.synth_states_deduped);
  AppendI64(out, s.synth_branches_pruned);
  AppendI64(out, s.guided_skipped);
  AppendF64(out, s.synthesis_seconds);
  AppendF64(out, s.evaluation_seconds);
  AppendF64(out, s.total_seconds);
  AppendI32(out, s.threads);
}

bool DecodePipelineStats(ByteReader* r, engine::PipelineStats* s) {
  bool ok = r->ReadI64(&s->num_placements) &&
            r->ReadI64(&s->unique_hierarchies);
  engine::SynthesisCacheStats::ForEachField([&](const char*, auto member) {
    ok = ok && Read(r, &(s->cache.*member));
  });
  return ok && r->ReadI64(&s->synth_states_visited) &&
         r->ReadI64(&s->synth_states_deduped) &&
         r->ReadI64(&s->synth_branches_pruned) &&
         r->ReadI64(&s->guided_skipped) &&
         r->ReadF64(&s->synthesis_seconds) &&
         r->ReadF64(&s->evaluation_seconds) && r->ReadF64(&s->total_seconds) &&
         r->ReadI32(&s->threads);
}

}  // namespace

const char* ToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kCancelled:
      return "CANCELLED";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case WireStatus::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case WireStatus::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

const char* ToString(FrameDecodeStatus status) {
  switch (status) {
    case FrameDecodeStatus::kOk:
      return "ok";
    case FrameDecodeStatus::kNeedMore:
      return "need more bytes";
    case FrameDecodeStatus::kBadMagic:
      return "bad frame magic";
    case FrameDecodeStatus::kBadVersion:
      return "unsupported wire version";
    case FrameDecodeStatus::kBadType:
      return "unknown frame type";
    case FrameDecodeStatus::kOversized:
      return "frame payload exceeds the size limit";
    case FrameDecodeStatus::kBadChecksum:
      return "frame checksum mismatch";
  }
  return "unknown decode status";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  out.append(kFrameMagic);
  AppendU32(&out, kWireVersion);
  AppendU8(&out, static_cast<std::uint8_t>(frame.type));
  AppendU32(&out, static_cast<std::uint32_t>(frame.payload.size()));
  AppendU64(&out, Fnv1a64(frame.payload));
  out.append(frame.payload);
  return out;
}

FrameDecodeStatus DecodeFrame(std::string_view buffer, Frame* frame,
                              std::size_t* consumed) {
  *consumed = 0;
  // Validate the fixed header eagerly — a corrupt magic/version/type fails
  // as soon as those bytes are present, instead of stalling on kNeedMore
  // waiting for a payload length that is itself garbage.
  if (buffer.size() < kFrameMagic.size()) return FrameDecodeStatus::kNeedMore;
  if (buffer.substr(0, kFrameMagic.size()) != kFrameMagic) {
    return FrameDecodeStatus::kBadMagic;
  }
  if (buffer.size() < kFrameHeaderBytes) return FrameDecodeStatus::kNeedMore;
  ByteReader header(buffer.substr(kFrameMagic.size(),
                              kFrameHeaderBytes - kFrameMagic.size()));
  std::uint32_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t checksum = 0;
  header.ReadU32(&version);
  header.ReadU8(&type);
  header.ReadU32(&payload_len);
  header.ReadU64(&checksum);
  if (version != kWireVersion) return FrameDecodeStatus::kBadVersion;
  if (type < static_cast<std::uint8_t>(FrameType::kPlanRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kCachePublishResponse)) {
    return FrameDecodeStatus::kBadType;
  }
  if (payload_len > kMaxFramePayload) return FrameDecodeStatus::kOversized;
  if (buffer.size() < kFrameHeaderBytes + payload_len) {
    return FrameDecodeStatus::kNeedMore;
  }
  const std::string_view payload =
      buffer.substr(kFrameHeaderBytes, payload_len);
  if (Fnv1a64(payload) != checksum) return FrameDecodeStatus::kBadChecksum;
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload);
  *consumed = kFrameHeaderBytes + payload_len;
  return FrameDecodeStatus::kOk;
}

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

FrameDecodeStatus ReceiveFrame(int fd, std::string* buffer, Frame* frame) {
  char chunk[64 * 1024];
  for (;;) {
    std::size_t consumed = 0;
    const FrameDecodeStatus status = DecodeFrame(*buffer, frame, &consumed);
    if (status != FrameDecodeStatus::kNeedMore) {
      buffer->erase(0, consumed);
      return status;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return FrameDecodeStatus::kNeedMore;  // closed before a whole frame
    }
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

std::string EncodePlanRequest(const PlanWireRequest& request) {
  std::string out;
  AppendU8(&out, request.has_cluster ? 1 : 0);
  if (request.has_cluster) {
    EncodeCluster(&out, request.cluster);
  } else {
    AppendString(&out, request.preset_system);
    AppendI32(&out, request.preset_nodes);
  }
  AppendU32(&out, static_cast<std::uint32_t>(request.axes.size()));
  for (std::int64_t a : request.axes) AppendI64(&out, a);
  AppendU32(&out, static_cast<std::uint32_t>(request.reduction_axes.size()));
  for (int a : request.reduction_axes) AppendI32(&out, a);
  AppendI64(&out, request.max_programs);
  AppendI32(&out, request.measure_top_k);
  AppendI64(&out, request.deadline_ms);
  return out;
}

bool DecodePlanRequest(std::string_view payload, PlanWireRequest* request,
                       std::string* error) {
  *request = PlanWireRequest{};
  ByteReader r(payload);
  std::uint8_t cluster_kind = 0;
  if (!r.ReadU8(&cluster_kind)) return Fail(error, "truncated request");
  if (cluster_kind > 1) return Fail(error, "unknown cluster encoding");
  request->has_cluster = cluster_kind == 1;
  if (request->has_cluster) {
    if (!DecodeCluster(&r, &request->cluster, error)) return false;
  } else {
    if (!r.ReadString(&request->preset_system) ||
        !r.ReadI32(&request->preset_nodes)) {
      return Fail(error, "truncated topology preset");
    }
    if (!engine::IsPresetSystem(request->preset_system)) {
      return Fail(error, "unknown topology preset (want a100 or v100)");
    }
    if (request->preset_nodes < 1 ||
        request->preset_nodes > topology::kMaxNodes) {
      return Fail(error, "preset node count out of range");
    }
  }
  std::uint32_t num_axes = 0;
  if (!r.ReadU32(&num_axes)) return Fail(error, "truncated request");
  if (num_axes == 0 || num_axes > kMaxAxes) {
    return Fail(error, "axis count out of range");
  }
  request->axes.reserve(num_axes);
  for (std::uint32_t i = 0; i < num_axes; ++i) {
    std::int64_t axis = 0;
    if (!r.ReadI64(&axis)) return Fail(error, "truncated axes");
    if (axis < 1) return Fail(error, "axis extent must be positive");
    request->axes.push_back(axis);
  }
  std::uint32_t num_reduce = 0;
  if (!r.ReadU32(&num_reduce)) return Fail(error, "truncated request");
  if (num_reduce > num_axes) {
    return Fail(error, "more reduction axes than axes");
  }
  request->reduction_axes.reserve(num_reduce);
  for (std::uint32_t i = 0; i < num_reduce; ++i) {
    std::int32_t axis = 0;
    if (!r.ReadI32(&axis)) return Fail(error, "truncated reduction axes");
    if (axis < 0 || axis >= static_cast<std::int32_t>(num_axes)) {
      return Fail(error, "reduction axis out of range");
    }
    request->reduction_axes.push_back(axis);
  }
  if (!r.ReadI64(&request->max_programs) ||
      !r.ReadI32(&request->measure_top_k) ||
      !r.ReadI64(&request->deadline_ms)) {
    return Fail(error, "truncated request options");
  }
  if (request->max_programs < 0) {
    return Fail(error, "max_programs must be >= 0");
  }
  if (request->deadline_ms < 0) {
    return Fail(error, "deadline_ms must be >= 0");
  }
  if (!r.AtEnd()) return Fail(error, "trailing bytes after request");
  return true;
}

std::string EncodePlanResponse(const PlanWireResponse& response) {
  std::string out;
  AppendU32(&out, static_cast<std::uint32_t>(response.status));
  AppendString(&out, response.message);
  AppendString(&out, response.body);
  EncodePipelineStats(&out, response.stats);
  return out;
}

bool DecodePlanResponse(std::string_view payload, PlanWireResponse* response,
                        std::string* error) {
  *response = PlanWireResponse{};
  ByteReader r(payload);
  std::uint32_t status = 0;
  if (!r.ReadU32(&status) || !r.ReadString(&response->message) ||
      !r.ReadString(&response->body) ||
      !DecodePipelineStats(&r, &response->stats) || !r.AtEnd()) {
    return Fail(error, "malformed plan response");
  }
  if (!WireStatusFromCode(status, &response->status)) {
    return Fail(error, "unknown wire status in plan response");
  }
  return true;
}

std::string EncodeStatusPayload(WireStatus status, std::string_view text) {
  std::string out;
  AppendU32(&out, static_cast<std::uint32_t>(status));
  AppendString(&out, text);
  return out;
}

bool DecodeStatusPayload(std::string_view payload, WireStatus* status,
                         std::string* text) {
  ByteReader r(payload);
  std::uint32_t code = 0;
  return r.ReadU32(&code) && r.ReadString(text) && r.AtEnd() &&
         WireStatusFromCode(code, status);
}

std::string EncodeCacheLookupRequest(const CacheLookupWireRequest& request) {
  std::string out;
  AppendString(&out, request.base_key);
  AppendI64(&out, request.cap);
  return out;
}

bool DecodeCacheLookupRequest(std::string_view payload,
                              CacheLookupWireRequest* request,
                              std::string* error) {
  *request = CacheLookupWireRequest{};
  ByteReader r(payload);
  if (!r.ReadString(&request->base_key) || !r.ReadI64(&request->cap)) {
    return Fail(error, "truncated cache lookup");
  }
  if (request->base_key.empty()) {
    return Fail(error, "empty cache lookup key");
  }
  if (request->cap < 0) return Fail(error, "cache lookup cap must be >= 0");
  if (!r.AtEnd()) return Fail(error, "trailing bytes after cache lookup");
  return true;
}

std::string EncodeCacheLookupResponse(const CacheLookupWireResponse& response) {
  std::string out;
  AppendU8(&out, static_cast<std::uint8_t>(response.kind));
  AppendI32(&out, response.retry_after_ms);
  if (response.kind == CacheLookupWireResponse::Kind::kHit) {
    AppendString(&out, engine::CacheStore::EncodeEntry(response.entry));
  } else {
    AppendString(&out, std::string_view{});
  }
  return out;
}

bool DecodeCacheLookupResponse(std::string_view payload,
                               CacheLookupWireResponse* response,
                               std::string* error) {
  *response = CacheLookupWireResponse{};
  ByteReader r(payload);
  std::uint8_t kind = 0;
  std::string entry_bytes;
  if (!r.ReadU8(&kind) || !r.ReadI32(&response->retry_after_ms) ||
      !r.ReadString(&entry_bytes)) {
    return Fail(error, "truncated cache lookup response");
  }
  if (kind < static_cast<std::uint8_t>(CacheLookupWireResponse::Kind::kHit) ||
      kind >
          static_cast<std::uint8_t>(CacheLookupWireResponse::Kind::kRetryAfter)) {
    return Fail(error, "unknown cache lookup response kind");
  }
  response->kind = static_cast<CacheLookupWireResponse::Kind>(kind);
  if (response->retry_after_ms < 0) {
    return Fail(error, "negative retry-after");
  }
  if (response->kind == CacheLookupWireResponse::Kind::kHit) {
    // The disk codec's semantic validation applies to the wire entry too:
    // a checksum-valid but forged hit decodes false here, never reaches
    // lowering.
    if (!engine::CacheStore::DecodeEntry(entry_bytes, &response->entry)) {
      return Fail(error, "malformed cache entry in lookup response");
    }
  } else if (!entry_bytes.empty()) {
    return Fail(error, "unexpected entry bytes in a non-hit response");
  }
  if (!r.AtEnd()) {
    return Fail(error, "trailing bytes after cache lookup response");
  }
  return true;
}

std::string EncodeCachePublishRequest(const engine::CacheFileEntry& entry) {
  return engine::CacheStore::EncodeEntry(entry);
}

bool DecodeCachePublishRequest(std::string_view payload,
                               engine::CacheFileEntry* entry,
                               std::string* error) {
  if (!engine::CacheStore::DecodeEntry(payload, entry)) {
    return Fail(error, "malformed cache entry in publish");
  }
  return true;
}

}  // namespace p2::server
