// The wire front end (ISSUE 8): the framed protocol round-trips and rejects
// every corruption as a status (never a crash), inline clusters the flow
// simulator cannot build are rejected at decode, the service's abort taxonomy
// maps 1:1 onto wire statuses, malformed frames close the connection with an
// Error frame while malformed payloads inside valid frames keep it alive,
// and the concurrency oracle holds — bodies served over N concurrent
// connections are byte-identical to a serial in-process reference, including
// while neighbouring requests abort mid-flight. Frames are pinned to golden
// bytes, and a remote cache client picks a restarted cache plane back up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/report.h"
#include "engine/service.h"
#include "server/planner_client.h"
#include "server/planner_server.h"
#include "server/remote_cache_client.h"
#include "server/wire_protocol.h"
#include "test_hex.h"
#include "topology/presets.h"

namespace p2::server {
namespace {

using namespace std::chrono_literals;

engine::EngineOptions FastOptions() {
  engine::EngineOptions opts;
  opts.payload_bytes = 1e8;
  return opts;
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

PlanWireRequest WireRequestFor(const Config& config) {
  PlanWireRequest request;
  request.preset_system = "a100";
  request.preset_nodes = 2;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  return request;
}

/// A service + server pair on an ephemeral port, engine knobs tuned for
/// test speed. The service outlives the server (the server borrows it).
struct ServerFixture {
  explicit ServerFixture(int threads = 2) {
    engine::PlannerServiceOptions options;
    options.threads = threads;
    options.engine = FastOptions();
    service = std::make_unique<engine::PlannerService>(options);
    server = std::make_unique<PlannerServer>(*service);
  }
  std::unique_ptr<engine::PlannerService> service;
  std::unique_ptr<PlannerServer> server;
};

/// Same idiom as tests/service_faults_test.cc: parks the first
/// `pipeline.synthesize` checkpoint until released, so a wire request is
/// provably in flight when the test aborts it.
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
  std::atomic<bool> armed_{true};
  std::atomic<bool> entered_{false};
  std::atomic<bool> release_{false};
};

void ExpectBalancedJson(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// ---- frame codec ----------------------------------------------------------

TEST(WireFrame, RoundTripsEveryTypeAndStreamsBackToBack) {
  std::string buffer;
  const std::vector<FrameType> types = {
      FrameType::kPlanRequest,         FrameType::kPlanResponse,
      FrameType::kStatsRequest,        FrameType::kStatsResponse,
      FrameType::kError,               FrameType::kShutdownRequest,
      FrameType::kShutdownResponse,    FrameType::kCacheLookupRequest,
      FrameType::kCacheLookupResponse, FrameType::kCachePublishRequest,
      FrameType::kCachePublishResponse,
  };
  for (std::size_t i = 0; i < types.size(); ++i) {
    Frame frame;
    frame.type = types[i];
    frame.payload = std::string(i, static_cast<char>('a' + i));
    buffer += EncodeFrame(frame);
  }
  // One contiguous byte stream decodes back into the same frame sequence —
  // the consumed count is exactly what separates adjacent frames.
  for (std::size_t i = 0; i < types.size(); ++i) {
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(buffer, &frame, &consumed), FrameDecodeStatus::kOk)
        << "frame " << i;
    EXPECT_EQ(frame.type, types[i]);
    EXPECT_EQ(frame.payload, std::string(i, static_cast<char>('a' + i)));
    EXPECT_EQ(consumed, kFrameHeaderBytes + i);
    buffer.erase(0, consumed);
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFrame, EveryTruncationIsNeedMoreNeverAnError) {
  Frame frame;
  frame.type = FrameType::kPlanRequest;
  frame.payload = "payload bytes";
  const std::string encoded = EncodeFrame(frame);
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(encoded).substr(0, len), &out,
                          &consumed),
              FrameDecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireFrame, CorruptionsMapToTheirStatuses) {
  Frame frame;
  frame.type = FrameType::kStatsRequest;
  frame.payload = "abcdef";
  const std::string good = EncodeFrame(frame);
  Frame out;
  std::size_t consumed = 0;

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeFrame(bad_magic, &out, &consumed),
            FrameDecodeStatus::kBadMagic);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0xFF);  // version u32 at offset 4, LE
  EXPECT_EQ(DecodeFrame(bad_version, &out, &consumed),
            FrameDecodeStatus::kBadVersion);

  std::string bad_type = good;
  bad_type[8] = 0;  // type u8 at offset 8; 0 is not a FrameType
  EXPECT_EQ(DecodeFrame(bad_type, &out, &consumed),
            FrameDecodeStatus::kBadType);
  bad_type[8] = 99;
  EXPECT_EQ(DecodeFrame(bad_type, &out, &consumed),
            FrameDecodeStatus::kBadType);

  // A lying length prefix must be rejected before it becomes an allocation:
  // claim kMaxFramePayload + 1 bytes (offset 9, u32 LE).
  std::string oversized = good;
  const std::uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    oversized[9 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(DecodeFrame(oversized, &out, &consumed),
            FrameDecodeStatus::kOversized);

  // A single payload bit-flip fails the FNV-1a-64 checksum.
  std::string bit_flip = good;
  bit_flip[kFrameHeaderBytes + 2] ^= 0x01;
  EXPECT_EQ(DecodeFrame(bit_flip, &out, &consumed),
            FrameDecodeStatus::kBadChecksum);

  // The pristine copy still decodes — the corruptions above were local.
  EXPECT_EQ(DecodeFrame(good, &out, &consumed), FrameDecodeStatus::kOk);
}

// Version 4 carries the whole cache-counter record in the PlanResponse
// stats payload, so a version-3 peer's frames must be refused rather than
// misparsed.
TEST(WireFrame, PreviousVersionIsRefused) {
  ASSERT_EQ(kWireVersion, 4u);
  Frame frame;
  frame.type = FrameType::kPlanResponse;
  frame.payload = "stats payload";
  std::string v3 = EncodeFrame(frame);
  const std::uint32_t old_version = 3;
  for (int i = 0; i < 4; ++i) {  // version u32 at offset 4, LE
    v3[4 + i] = static_cast<char>((old_version >> (8 * i)) & 0xFF);
  }
  Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(v3, &out, &consumed), FrameDecodeStatus::kBadVersion);
}

// ---- payload codecs -------------------------------------------------------

TEST(WirePayload, PlanRequestRoundTripsPresetForm) {
  PlanWireRequest request;
  request.preset_system = "v100";
  request.preset_nodes = 4;
  request.axes = {8, 2, 2};
  request.reduction_axes = {0, 2};
  request.max_programs = 40;
  request.measure_top_k = 3;
  request.deadline_ms = 1500;

  PlanWireRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodePlanRequest(EncodePlanRequest(request), &decoded, &error))
      << error;
  EXPECT_FALSE(decoded.has_cluster);
  EXPECT_EQ(decoded.preset_system, "v100");
  EXPECT_EQ(decoded.preset_nodes, 4);
  EXPECT_EQ(decoded.axes, request.axes);
  EXPECT_EQ(decoded.reduction_axes, request.reduction_axes);
  EXPECT_EQ(decoded.max_programs, 40);
  EXPECT_EQ(decoded.measure_top_k, 3);
  EXPECT_EQ(decoded.deadline_ms, 1500);
}

TEST(WirePayload, PlanRequestRoundTripsAnInlineCluster) {
  PlanWireRequest request;
  request.has_cluster = true;
  request.cluster = topology::MakeA100Cluster(2);
  request.axes = {8, 4};
  request.reduction_axes = {0};

  PlanWireRequest decoded;
  std::string error;
  ASSERT_TRUE(DecodePlanRequest(EncodePlanRequest(request), &decoded, &error))
      << error;
  ASSERT_TRUE(decoded.has_cluster);
  // Fingerprint covers every field the planner reads, so equal fingerprints
  // mean the cluster survived the wire intact.
  EXPECT_EQ(decoded.cluster.Fingerprint(),
            topology::MakeA100Cluster(2).Fingerprint());
  EXPECT_EQ(decoded.axes, request.axes);
}

TEST(WirePayload, PlanRequestValidationRejectsNonsense) {
  const auto expect_rejected = [](PlanWireRequest request) {
    PlanWireRequest decoded;
    std::string error;
    EXPECT_FALSE(
        DecodePlanRequest(EncodePlanRequest(request), &decoded, &error));
    EXPECT_FALSE(error.empty());
  };
  PlanWireRequest base = WireRequestFor(Configs()[0]);

  PlanWireRequest unknown_preset = base;
  unknown_preset.preset_system = "h100";
  expect_rejected(unknown_preset);

  PlanWireRequest no_axes = base;
  no_axes.axes.clear();
  expect_rejected(no_axes);

  PlanWireRequest non_positive_axis = base;
  non_positive_axis.axes = {8, 0};
  expect_rejected(non_positive_axis);

  PlanWireRequest reduction_out_of_range = base;
  reduction_out_of_range.reduction_axes = {7};
  expect_rejected(reduction_out_of_range);

  // A checksum-valid frame with trailing junk after a well-formed payload is
  // still a malformed payload: every byte must be accounted for.
  PlanWireRequest decoded;
  std::string error;
  EXPECT_FALSE(DecodePlanRequest(EncodePlanRequest(base) + "x", &decoded,
                                 &error));
  EXPECT_FALSE(error.empty());
}

TEST(WirePayload, InlineRingClustersThatCannotBeSimulatedAreRejected) {
  // An NVLink ring node routes cross-node traffic through its PCIe
  // switches: an uneven domain split leaves GPUs unconnected, and a
  // zero-bandwidth switch stalls every flow. Both are malformed requests.
  PlanWireRequest base;
  base.has_cluster = true;
  base.cluster = topology::MakeV100Cluster(2);
  base.axes = {8, 2};
  base.reduction_axes = {0};
  PlanWireRequest uneven = base;
  uneven.cluster.node.pcie_domains = 3;
  PlanWireRequest no_pcie_bandwidth = base;
  no_pcie_bandwidth.cluster.node.pcie_domains = 0;
  no_pcie_bandwidth.cluster.node.pcie_bandwidth = 0.0;
  for (const PlanWireRequest& request : {uneven, no_pcie_bandwidth}) {
    PlanWireRequest decoded;
    std::string error;
    EXPECT_FALSE(
        DecodePlanRequest(EncodePlanRequest(request), &decoded, &error));
    EXPECT_FALSE(error.empty());
  }
  // The same figures on an NVSwitch node reach nothing and decode fine.
  PlanWireRequest nvswitch = no_pcie_bandwidth;
  nvswitch.cluster.node.transport = topology::IntraNodeTransport::kNvSwitch;
  nvswitch.cluster.node.pcie_domains = 3;
  PlanWireRequest decoded;
  std::string error;
  EXPECT_TRUE(
      DecodePlanRequest(EncodePlanRequest(nvswitch), &decoded, &error))
      << error;

  // Over the wire the request answers INVALID_ARGUMENT, not INTERNAL.
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  const PlanWireResponse rejected = client.Plan(uneven);
  EXPECT_EQ(rejected.status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(rejected.message.empty());
}

TEST(WirePayload, PlanResponseAndStatusPayloadsRoundTrip) {
  PlanWireResponse response;
  response.status = WireStatus::kOk;
  response.body = "placement 0\nplacement 1\n";
  response.stats.num_placements = 12;
  response.stats.cache.hits = 7;
  response.stats.synthesis_seconds = 0.25;
  response.stats.threads = 4;

  PlanWireResponse decoded;
  std::string error;
  ASSERT_TRUE(
      DecodePlanResponse(EncodePlanResponse(response), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.status, WireStatus::kOk);
  EXPECT_EQ(decoded.body, response.body);
  EXPECT_EQ(decoded.stats.num_placements, 12);
  EXPECT_EQ(decoded.stats.cache.hits, 7);
  EXPECT_DOUBLE_EQ(decoded.stats.synthesis_seconds, 0.25);
  EXPECT_EQ(decoded.stats.threads, 4);

  WireStatus status = WireStatus::kOk;
  std::string text;
  ASSERT_TRUE(DecodeStatusPayload(
      EncodeStatusPayload(WireStatus::kResourceExhausted, "draining"),
      &status, &text));
  EXPECT_EQ(status, WireStatus::kResourceExhausted);
  EXPECT_EQ(text, "draining");
}

// ---- abort taxonomy -> wire status ----------------------------------------

// Every field of the cache record gets a distinct value through the field
// visitor, so a codec that dropped, duplicated or reordered one would fail.
PlanWireResponse ResponseWithEveryCacheCounterSet() {
  PlanWireResponse response;
  response.body = "body";
  response.stats.num_placements = 3;
  std::int64_t next = 101;
  engine::SynthesisCacheStats::ForEachField(
      [&](const char*, auto member) { response.stats.cache.*member = next++; });
  response.stats.threads = 2;
  return response;
}

TEST(WirePayload, PlanResponseCarriesEveryCacheCounter) {
  const PlanWireResponse response = ResponseWithEveryCacheCounterSet();
  PlanWireResponse decoded;
  std::string error;
  ASSERT_TRUE(
      DecodePlanResponse(EncodePlanResponse(response), &decoded, &error))
      << error;
  engine::SynthesisCacheStats::ForEachField([&](const char* name,
                                                auto member) {
    EXPECT_EQ(decoded.stats.cache.*member, response.stats.cache.*member)
        << name;
  });
  EXPECT_EQ(decoded.stats.num_placements, 3);
  EXPECT_EQ(decoded.stats.threads, 2);
}

TEST(WirePayload, PlanResponseRejectsEveryTruncationAndTrailingBytes) {
  const std::string payload =
      EncodePlanResponse(ResponseWithEveryCacheCounterSet());
  PlanWireResponse decoded;
  std::string error;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodePlanResponse(std::string_view(payload).substr(0, len),
                                    &decoded, &error))
        << "prefix of " << len << " of " << payload.size() << " bytes";
  }
  EXPECT_FALSE(DecodePlanResponse(payload + "x", &decoded, &error));
  EXPECT_TRUE(DecodePlanResponse(payload, &decoded, &error)) << error;
}

TEST(WirePayload, StatusCodesOutsideWireStatusAreRejected) {
  // Every status the planner sends survives both payload shapes...
  for (const WireStatus status :
       {WireStatus::kOk, WireStatus::kCancelled, WireStatus::kInvalidArgument,
        WireStatus::kDeadlineExceeded, WireStatus::kResourceExhausted,
        WireStatus::kInternal}) {
    PlanWireResponse response;
    response.status = status;
    PlanWireResponse decoded;
    std::string error;
    ASSERT_TRUE(
        DecodePlanResponse(EncodePlanResponse(response), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.status, status);
    WireStatus carried = WireStatus::kOk;
    std::string text;
    ASSERT_TRUE(DecodeStatusPayload(EncodeStatusPayload(status, "text"),
                                    &carried, &text));
    EXPECT_EQ(carried, status);
  }
  // ...while any other code, including gRPC codes the planner never sends,
  // is a malformed payload rather than a status to guess a meaning for.
  for (const std::uint32_t code : {2u, 5u, 12u, 14u, 99u, 0xffffffffu}) {
    PlanWireResponse response;
    response.status = static_cast<WireStatus>(code);
    PlanWireResponse decoded;
    std::string error;
    EXPECT_FALSE(
        DecodePlanResponse(EncodePlanResponse(response), &decoded, &error))
        << "code " << code;
    EXPECT_FALSE(error.empty()) << "code " << code;
    WireStatus carried = WireStatus::kOk;
    std::string text;
    EXPECT_FALSE(DecodeStatusPayload(
        EncodeStatusPayload(static_cast<WireStatus>(code), "text"), &carried,
        &text))
        << "code " << code;
  }
}

TEST(WireStatusMapping, AbortTaxonomyMapsOneToOne) {
  const auto status_for = [](std::exception_ptr error) {
    return WireStatusFor(engine::ClassifyPlanError(std::move(error)));
  };
  EXPECT_EQ(status_for(nullptr), WireStatus::kOk);
  EXPECT_EQ(status_for(std::make_exception_ptr(engine::PlanRejected("cap"))),
            WireStatus::kResourceExhausted);
  EXPECT_EQ(status_for(std::make_exception_ptr(engine::PlanCancelled("c"))),
            WireStatus::kCancelled);
  EXPECT_EQ(
      status_for(std::make_exception_ptr(engine::PlanDeadlineExceeded("d"))),
      WireStatus::kDeadlineExceeded);
  EXPECT_EQ(status_for(std::make_exception_ptr(std::invalid_argument("bad"))),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(status_for(std::make_exception_ptr(std::runtime_error("boom"))),
            WireStatus::kInternal);
}

// ---- golden bytes ---------------------------------------------------------
//
// Round trips pass even when the encoder and the decoder change together,
// e.g. through a byte-order slip in a shared writer and reader; a peer at
// the same wire version would then misread every frame. These pin whole
// frames, header and checksum included, to bytes captured at version 4.

PlanWireRequest GoldenPlanRequest() {
  PlanWireRequest request;
  request.has_cluster = true;
  topology::Cluster& cluster = request.cluster;
  cluster.node.name = "golden";
  cluster.node.gpus_per_node = 4;
  cluster.node.transport = topology::IntraNodeTransport::kNvLinkRing;
  cluster.node.local_bandwidth = 100.5;
  cluster.node.local_latency = 1e-6;
  cluster.node.pcie_domains = 2;
  cluster.node.pcie_bandwidth = 16.25;
  cluster.node.pcie_latency = 4e-6;
  cluster.node.nic_bandwidth = 12.5;
  cluster.node.nic_latency = 8e-6;
  cluster.num_nodes = 4;
  cluster.dcn_latency = 3e-5;
  cluster.racks = 2;
  cluster.rack_uplink_bandwidth = 25.0;
  cluster.rack_uplink_latency = 6e-5;
  request.axes = {4, 2, 2};
  request.reduction_axes = {0, 2};
  request.max_programs = 40;
  request.measure_top_k = 3;
  request.deadline_ms = 1500;
  return request;
}

PlanWireResponse GoldenPlanResponse() {
  PlanWireResponse response = ResponseWithEveryCacheCounterSet();
  response.body = "placement 0\n";
  response.stats.unique_hierarchies = 2;
  response.stats.synth_states_visited = 40;
  response.stats.synth_states_deduped = 41;
  response.stats.synth_branches_pruned = 42;
  response.stats.guided_skipped = 43;
  response.stats.synthesis_seconds = 0.25;
  response.stats.evaluation_seconds = 0.5;
  response.stats.total_seconds = 1.0;
  return response;
}

/// Decodes a captured frame and its payload, then re-encodes both: equal
/// bytes mean the decoders read the captured format field for field.
template <typename Payload>
std::string ReencodedFrame(const std::string& bytes,
                           bool (*decode)(std::string_view, Payload*,
                                          std::string*),
                           std::string (*encode)(const Payload&)) {
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes, &frame, &consumed), FrameDecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  Payload payload;
  std::string error;
  EXPECT_TRUE(decode(frame.payload, &payload, &error)) << error;
  return EncodeFrame(Frame{frame.type, encode(payload)});
}

constexpr const char* kGoldenPlanRequestFrame =
    "503252460400000001a0000000130abbeb5b4321320106000000676f6c64656e"
    "040000000100000000002059408dedb5a0f7c6b03e0200000000000000004030"
    "408dedb5a0f7c6d03e00000000000029408dedb5a0f7c6e03e04000000691d55"
    "4d1075ff3e020000000000000000003940691d554d10750f3f03000000040000"
    "0000000000020000000000000002000000000000000200000000000000020000"
    "00280000000000000003000000dc05000000000000";

constexpr const char* kGoldenPlanResponseFrame =
    "503252460400000002c400000094533986443e62dd00000000000000000c0000"
    "00706c6163656d656e7420300a03000000000000000200000000000000650000"
    "0000000000660000000000000067000000000000006800000000000000690000"
    "00000000006a000000000000006b000000000000006c000000000000006d0000"
    "00000000006e000000000000000000000000c05b400000000000005c40280000"
    "000000000029000000000000002a000000000000002b00000000000000000000"
    "000000d03f000000000000e03f000000000000f03f02000000";

constexpr const char* kGoldenCacheLookupHitFrame =
    "50325246040000000984000000de97dadcfb68af8501000000007b0000002900"
    "00006c6576656c733a312c323b676f616c3a5b302c315d3b73697a653c3d353b"
    "6361703d31303438353736000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000d03f01"
    "000000010000000000000000ffffffff0000f1536500000000";

TEST(WireGolden, PlanRequestWithAnInlineCluster) {
  const std::string frame = EncodeFrame(
      Frame{FrameType::kPlanRequest, EncodePlanRequest(GoldenPlanRequest())});
  EXPECT_EQ(test::Hex(frame), kGoldenPlanRequestFrame);
  EXPECT_EQ(test::Hex(ReencodedFrame(test::Unhex(kGoldenPlanRequestFrame),
                                     &DecodePlanRequest, &EncodePlanRequest)),
            kGoldenPlanRequestFrame);
}

TEST(WireGolden, PlanResponse) {
  const std::string frame =
      EncodeFrame(Frame{FrameType::kPlanResponse,
                        EncodePlanResponse(GoldenPlanResponse())});
  EXPECT_EQ(test::Hex(frame), kGoldenPlanResponseFrame);
  EXPECT_EQ(
      test::Hex(ReencodedFrame(test::Unhex(kGoldenPlanResponseFrame),
                               &DecodePlanResponse, &EncodePlanResponse)),
      kGoldenPlanResponseFrame);
}

// ---- end-to-end -----------------------------------------------------------

TEST(PlannerServerTest, ServesAPlanByteIdenticalToInProcess) {
  ServerFixture fixture;
  // The reference: the same request planned in-process, serially.
  engine::PlanRequest reference;
  reference.axes = Configs()[1].axes;
  reference.reduction_axes = Configs()[1].reduction_axes;
  reference.cluster = topology::MakeA100Cluster(2);
  const std::string expected =
      engine::CanonicalResultText(fixture.service->Plan(std::move(reference)));

  PlannerClient client(fixture.server->port());
  const PlanWireResponse response = client.Plan(WireRequestFor(Configs()[1]));
  ASSERT_EQ(response.status, WireStatus::kOk) << response.message;
  EXPECT_EQ(response.body, expected);
  EXPECT_GT(response.stats.num_placements, 0);

  const PlannerServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.plan_ok, 1);
  EXPECT_EQ(stats.plan_errors, 0);
}

TEST(PlannerServerTest, MalformedFrameGetsAnErrorFrameThenTheConnectionDies) {
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  // 32 bytes that are not a frame: the decoder loses framing at the magic.
  ASSERT_TRUE(client.SendRaw(std::string(32, 'X')));
  Frame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  WireStatus status = WireStatus::kOk;
  std::string detail;
  ASSERT_TRUE(DecodeStatusPayload(reply.payload, &status, &detail));
  EXPECT_EQ(status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(detail.empty());
  // Nothing after the bad bytes can be trusted: the connection is closed.
  Frame next;
  EXPECT_FALSE(client.ReceiveFrame(&next));
  EXPECT_GE(fixture.server->stats().malformed_frames, 1);
}

TEST(PlannerServerTest, InvalidPayloadInAValidFrameKeepsTheConnection) {
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  // The frame is pristine — magic, checksum, type all valid — but the
  // payload names a preset the server does not know.
  PlanWireRequest bogus = WireRequestFor(Configs()[0]);
  bogus.preset_system = "h100";
  const PlanWireResponse rejected = client.Plan(bogus);
  EXPECT_EQ(rejected.status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(rejected.message.empty());
  // Framing was never lost, so the same connection still serves.
  const PlanWireResponse ok = client.Plan(WireRequestFor(Configs()[0]));
  EXPECT_EQ(ok.status, WireStatus::kOk) << ok.message;
}

TEST(PlannerServerTest, ClientSentResponseFramesCloseTheConnection) {
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  Frame frame;
  frame.type = FrameType::kPlanResponse;  // only servers send these
  ASSERT_TRUE(client.SendRaw(EncodeFrame(frame)));
  Frame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  Frame next;
  EXPECT_FALSE(client.ReceiveFrame(&next));
}

TEST(PlannerServerTest, DeadlineExpiringMidFlightIsDeadlineExceeded) {
  ServerFixture fixture;
  // Every synthesis stage dawdles past the wire deadline.
  FaultScope scope([](std::string_view point) {
    if (point == "pipeline.synthesize") std::this_thread::sleep_for(50ms);
  });
  PlannerClient client(fixture.server->port());
  PlanWireRequest request = WireRequestFor(Configs()[0]);
  request.deadline_ms = 5;
  const PlanWireResponse response = client.Plan(request);
  EXPECT_EQ(response.status, WireStatus::kDeadlineExceeded)
      << response.message;
  EXPECT_EQ(fixture.server->stats().plan_errors, 1);
  EXPECT_EQ(fixture.service->stats().deadline_exceeded, 1);
}

TEST(PlannerServerTest, DrainingServiceRejectsWithResourceExhausted) {
  ServerFixture fixture;
  fixture.service->BeginDrain();
  PlannerClient client(fixture.server->port());
  const PlanWireResponse response = client.Plan(WireRequestFor(Configs()[0]));
  EXPECT_EQ(response.status, WireStatus::kResourceExhausted)
      << response.message;
  EXPECT_EQ(fixture.service->stats().rejected, 1);
}

TEST(PlannerServerTest, DrainGraceCancellationIsCancelledOnTheWire) {
  ServerFixture fixture;
  StallGate gate;
  FaultScope scope(gate.Hook());

  // One wire request parks mid-synthesis...
  PlanWireResponse response;
  std::thread requester([&] {
    PlannerClient client(fixture.server->port());
    response = client.Plan(WireRequestFor(Configs()[0]));
  });
  gate.AwaitEntered();
  // ...while a zero-grace drain cancels everything in flight. BeginDrain
  // blocks until the request settles, so it runs beside the release.
  std::thread drainer([&] { fixture.service->BeginDrain(0ms); });
  // Give the grace deadline time to fire its cancels before un-parking the
  // request; its next checkpoint then observes the cancellation.
  std::this_thread::sleep_for(100ms);
  gate.Release();
  drainer.join();
  requester.join();

  EXPECT_EQ(response.status, WireStatus::kCancelled) << response.message;
  EXPECT_EQ(fixture.service->stats().cancelled, 1);
}

TEST(PlannerServerTest, ConcurrentClientsGetByteIdenticalBodies) {
  // The oracle: expected bodies from a dedicated serial service...
  std::vector<std::string> expected;
  {
    engine::PlannerServiceOptions options;
    options.engine = FastOptions();
    engine::PlannerService reference(options);
    for (const Config& config : Configs()) {
      engine::PlanRequest request;
      request.axes = config.axes;
      request.reduction_axes = config.reduction_axes;
      request.cluster = topology::MakeA100Cluster(2);
      expected.push_back(
          engine::CanonicalResultText(reference.Plan(std::move(request))));
    }
  }

  // ...must match every body served over concurrent connections, whose
  // requests interleave arbitrarily in the shared cache and pool.
  ServerFixture fixture(/*threads=*/4);
  constexpr int kClients = 4;
  std::vector<std::vector<std::string>> bodies(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        PlannerClient client(fixture.server->port());
        for (const Config& config : Configs()) {
          const PlanWireResponse response =
              client.Plan(WireRequestFor(config));
          if (response.status != WireStatus::kOk) {
            ++failures;
            return;
          }
          bodies[t].push_back(response.body);
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& c : clients) c.join();

  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(bodies[t].size(), expected.size()) << "client " << t;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(bodies[t][i], expected[i])
          << "client " << t << " config " << i;
    }
  }
  const PlannerServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.plan_ok, kClients * static_cast<int>(Configs().size()));
  EXPECT_EQ(stats.plan_errors, 0);
}

TEST(PlannerServerTest, StatsEndpointServesWellFormedCounters) {
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  ASSERT_EQ(client.Plan(WireRequestFor(Configs()[0])).status, WireStatus::kOk);

  const PlannerClient::StatsResult stats = client.Stats();
  ASSERT_EQ(stats.status, WireStatus::kOk) << stats.json;
  ExpectBalancedJson(stats.json);
  // The server's own counters and the service's robustness/save counters
  // travel in one document — what the CI smoke greps.
  for (const char* field :
       {"\"server\":{", "\"connections\":", "\"requests\":",
        "\"stats_requests\":", "\"malformed_frames\":", "\"service\":",
        "\"rejected\":", "\"cancelled\":", "\"deadline_exceeded\":",
        "\"save_errors\":", "\"last_save_error\":"}) {
    EXPECT_NE(stats.json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(stats.json.find("\"requests\":1"), std::string::npos)
      << stats.json;
  EXPECT_GE(fixture.server->stats().stats_requests, 1);
}

// ---- cache-server plane ---------------------------------------------------

/// A fixture whose server also serves the cache plane (frames 8-11).
struct CacheServerFixture {
  explicit CacheServerFixture(int port = 0) {
    engine::PlannerServiceOptions options;
    options.threads = 2;
    options.engine = FastOptions();
    service = std::make_unique<engine::PlannerService>(options);
    PlannerServerOptions server_options;
    server_options.port = port;
    server_options.cache_server = true;
    server = std::make_unique<PlannerServer>(*service, server_options);
  }
  std::unique_ptr<engine::PlannerService> service;
  std::unique_ptr<PlannerServer> server;
};

/// A publishable entry that passes the disk codec's semantic validation
/// (same key idiom as tests/cache_store_corruption_test.cc).
engine::CacheFileEntry ValidCacheEntry() {
  engine::CacheFileEntry entry;
  entry.key = "levels:1,2;goal:[0,1];size<=5;cap=1048576";
  entry.result.stats.seconds = 0.25;
  entry.result.programs.push_back(
      core::Program{core::Instruction{0, core::Form::InsideGroup(),
                                      core::Collective::kAllReduce}});
  return entry;
}

constexpr const char* kBaseKey = "levels:1,2;goal:[0,1];size<=5";

TEST(WirePayload, CacheLookupAndPublishPayloadsRoundTrip) {
  CacheLookupWireRequest request;
  request.base_key = kBaseKey;
  request.cap = 1048576;
  CacheLookupWireRequest decoded_request;
  std::string error;
  ASSERT_TRUE(DecodeCacheLookupRequest(EncodeCacheLookupRequest(request),
                                       &decoded_request, &error))
      << error;
  EXPECT_EQ(decoded_request.base_key, request.base_key);
  EXPECT_EQ(decoded_request.cap, request.cap);

  // Every response kind survives the wire; the hit carries its entry.
  CacheLookupWireResponse hit;
  hit.kind = CacheLookupWireResponse::Kind::kHit;
  hit.entry = ValidCacheEntry();
  CacheLookupWireResponse decoded;
  ASSERT_TRUE(DecodeCacheLookupResponse(EncodeCacheLookupResponse(hit),
                                        &decoded, &error))
      << error;
  EXPECT_EQ(decoded.kind, CacheLookupWireResponse::Kind::kHit);
  EXPECT_EQ(decoded.entry.key, hit.entry.key);
  ASSERT_EQ(decoded.entry.result.programs.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.entry.result.stats.seconds, 0.25);

  CacheLookupWireResponse retry;
  retry.kind = CacheLookupWireResponse::Kind::kRetryAfter;
  retry.retry_after_ms = 40;
  ASSERT_TRUE(DecodeCacheLookupResponse(EncodeCacheLookupResponse(retry),
                                        &decoded, &error))
      << error;
  EXPECT_EQ(decoded.kind, CacheLookupWireResponse::Kind::kRetryAfter);
  EXPECT_EQ(decoded.retry_after_ms, 40);

  engine::CacheFileEntry published;
  ASSERT_TRUE(DecodeCachePublishRequest(
      EncodeCachePublishRequest(ValidCacheEntry()), &published, &error))
      << error;
  EXPECT_EQ(published.key, ValidCacheEntry().key);

  // Validation: an empty base key and a forged program are both statuses,
  // never crashes.
  CacheLookupWireRequest empty_key;
  empty_key.cap = 1;
  EXPECT_FALSE(DecodeCacheLookupRequest(EncodeCacheLookupRequest(empty_key),
                                        &decoded_request, &error));
  engine::CacheFileEntry forged = ValidCacheEntry();
  forged.result.programs[0][0].slice_level = 7;  // beyond the key's depth
  EXPECT_FALSE(DecodeCachePublishRequest(EncodeCachePublishRequest(forged),
                                         &published, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WireGolden, CacheLookupHit) {
  CacheLookupWireResponse hit;
  hit.kind = CacheLookupWireResponse::Kind::kHit;
  hit.entry = ValidCacheEntry();
  hit.entry.saved_unix_seconds = 1700000000;
  const std::string frame = EncodeFrame(Frame{
      FrameType::kCacheLookupResponse, EncodeCacheLookupResponse(hit)});
  EXPECT_EQ(test::Hex(frame), kGoldenCacheLookupHitFrame);
  EXPECT_EQ(test::Hex(ReencodedFrame(test::Unhex(kGoldenCacheLookupHitFrame),
                                     &DecodeCacheLookupResponse,
                                     &EncodeCacheLookupResponse)),
            kGoldenCacheLookupHitFrame);
}

TEST(CacheServerTest, GrantRetryPublishHitCycle) {
  CacheServerFixture fixture;
  RemoteCacheClient worker_a(fixture.server->port());
  RemoteCacheClient worker_b(fixture.server->port());

  // First asker on an unseen base is granted the synthesis...
  engine::RemoteLookupResult first = worker_a.Lookup(kBaseKey, 1048576);
  EXPECT_EQ(first.kind, engine::RemoteLookupResult::Kind::kOwned);
  // ...and the grant shields the base from the second asker.
  engine::RemoteLookupResult second = worker_b.Lookup(kBaseKey, 1048576);
  ASSERT_EQ(second.kind, engine::RemoteLookupResult::Kind::kRetryAfter);
  EXPECT_GE(second.retry_after_ms, 1);
  EXPECT_LE(second.retry_after_ms, 1000);

  // The owner publishes its completion; the next lookup is a hit that
  // round-trips the synthesis result.
  const engine::CacheFileEntry entry = ValidCacheEntry();
  EXPECT_TRUE(worker_a.Publish(entry.key, entry.result));
  engine::RemoteLookupResult third = worker_b.Lookup(kBaseKey, 1048576);
  ASSERT_EQ(third.kind, engine::RemoteLookupResult::Kind::kHit);
  EXPECT_EQ(third.key, entry.key);
  ASSERT_EQ(third.result.programs.size(), 1u);
  EXPECT_DOUBLE_EQ(third.result.stats.seconds, 0.25);

  const PlannerServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.cache_lookups, 3);
  EXPECT_EQ(stats.cache_grants, 1);
  EXPECT_EQ(stats.cache_retries, 1);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_publishes, 1);
}

TEST(CacheServerTest, CacheFramesOnANonCacheServerKeepTheConnection) {
  ServerFixture fixture;  // cache_server off
  PlannerClient client(fixture.server->port());
  CacheLookupWireRequest request;
  request.base_key = kBaseKey;
  request.cap = 1;
  Frame frame;
  frame.type = FrameType::kCacheLookupRequest;
  frame.payload = EncodeCacheLookupRequest(request);
  ASSERT_TRUE(client.SendRaw(EncodeFrame(frame)));
  Frame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  WireStatus status = WireStatus::kOk;
  std::string detail;
  ASSERT_TRUE(DecodeStatusPayload(reply.payload, &status, &detail));
  EXPECT_EQ(status, WireStatus::kInvalidArgument);
  // The frame itself was valid, so the connection still serves plans.
  EXPECT_EQ(client.Plan(WireRequestFor(Configs()[0])).status, WireStatus::kOk);
  // The cache-plane counters stay zero on a server without the plane.
  const auto stats = fixture.server->stats();
  EXPECT_EQ(stats.cache_lookups, 0);
  EXPECT_EQ(stats.cache_lookups,
            stats.cache_hits + stats.cache_grants + stats.cache_retries);
}

TEST(CacheServerTest, MalformedCachePayloadsKeepTheConnection) {
  CacheServerFixture fixture;
  PlannerClient client(fixture.server->port());

  const auto expect_invalid_argument = [&client](Frame frame) {
    ASSERT_TRUE(client.SendRaw(EncodeFrame(frame)));
    Frame reply;
    ASSERT_TRUE(client.ReceiveFrame(&reply));
    EXPECT_EQ(reply.type, FrameType::kError);
    WireStatus status = WireStatus::kOk;
    std::string detail;
    ASSERT_TRUE(DecodeStatusPayload(reply.payload, &status, &detail));
    EXPECT_EQ(status, WireStatus::kInvalidArgument);
    EXPECT_FALSE(detail.empty());
  };

  // A truncated lookup payload inside a checksum-valid frame.
  CacheLookupWireRequest request;
  request.base_key = kBaseKey;
  request.cap = 1;
  Frame truncated;
  truncated.type = FrameType::kCacheLookupRequest;
  truncated.payload = EncodeCacheLookupRequest(request);
  truncated.payload.resize(truncated.payload.size() / 2);
  expect_invalid_argument(std::move(truncated));

  // A publish whose entry fails the disk codec's semantic validation.
  engine::CacheFileEntry forged = ValidCacheEntry();
  forged.result.programs[0][0].slice_level = 7;
  Frame bad_publish;
  bad_publish.type = FrameType::kCachePublishRequest;
  bad_publish.payload = EncodeCachePublishRequest(forged);
  expect_invalid_argument(std::move(bad_publish));

  // Both malformations kept framing intact: the same connection still
  // completes the full grant cycle.
  Frame lookup;
  lookup.type = FrameType::kCacheLookupRequest;
  lookup.payload = EncodeCacheLookupRequest(request);
  ASSERT_TRUE(client.SendRaw(EncodeFrame(lookup)));
  Frame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.type, FrameType::kCacheLookupResponse);
  // Only the answered lookup counts; the truncated one got no answer.
  const auto stats = fixture.server->stats();
  EXPECT_EQ(stats.cache_lookups, 1);
  EXPECT_EQ(stats.cache_lookups,
            stats.cache_hits + stats.cache_grants + stats.cache_retries);
}

TEST(CacheServerTest, CorruptCacheFrameClosesTheConnection) {
  CacheServerFixture fixture;
  PlannerClient client(fixture.server->port());
  CacheLookupWireRequest request;
  request.base_key = kBaseKey;
  request.cap = 1;
  Frame frame;
  frame.type = FrameType::kCacheLookupRequest;
  frame.payload = EncodeCacheLookupRequest(request);
  std::string bytes = EncodeFrame(frame);
  bytes[kFrameHeaderBytes + 2] ^= 0x01;  // payload bit-flip: checksum fails
  ASSERT_TRUE(client.SendRaw(bytes));
  Frame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  // Framing is lost: the connection is done.
  Frame next;
  EXPECT_FALSE(client.ReceiveFrame(&next));
  EXPECT_GE(fixture.server->stats().malformed_frames, 1);
}

TEST(CacheServerTest, RacingWorkersSynthesizeStrictlyLessThanIndependent) {
  // The scale-out gate, in-process: what one worker synthesizes alone...
  std::vector<std::string> expected;
  std::int64_t independent_misses = 0;
  {
    engine::PlannerServiceOptions options;
    options.threads = 2;
    options.engine = FastOptions();
    engine::PlannerService reference(options);
    for (const Config& config : Configs()) {
      engine::PlanRequest request;
      request.axes = config.axes;
      request.reduction_axes = config.reduction_axes;
      request.cluster = topology::MakeA100Cluster(2);
      expected.push_back(
          engine::CanonicalResultText(reference.Plan(std::move(request))));
    }
    independent_misses = reference.stats().cache.misses;
  }
  ASSERT_GT(independent_misses, 0);

  // ...two workers racing the same grid through the shared plane must
  // synthesize strictly less than twice between them, with at least one
  // signature served off the plane — and identical bytes throughout.
  CacheServerFixture fixture;
  constexpr int kWorkers = 2;
  std::vector<std::unique_ptr<engine::PlannerService>> workers;
  for (int w = 0; w < kWorkers; ++w) {
    engine::PlannerServiceOptions options;
    options.threads = 2;
    options.engine = FastOptions();
    options.remote_cache =
        std::make_shared<RemoteCacheClient>(fixture.server->port());
    workers.push_back(std::make_unique<engine::PlannerService>(options));
  }
  std::vector<std::vector<std::string>> bodies(kWorkers);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      try {
        for (const Config& config : Configs()) {
          engine::PlanRequest request;
          request.axes = config.axes;
          request.reduction_axes = config.reduction_axes;
          request.cluster = topology::MakeA100Cluster(2);
          bodies[w].push_back(engine::CanonicalResultText(
              workers[w]->Plan(std::move(request))));
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::int64_t total_misses = 0;
  std::int64_t total_remote_hits = 0;
  std::int64_t total_remote_errors = 0;
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(bodies[w].size(), expected.size()) << "worker " << w;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(bodies[w][i], expected[i]) << "worker " << w << " config "
                                           << i;
    }
    const engine::PlannerServiceStats stats = workers[w]->stats();
    total_misses += stats.cache.misses;
    total_remote_hits += stats.cache.remote_hits;
    total_remote_errors += stats.cache.remote_errors;
  }
  EXPECT_LT(total_misses, kWorkers * independent_misses);
  EXPECT_GT(total_remote_hits, 0);
  EXPECT_EQ(total_remote_errors, 0);
}

TEST(CacheServerTest, UnreachablePlaneDegradesToLocalSynthesis) {
  // A worker pointed at a dead port must still plan — local-only, counting
  // remote errors, never throwing.
  engine::PlannerServiceOptions options;
  options.threads = 2;
  options.engine = FastOptions();
  options.remote_cache = std::make_shared<RemoteCacheClient>(1);  // nothing
  engine::PlannerService worker(options);
  engine::PlanRequest request;
  request.axes = Configs()[0].axes;
  request.reduction_axes = Configs()[0].reduction_axes;
  request.cluster = topology::MakeA100Cluster(2);
  const engine::ExperimentResult result = worker.Plan(std::move(request));
  EXPECT_GT(result.pipeline.num_placements, 0);
  const engine::PlannerServiceStats stats = worker.stats();
  EXPECT_GT(stats.cache.misses, 0);
  EXPECT_GT(stats.cache.remote_errors, 0);
  EXPECT_EQ(stats.cache.remote_hits, 0);
}

TEST(CacheServerTest, RemoteClientPicksARestartedPlaneBackUp) {
  using Kind = engine::RemoteLookupResult::Kind;
  // A port that held a plane, with nothing behind it any more.
  auto plane = std::make_unique<CacheServerFixture>();
  const int port = plane->server->port();
  plane.reset();
  RemoteCacheClient worker(port);
  EXPECT_EQ(worker.Lookup(kBaseKey, 1048576).kind, Kind::kUnavailable);
  // A plane started on that port is picked up by the same client...
  plane = std::make_unique<CacheServerFixture>(port);
  EXPECT_EQ(worker.Lookup(kBaseKey, 1048576).kind, Kind::kOwned);
  // ...and, once that plane dies under its open connection, so is the next.
  plane.reset();
  EXPECT_EQ(worker.Lookup(kBaseKey, 1048576).kind, Kind::kUnavailable);
  plane = std::make_unique<CacheServerFixture>(port);
  EXPECT_EQ(worker.Lookup(kBaseKey, 1048576).kind, Kind::kOwned);
}

TEST(PlannerServerTest, ShutdownFrameAcksOnlyAfterTheDrain) {
  ServerFixture fixture;
  PlannerClient client(fixture.server->port());
  ASSERT_EQ(client.Plan(WireRequestFor(Configs()[0])).status, WireStatus::kOk);
  EXPECT_TRUE(client.Shutdown());
  // The ack implies the service drained: new submissions are rejected.
  EXPECT_TRUE(fixture.service->draining());
  fixture.server->Wait();  // returns immediately — shutdown was requested
  fixture.server->Shutdown();
  // The listener is gone: connecting again fails.
  EXPECT_THROW(PlannerClient{fixture.server->port()}, std::runtime_error);
}

}  // namespace
}  // namespace p2::server
