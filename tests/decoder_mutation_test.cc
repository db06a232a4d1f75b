// Seeded mutation tests over every byte decoder: the P2SC cache file and
// entry decoders, the P2RF frame decoder and each of its payload decoders,
// the experiment grid's shard-block parser, and the command-line parser.
// The seed inputs come from the encoders (for command lines, the CI smoke
// argv), built here (no corpus is committed), and fixed RNG seeds
// make every run mutate the same way. Mutants are bit flips, byte
// overwrites, truncations, insertions, duplicated slices and extreme
// u32/u64 values; half of the mutated P2SC images and P2RF frames get their
// checksums recomputed, so the mutations reach the payload decoders behind
// them. Two properties hold for every mutant:
//   - no decoder crashes (the sanitizer job turns an out-of-bounds read or
//     undefined behaviour into a failure);
//   - an input a decoder accepts re-encodes to bytes that decode again and
//     re-encode identically. A command line decodes to stored options
//     instead: every integer of an accepted mutant must be stored as the
//     value of its decimal text, inside its flag's range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "engine/cache_store.h"
#include "engine/cli.h"
#include "engine/experiment_grid.h"
#include "server/wire_protocol.h"
#include "test_hex.h"
#include "topology/presets.h"

namespace p2 {
namespace {

using server::FrameType;

constexpr int kIterations = 20000;

// Written out here rather than taken from the codec, so that forging a
// valid checksum does not lean on the code under test.
std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t LoadLittleEndian(std::string_view bytes, std::size_t at,
                               int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(
             bytes[at + static_cast<std::size_t>(i)])}
         << (8 * i);
  }
  return v;
}

/// Stores the low `width` bytes of `v` at `at`, clipped at the end.
void StoreLittleEndian(std::string* bytes, std::size_t at, std::uint64_t v,
                       int width) {
  for (int i = 0; i < width; ++i) {
    const std::size_t index = at + static_cast<std::size_t>(i);
    if (index >= bytes->size()) return;
    (*bytes)[index] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

class Mutator {
 public:
  explicit Mutator(std::uint32_t seed) : rng_(seed) {}

  /// One to three random mutations of `bytes`.
  std::string Mutate(std::string bytes) {
    const std::size_t rounds = Below(3) + 1;
    for (std::size_t r = 0; r < rounds; ++r) MutateOnce(&bytes);
    return bytes;
  }

 private:
  /// Uniform in [0, n); n > 0.
  std::size_t Below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  char RandomByte() { return static_cast<char>(Below(256)); }

  void MutateOnce(std::string* bytes) {
    switch (Below(6)) {
      case 0:  // bit flip
        if (!bytes->empty()) {
          (*bytes)[Below(bytes->size())] ^= static_cast<char>(1 << Below(8));
        }
        break;
      case 1:  // byte overwrite
        if (!bytes->empty()) (*bytes)[Below(bytes->size())] = RandomByte();
        break;
      case 2:  // truncation
        bytes->resize(Below(bytes->size() + 1));
        break;
      case 3: {  // insertion of 1-8 random bytes
        std::string inserted(Below(8) + 1, '\0');
        for (char& c : inserted) c = RandomByte();
        bytes->insert(Below(bytes->size() + 1), inserted);
        break;
      }
      case 4: {  // a slice of up to 16 bytes duplicated elsewhere
        if (bytes->empty()) break;
        const std::size_t begin = Below(bytes->size());
        const std::size_t length =
            Below(std::min<std::size_t>(16, bytes->size() - begin)) + 1;
        const std::string slice = bytes->substr(begin, length);
        bytes->insert(Below(bytes->size() + 1), slice);
        break;
      }
      case 5: {  // an extreme u32/u64 over whatever field sits there
        static constexpr std::uint64_t kExtremes[] = {
            0,          0x7fffffffull,         0x80000000ull,
            0xffffffff, 0x7fffffffffffffffull, 0x8000000000000000ull,
            ~0ull};
        if (bytes->empty()) break;
        const std::uint64_t v = kExtremes[Below(std::size(kExtremes))];
        StoreLittleEndian(bytes, Below(bytes->size()), v,
                          Below(2) == 0 ? 4 : 8);
        break;
      }
    }
  }

  std::mt19937 rng_;
};

/// One decoder under test as "decode; on success, re-encode into
/// `reencoded`". False when the decoder rejects the input.
using Codec =
    std::function<bool(std::string_view input, std::string* reencoded)>;

/// Runs `input` through `codec`; when it is accepted, its re-encoding must
/// decode again and re-encode to the same bytes. Returns whether `input`
/// was accepted.
bool ExpectStableIfAccepted(const Codec& codec, std::string_view input) {
  std::string once;
  if (!codec(input, &once)) return false;
  std::string twice;
  EXPECT_TRUE(codec(once, &twice))
      << "the re-encoding of an accepted input is rejected; input "
      << test::Hex(input);
  EXPECT_EQ(twice, once) << "input " << test::Hex(input);
  return true;
}

// ---- seeds ----------------------------------------------------------------

std::vector<engine::CacheFileEntry> SeedEntries() {
  engine::CacheFileEntry shallow;
  shallow.key = "levels:1,2;goal:[0,1];size<=5;cap=1048576";
  shallow.result.stats.states_visited = 12;
  shallow.result.stats.seconds = 0.25;
  shallow.result.programs = {{core::Instruction{
      0, core::Form::InsideGroup(), core::Collective::kAllReduce}}};
  shallow.saved_unix_seconds = 1700000000;
  engine::CacheFileEntry deep;
  deep.key = "levels:2,2,4;goal:[0,1,2];size<=3;cap=64";
  deep.result.stats.instructions_tried = 345;
  deep.result.stats.alphabet_size = 18;
  deep.result.programs = {
      {core::Instruction{2, core::Form::Parallel(0),
                         core::Collective::kReduceScatter},
       core::Instruction{1, core::Form::Master(0), core::Collective::kReduce},
       core::Instruction{2, core::Form::InsideGroup(),
                         core::Collective::kAllGather}},
      {core::Instruction{2, core::Form::InsideGroup(),
                         core::Collective::kAllReduce}}};
  return {shallow, deep};
}

server::PlanWireRequest SeedPresetRequest() {
  server::PlanWireRequest request;
  request.preset_system = "a100";
  request.preset_nodes = 2;
  request.axes = {8, 2, 2};
  request.reduction_axes = {0, 2};
  request.max_programs = 40;
  request.measure_top_k = 3;
  request.deadline_ms = 1500;
  return request;
}

server::PlanWireRequest SeedClusterRequest() {
  server::PlanWireRequest request = SeedPresetRequest();
  request.has_cluster = true;
  request.cluster = topology::MakeV100Cluster(2);
  request.cluster.racks = 2;
  request.cluster.rack_uplink_bandwidth = 12.5;
  return request;
}

server::PlanWireResponse SeedPlanResponse() {
  server::PlanWireResponse response;
  response.body = "placement 0\nprogram AR(slice=L1, InsideGroup)\n";
  response.stats.num_placements = 12;
  response.stats.cache.hits = 7;
  response.stats.cache.misses = 5;
  response.stats.synthesis_seconds = 0.25;
  response.stats.threads = 4;
  return response;
}

server::CacheLookupWireResponse SeedLookupResponse(
    server::CacheLookupWireResponse::Kind kind) {
  server::CacheLookupWireResponse response;
  response.kind = kind;
  if (kind == server::CacheLookupWireResponse::Kind::kHit) {
    response.entry = SeedEntries()[1];
  } else if (kind == server::CacheLookupWireResponse::Kind::kRetryAfter) {
    response.retry_after_ms = 40;
  }
  return response;
}

/// A frame of every type the encoders produce, several shapes where a type
/// has them.
std::vector<server::Frame> SeedFrames() {
  using Kind = server::CacheLookupWireResponse::Kind;
  return {
      {FrameType::kPlanRequest,
       server::EncodePlanRequest(SeedPresetRequest())},
      {FrameType::kPlanRequest,
       server::EncodePlanRequest(SeedClusterRequest())},
      {FrameType::kPlanResponse,
       server::EncodePlanResponse(SeedPlanResponse())},
      {FrameType::kStatsRequest, ""},
      {FrameType::kStatsResponse,
       server::EncodeStatusPayload(server::WireStatus::kOk,
                                   "{\"server\":{\"requests\":1}}")},
      {FrameType::kError,
       server::EncodeStatusPayload(server::WireStatus::kInvalidArgument,
                                   "bad plan request: axis count")},
      {FrameType::kShutdownRequest, ""},
      {FrameType::kShutdownResponse, ""},
      {FrameType::kCacheLookupRequest,
       server::EncodeCacheLookupRequest(
           {"levels:1,2;goal:[0,1];size<=5", 1048576})},
      {FrameType::kCacheLookupResponse,
       server::EncodeCacheLookupResponse(SeedLookupResponse(Kind::kHit))},
      {FrameType::kCacheLookupResponse,
       server::EncodeCacheLookupResponse(SeedLookupResponse(Kind::kOwned))},
      {FrameType::kCacheLookupResponse,
       server::EncodeCacheLookupResponse(
           SeedLookupResponse(Kind::kRetryAfter))},
      {FrameType::kCachePublishRequest,
       server::EncodeCachePublishRequest(SeedEntries()[0])},
      {FrameType::kCachePublishResponse,
       server::EncodeStatusPayload(server::WireStatus::kOk, "")},
  };
}

// ---- codecs ---------------------------------------------------------------

bool ReencodeCacheFile(std::string_view input, std::string* reencoded) {
  const engine::CacheFileContents contents =
      engine::CacheStore::DecodeFile(input);
  if (contents.status != engine::CacheLoadStatus::kOk) {
    EXPECT_TRUE(contents.entries.empty()) << "a rejected file kept entries";
    return false;
  }
  *reencoded = engine::CacheStore::EncodeFile(contents.entries);
  return true;
}

bool ReencodeCacheEntry(std::string_view input, std::string* reencoded) {
  engine::CacheFileEntry entry;
  if (!engine::CacheStore::DecodeEntry(input, &entry)) return false;
  *reencoded = engine::CacheStore::EncodeEntry(entry);
  return true;
}

bool ReencodeFrame(std::string_view input, std::string* reencoded) {
  server::Frame frame;
  std::size_t consumed = 0;
  if (server::DecodeFrame(input, &frame, &consumed) !=
      server::FrameDecodeStatus::kOk) {
    return false;
  }
  EXPECT_LE(consumed, input.size());
  *reencoded = server::EncodeFrame(frame);
  return true;
}

/// A payload codec's `Decode(input, &value, &error)` and `Encode(value)` as
/// a Codec.
template <typename Value>
Codec CodecOf(bool (*decode)(std::string_view, Value*, std::string*),
              std::string (*encode)(const Value&)) {
  return [decode, encode](std::string_view input, std::string* reencoded) {
    Value value;
    std::string error;
    if (!decode(input, &value, &error)) return false;
    *reencoded = encode(value);
    return true;
  };
}

/// The payload decoder of frame type `type`.
Codec PayloadCodec(FrameType type) {
  switch (type) {
    case FrameType::kPlanRequest:
      return CodecOf(&server::DecodePlanRequest, &server::EncodePlanRequest);
    case FrameType::kPlanResponse:
      return CodecOf(&server::DecodePlanResponse, &server::EncodePlanResponse);
    case FrameType::kStatsResponse:
    case FrameType::kError:
    case FrameType::kCachePublishResponse:
      return [](std::string_view input, std::string* reencoded) {
        server::WireStatus status = server::WireStatus::kOk;
        std::string text;
        if (!server::DecodeStatusPayload(input, &status, &text)) return false;
        *reencoded = server::EncodeStatusPayload(status, text);
        return true;
      };
    case FrameType::kCacheLookupRequest:
      return CodecOf(&server::DecodeCacheLookupRequest,
                     &server::EncodeCacheLookupRequest);
    case FrameType::kCacheLookupResponse:
      return CodecOf(&server::DecodeCacheLookupResponse,
                     &server::EncodeCacheLookupResponse);
    case FrameType::kCachePublishRequest:
      return CodecOf(&server::DecodeCachePublishRequest,
                     &server::EncodeCachePublishRequest);
    case FrameType::kStatsRequest:
    case FrameType::kShutdownRequest:
    case FrameType::kShutdownResponse:
      break;  // no payload, and nothing decodes one
  }
  return [](std::string_view, std::string*) { return false; };
}

bool ReencodeShardBlocks(std::string_view input, std::string* reencoded) {
  std::vector<engine::ShardBlock> blocks;
  std::string error;
  if (!engine::ParseShardBlocks(input, &blocks, &error)) return false;
  reencoded->clear();
  for (const engine::ShardBlock& block : blocks) {
    *reencoded += engine::RenderShardBlock(block);
  }
  return true;
}

// ---- checksum re-stamping -------------------------------------------------

/// Recomputes each P2SC entry checksum over the payload its (possibly
/// mutated) length field frames, as far as whole entries reach.
void RestampEntryChecksums(std::string* image) {
  constexpr std::size_t kHeaderBytes = 16;
  constexpr std::size_t kEntryFrameBytes = 12;
  std::size_t pos = kHeaderBytes;
  while (pos + kEntryFrameBytes <= image->size()) {
    const std::uint64_t length = LoadLittleEndian(*image, pos, 4);
    if (length > image->size() - pos - kEntryFrameBytes) break;
    const std::string_view payload =
        std::string_view(*image).substr(pos + kEntryFrameBytes, length);
    StoreLittleEndian(image, pos + 4, Fnv1a64(payload), 8);
    pos += kEntryFrameBytes + length;
  }
}

/// Recomputes a P2RF frame checksum over the payload bytes present, up to
/// the (possibly mutated) length field.
void RestampFrameChecksum(std::string* frame) {
  if (frame->size() < server::kFrameHeaderBytes) return;
  const std::uint64_t length = LoadLittleEndian(*frame, 9, 4);
  const std::string_view payload =
      std::string_view(*frame).substr(server::kFrameHeaderBytes, length);
  StoreLittleEndian(frame, 13, Fnv1a64(payload), 8);
}

// ---- the mutation runs ----------------------------------------------------

TEST(DecoderMutation, CacheFileImagesAndEntries) {
  const std::vector<engine::CacheFileEntry> entries = SeedEntries();
  const std::string image = engine::CacheStore::EncodeFile(entries);
  std::vector<std::string> payloads;
  for (const engine::CacheFileEntry& entry : entries) {
    payloads.push_back(engine::CacheStore::EncodeEntry(entry));
  }
  Mutator mutator(20261017);
  int accepted_files = 0;
  int accepted_entries = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    std::string file = mutator.Mutate(image);
    if (i % 2 == 0) RestampEntryChecksums(&file);
    accepted_files += ExpectStableIfAccepted(ReencodeCacheFile, file);
    const std::string& payload =
        payloads[static_cast<std::size_t>(i) % payloads.size()];
    accepted_entries +=
        ExpectStableIfAccepted(ReencodeCacheEntry, mutator.Mutate(payload));
  }
  RecordProperty("accepted_files", accepted_files);
  RecordProperty("accepted_entries", accepted_entries);
  // The budget has to reach the accepting paths, or the property is vacuous.
  EXPECT_GT(accepted_files, 0);
  EXPECT_GT(accepted_entries, 0);
}

TEST(DecoderMutation, WireFramesAndTheirPayloads) {
  const std::vector<server::Frame> seeds = SeedFrames();
  Mutator mutator(20261018);
  int accepted_frames = 0;
  int accepted_payloads = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const server::Frame& seed =
        seeds[static_cast<std::size_t>(i) % seeds.size()];
    std::string bytes = mutator.Mutate(server::EncodeFrame(seed));
    if (i % 2 == 0) RestampFrameChecksum(&bytes);
    if (!ExpectStableIfAccepted(ReencodeFrame, bytes)) continue;
    ++accepted_frames;
    server::Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(server::DecodeFrame(bytes, &frame, &consumed),
              server::FrameDecodeStatus::kOk);
    accepted_payloads +=
        ExpectStableIfAccepted(PayloadCodec(frame.type), frame.payload);
  }
  RecordProperty("accepted_frames", accepted_frames);
  RecordProperty("accepted_payloads", accepted_payloads);
  EXPECT_GT(accepted_frames, 0);
  EXPECT_GT(accepted_payloads, 0);
}

TEST(DecoderMutation, WirePayloads) {
  std::vector<server::Frame> seeds = SeedFrames();
  std::erase_if(seeds,
                [](const server::Frame& seed) { return seed.payload.empty(); });
  Mutator mutator(20261019);
  int accepted = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const server::Frame& seed =
        seeds[static_cast<std::size_t>(i) % seeds.size()];
    accepted += ExpectStableIfAccepted(PayloadCodec(seed.type),
                                       mutator.Mutate(seed.payload));
  }
  RecordProperty("accepted_payloads", accepted);
  EXPECT_GT(accepted, 0);
}

TEST(DecoderMutation, ShardBlocks) {
  std::string text;
  for (const engine::ShardBlock& block :
       {engine::ShardBlock{0, "[64] reduce {0}", "placement 0\nbest AR\n"},
        engine::ShardBlock{3, "[8 8] reduce {1}", ""},
        engine::ShardBlock{12, "[4 2 8] reduce {0,2}", "a\n\nb"}}) {
    text += engine::RenderShardBlock(block);
  }
  Mutator mutator(20261020);
  int accepted = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    accepted += ExpectStableIfAccepted(ReencodeShardBlocks,
                                       mutator.Mutate(text));
  }
  RecordProperty("accepted_texts", accepted);
  EXPECT_GT(accepted, 0);
}

// ---- command lines --------------------------------------------------------

/// A command line as one byte string, one argument per line.
std::string JoinArgs(const std::vector<std::string>& args) {
  std::string line;
  for (const std::string& arg : args) line += arg + '\n';
  return line;
}

std::vector<std::string> SplitArgs(const std::string& line) {
  std::vector<std::string> args;
  std::size_t begin = 0;
  for (std::size_t end; (end = line.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    args.push_back(line.substr(begin, end - begin));
  }
  if (begin < line.size()) args.push_back(line.substr(begin));
  return args;
}

/// The value after the last `--name=` in `args`: the one a parser keeps.
std::optional<std::string> LastValue(const std::vector<std::string>& args,
                                     const std::string& name) {
  std::optional<std::string> value;
  for (const std::string& arg : args) {
    if (arg.starts_with(name + "=")) value = arg.substr(name.size() + 1);
  }
  return value;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  for (std::size_t end; (end = text.find(',', begin)) != std::string::npos;
       begin = end + 1) {
    items.push_back(text.substr(begin, end - begin));
  }
  items.push_back(text.substr(begin));
  return items;
}

/// Expects `stored` to be the value of the decimal `text`, in [min, max].
/// The reference conversion is strtoll, not the parser under test.
void ExpectStoredAsTyped(std::int64_t stored, const std::string& text,
                         std::int64_t min, std::int64_t max,
                         const std::string& line) {
  const bool decimal =
      !text.empty() && text != "-" &&
      text.find_first_not_of("0123456789", text[0] == '-' ? 1 : 0) ==
          std::string::npos;
  ASSERT_TRUE(decimal) << "accepted \"" << text << "\" in " << test::Hex(line);
  errno = 0;
  const long long value = std::strtoll(text.c_str(), nullptr, 10);
  ASSERT_NE(errno, ERANGE) << text << " in " << test::Hex(line);
  EXPECT_EQ(stored, value) << text << " in " << test::Hex(line);
  EXPECT_GE(stored, min) << text;
  EXPECT_LE(stored, max) << text;
}

/// Checks an integer flag, a list or a scalar, against its last value.
template <typename T>
void ExpectFlagAsTyped(const std::vector<std::string>& args,
                       const std::string& name, const std::vector<T>& stored,
                       std::int64_t min, std::int64_t max,
                       const std::string& line) {
  const std::optional<std::string> text = LastValue(args, name);
  if (!text.has_value()) return;
  const std::vector<std::string> items = SplitList(*text);
  ASSERT_EQ(items.size(), stored.size()) << name << " in " << test::Hex(line);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ExpectStoredAsTyped(stored[i], items[i], min, max, line);
  }
}

TEST(DecoderMutation, CommandLines) {
  // The CI smoke command lines of p2_plan, --topology included, and the
  // same flags at their upper bounds, where one mutated digit overflows.
  const std::string cli_seeds[] = {
      JoinArgs({"--axes=8,4", "--reduce=0", "--nodes=2", "--payload-mb=100",
                "--top-k=3", "--cache-file=/tmp/p2_synth_cache.bin"}),
      JoinArgs({"--grid", "--topology=a100:1,v100:2", "--payload-mb=100",
                "--top-k=1", "--service-threads=4"}),
      JoinArgs({"--axes=9223372036854775807,1", "--reduce=2147483647",
                "--nodes=65536", "--payload-mb=9223372036854775807",
                "--top-k=2147483647", "--service-threads=1024"}),
      JoinArgs({"--grid", "--topology=a100:65536,v100:65536"}),
  };
  constexpr std::int64_t kInt64Max = INT64_MAX;
  constexpr std::int64_t kIntMax = INT32_MAX;
  Mutator mutator(20261021);
  int accepted_cli = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::string line = mutator.Mutate(
        cli_seeds[static_cast<std::size_t>(i) % std::size(cli_seeds)]);
    const std::vector<std::string> args = SplitArgs(line);
    std::string error;
    const std::optional<engine::CliOptions> opts =
        engine::ParseCliOptions(args, &error);
    if (!opts.has_value()) continue;
    ++accepted_cli;
    if (opts->topologies.empty()) {
      ExpectFlagAsTyped<int>(args, "--nodes", {opts->nodes}, 1,
                             topology::kMaxNodes, line);
    }
    ExpectFlagAsTyped(args, "--axes", opts->axes, 1, kInt64Max, line);
    ExpectFlagAsTyped(args, "--reduce", opts->reduction_axes, 0, kIntMax,
                      line);
    ExpectFlagAsTyped<std::int64_t>(args, "--payload-mb", {opts->payload_mb},
                                    1, kInt64Max, line);
    ExpectFlagAsTyped<int>(args, "--top-k", {opts->top_k}, 0, kIntMax, line);
    ExpectFlagAsTyped<int>(args, "--service-threads", {opts->service_threads},
                           1, 1024, line);
    // --topology presets append across flags, in order; like getline, the
    // preset parser reads no entry after a trailing comma.
    std::vector<std::string> presets;
    for (const std::string& arg : args) {
      if (!arg.starts_with("--topology=")) continue;
      std::vector<std::string> entries = SplitList(arg.substr(11));
      if (entries.size() > 1 && entries.back().empty()) entries.pop_back();
      for (const std::string& entry : entries) {
        presets.push_back(entry.substr(entry.find(':') + 1));
      }
    }
    ASSERT_EQ(presets.size(), opts->topologies.size()) << test::Hex(line);
    for (std::size_t p = 0; p < presets.size(); ++p) {
      ExpectStoredAsTyped(opts->topologies[p].nodes, presets[p], 1,
                          topology::kMaxNodes, line);
    }
  }
  RecordProperty("accepted_cli", accepted_cli);
  EXPECT_GT(accepted_cli, 0);

  // A table with one row of every kind, through ParseFlags directly.
  bool on = false;
  int small = 0;
  std::int64_t big = 0;
  std::string path;
  std::vector<int> ints;
  std::vector<std::int64_t> longs;
  const std::vector<Flag> table = {
      {"on", &on, ""},
      {"small", &small, "", -5},
      {"big", &big, "", 0},
      {"path", &path, ""},
      {"ints", &ints, "", 0, 100},
      {"longs", &longs, "", 1},
      {"mode",
       [](const std::string& value, std::string* error) {
         *error = "must be a";
         return value == "a";
       },
       ""},
  };
  const std::string table_seed =
      JoinArgs({"--on", "--small=2147483647", "--big=9223372036854775807",
                "--path=/tmp/x", "--ints=0,7,100", "--longs=1,2", "--mode=a",
                "file.txt"});
  int accepted_table = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::string line = mutator.Mutate(table_seed);
    const std::vector<std::string> args = SplitArgs(line);
    small = 0;
    big = 0;
    ints.clear();
    longs.clear();
    std::vector<std::string> positional;
    std::string error;
    // Every other mutant allows no positional argument.
    if (!ParseFlags(args, table, "", i % 2 == 0 ? &positional : nullptr,
                    &error)) {
      EXPECT_FALSE(error.empty()) << test::Hex(line);
      continue;
    }
    ++accepted_table;
    ExpectFlagAsTyped<int>(args, "--small", {small}, -5, kIntMax, line);
    ExpectFlagAsTyped<std::int64_t>(args, "--big", {big}, 0, kInt64Max, line);
    ExpectFlagAsTyped(args, "--ints", ints, 0, 100, line);
    ExpectFlagAsTyped(args, "--longs", longs, 1, kInt64Max, line);
  }
  RecordProperty("accepted_table", accepted_table);
  EXPECT_GT(accepted_table, 0);
}

}  // namespace
}  // namespace p2
