// Round-trip property tests for the persistent synthesis cache (ISSUE 3):
// encode/decode over randomized hierarchies must reproduce every program
// element-wise and every stats field bit-for-bit, the signature key must be
// stable across global-device renumbering (so a cache written under one
// placement warms an isomorphic one), and equal caches must serialize to
// byte-identical files. The v2 image is pinned to golden bytes, and a
// hand-written v1 image still loads.
#include "engine/cache_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include "test_hex.h"
#include "test_temp_path.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {
namespace {

using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

std::string TempPath(const std::string& tag) {
  return p2::test::TempPath("p2_cache_store_test", tag);
}

// A single-axis placement whose reduction axis factors as `factors` over the
// hardware levels: under kReductionAxes its synthesis hierarchy is exactly
// root + factors, which lets the test dial depth and level sizes directly.
SynthesisHierarchy HierarchyWithLevels(
    const std::vector<std::int64_t>& factors) {
  const ParallelismMatrix m({factors});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// Randomized hierarchies over the ISSUE's grid — depths 1-4, level sizes 2-5
// — with the total synthesis-device count capped so the suite stays fast.
std::vector<SynthesisHierarchy> RandomHierarchies() {
  std::mt19937 rng(20260729);
  std::uniform_int_distribution<std::int64_t> size_dist(2, 5);
  std::vector<SynthesisHierarchy> hierarchies;
  for (int depth = 1; depth <= 4; ++depth) {
    for (int sample = 0; sample < 3; ++sample) {
      std::vector<std::int64_t> factors;
      std::int64_t product = 1;
      for (int d = 0; d < depth; ++d) {
        std::int64_t f = size_dist(rng);
        while (f > 2 && product * f > 120) --f;
        if (product * f > 120) f = 1;  // keep deep samples within budget
        factors.push_back(f);
        product *= f;
      }
      hierarchies.push_back(HierarchyWithLevels(factors));
    }
  }
  return hierarchies;
}

void ExpectSameResult(const core::SynthesisResult& a,
                      const core::SynthesisResult& b) {
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(a.programs[i], b.programs[i]) << "program " << i;
  }
  EXPECT_EQ(a.stats.instructions_tried, b.stats.instructions_tried);
  EXPECT_EQ(a.stats.applications_succeeded, b.stats.applications_succeeded);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped);
  EXPECT_EQ(a.stats.branches_pruned, b.stats.branches_pruned);
  EXPECT_EQ(a.stats.alphabet_size, b.stats.alphabet_size);
  EXPECT_EQ(a.stats.seconds, b.stats.seconds);  // bit-exact through the codec
}

TEST(CacheStoreCodec, EntryRoundTripsOverRandomizedHierarchies) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  for (const auto& sh : RandomHierarchies()) {
    CacheFileEntry entry;
    entry.key = SynthesisCache::Key(sh, options);
    entry.result = core::SynthesizePrograms(sh, options);

    const std::string payload = CacheStore::EncodeEntry(entry);
    CacheFileEntry decoded;
    ASSERT_TRUE(CacheStore::DecodeEntry(payload, &decoded))
        << "key " << entry.key;
    EXPECT_EQ(decoded.key, entry.key);
    ExpectSameResult(decoded.result, entry.result);
  }
}

TEST(CacheStoreCodec, FileImageRoundTripsAllEntries) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  std::vector<CacheFileEntry> entries;
  for (const auto& sh : RandomHierarchies()) {
    CacheFileEntry entry;
    entry.key = SynthesisCache::Key(sh, options);
    entry.result = core::SynthesizePrograms(sh, options);
    entries.push_back(std::move(entry));
  }
  const std::string image = CacheStore::EncodeFile(entries);
  const CacheFileContents contents = CacheStore::DecodeFile(image);
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk) << contents.message;
  ASSERT_EQ(contents.entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(contents.entries[i].key, entries[i].key);
    ExpectSameResult(contents.entries[i].result, entries[i].result);
  }
}

TEST(CacheStoreCodec, EmptyFileImageIsValid) {
  const std::string image = CacheStore::EncodeFile({});
  const CacheFileContents contents = CacheStore::DecodeFile(image);
  EXPECT_EQ(contents.status, CacheLoadStatus::kOk);
  EXPECT_TRUE(contents.entries.empty());
}

TEST(CacheStore, SaveThenLoadServesIdenticalProgramsFromDisk) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  const auto hierarchies = RandomHierarchies();

  SynthesisCache cache;
  for (const auto& sh : hierarchies) cache.GetOrSynthesize(sh, options);
  const std::size_t unique = cache.size();

  const std::string path = TempPath("roundtrip");
  CacheStore store(path);
  ASSERT_TRUE(store.Save(cache));
  EXPECT_EQ(store.entries_saved(), static_cast<std::int64_t>(unique));

  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk)
      << reader.last_load_message();
  EXPECT_EQ(reader.entries_loaded(), static_cast<std::int64_t>(unique));
  EXPECT_EQ(warmed.size(), unique);

  for (const auto& sh : hierarchies) {
    const auto served = warmed.GetOrSynthesize(sh, options);
    // Served from disk: zero synthesis happened in "this process"...
    EXPECT_EQ(served->stats.seconds, 0.0);
    // ...yet the programs are element-wise identical to a fresh synthesis.
    const auto fresh = core::SynthesizePrograms(sh, options);
    ASSERT_EQ(served->programs.size(), fresh.programs.size());
    for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
      EXPECT_EQ(served->programs[i], fresh.programs[i]);
    }
  }
  EXPECT_EQ(warmed.stats().misses, 0);
  EXPECT_EQ(warmed.stats().disk_hits, warmed.stats().hits);
  EXPECT_GE(warmed.stats().disk_seconds_saved, 0.0);
  std::filesystem::remove(path);
}

TEST(CacheStore, KeyIsStableAcrossDeviceRenumbering) {
  // Two placements of axes (8, 2, 2) differing only in where the
  // non-reduction axes land: isomorphic synthesis problems, so a cache file
  // written under one must warm the other.
  const ParallelismMatrix ma({{1, 8}, {1, 2}, {2, 1}});
  const ParallelismMatrix mb({{1, 8}, {2, 1}, {1, 2}});
  const std::vector<int> raxes = {0};
  const auto sha = SynthesisHierarchy::Build(
      ma, raxes, SynthesisHierarchyKind::kReductionAxes);
  const auto shb = SynthesisHierarchy::Build(
      mb, raxes, SynthesisHierarchyKind::kReductionAxes);
  const core::SynthesisOptions options;
  ASSERT_EQ(SynthesisCache::Key(sha, options),
            SynthesisCache::Key(shb, options));

  SynthesisCache cache;
  cache.GetOrSynthesize(sha, options);
  const std::string path = TempPath("renumbering");
  CacheStore store(path);
  ASSERT_TRUE(store.Save(cache));

  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk);
  warmed.GetOrSynthesize(shb, options);  // the *renumbered* placement
  EXPECT_EQ(warmed.stats().disk_hits, 1);
  EXPECT_EQ(warmed.stats().misses, 0);
  std::filesystem::remove(path);
}

TEST(CacheStore, FilesAreByteIdenticalRegardlessOfInsertionOrder) {
  core::SynthesisOptions options;
  options.max_program_size = 2;
  const auto a = HierarchyWithLevels({2, 2});
  const auto b = HierarchyWithLevels({4});
  const auto c = HierarchyWithLevels({3, 2});

  SynthesisCache forward;
  for (const auto* sh : {&a, &b, &c}) forward.GetOrSynthesize(*sh, options);
  SynthesisCache backward;
  for (const auto* sh : {&c, &b, &a}) backward.GetOrSynthesize(*sh, options);

  // The snapshot is key-sorted, so the only difference between the two
  // caches — insertion order and measured wall-clock — must not leak into
  // the file image beyond the seconds field. Zero that out by comparing the
  // decoded forms, then check the framing by comparing keys per slot.
  const std::string path_f = TempPath("order_f");
  const std::string path_b = TempPath("order_b");
  ASSERT_TRUE(CacheStore(path_f).Save(forward));
  ASSERT_TRUE(CacheStore(path_b).Save(backward));
  const auto decoded_f = CacheStore(path_f).Load();
  const auto decoded_b = CacheStore(path_b).Load();
  ASSERT_EQ(decoded_f.status, CacheLoadStatus::kOk);
  ASSERT_EQ(decoded_b.status, CacheLoadStatus::kOk);
  ASSERT_EQ(decoded_f.entries.size(), decoded_b.entries.size());
  for (std::size_t i = 0; i < decoded_f.entries.size(); ++i) {
    EXPECT_EQ(decoded_f.entries[i].key, decoded_b.entries[i].key);
    ASSERT_EQ(decoded_f.entries[i].result.programs.size(),
              decoded_b.entries[i].result.programs.size());
    for (std::size_t p = 0; p < decoded_f.entries[i].result.programs.size();
         ++p) {
      EXPECT_EQ(decoded_f.entries[i].result.programs[p],
                decoded_b.entries[i].result.programs[p]);
    }
  }
  std::filesystem::remove(path_f);
  std::filesystem::remove(path_b);
}

TEST(CacheStore, PersistedSecondsSurviveARoundTripForAccounting) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  const auto sh = HierarchyWithLevels({2, 2, 2});

  SynthesisCache cache;
  const auto result = cache.GetOrSynthesize(sh, options);
  const double original_seconds = result->stats.seconds;

  const std::string path = TempPath("seconds");
  ASSERT_TRUE(CacheStore(path).Save(cache));

  // Load, hit from disk, and re-save: the persisted wall-clock must survive
  // even though the served result reports zero synthesis time.
  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk);
  warmed.GetOrSynthesize(sh, options);
  EXPECT_EQ(warmed.stats().disk_seconds_saved, original_seconds);
  ASSERT_TRUE(reader.Save(warmed));

  const auto contents = CacheStore(path).Load();
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk);
  ASSERT_EQ(contents.entries.size(), 1u);
  EXPECT_EQ(contents.entries[0].result.stats.seconds, original_seconds);
  std::filesystem::remove(path);
}

TEST(CacheStore, MissingFileIsACleanColdStart) {
  CacheStore store(TempPath("missing"));
  const auto contents = store.Load();
  EXPECT_EQ(contents.status, CacheLoadStatus::kNoFile);
  EXPECT_FALSE(IsCorrupt(contents.status));
  EXPECT_TRUE(contents.entries.empty());

  SynthesisCache cache;
  EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kNoFile);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(store.entries_loaded(), 0);
}


// ---- golden bytes ---------------------------------------------------------
//
// Round trips pass even when the encoder and the decoder change together,
// e.g. through a byte-order slip in a shared writer and reader. Files that
// earlier runs wrote would then stop loading, so the format is pinned to
// bytes captured from the v2 encoder and to a v1 image written out by hand.

// Every field holds a distinct value, and the second entry sets high bytes,
// so a dropped, swapped or re-ordered field changes the image.
std::vector<CacheFileEntry> GoldenEntries() {
  CacheFileEntry a;
  a.key = "levels:2,4;goal:[0,1];size<=3;cap=64";
  a.result.stats.instructions_tried = 11;
  a.result.stats.applications_succeeded = 7;
  a.result.stats.states_visited = 5;
  a.result.stats.states_deduped = 3;
  a.result.stats.branches_pruned = 2;
  a.result.stats.alphabet_size = 9;
  a.result.stats.seconds = 0.125;
  a.result.programs = {
      {core::Instruction{1, core::Form::Parallel(0),
                         core::Collective::kReduceScatter},
       core::Instruction{0, core::Form::InsideGroup(),
                         core::Collective::kAllReduce}},
      {core::Instruction{1, core::Form::Master(0),
                         core::Collective::kBroadcast}}};
  a.saved_unix_seconds = 1700000000;
  CacheFileEntry b;
  b.key = "levels:8;goal:[0];size<=1;cap=2";
  b.result.stats.instructions_tried = std::int64_t{1} << 40;
  b.result.stats.seconds = -0.5;
  b.result.programs = {{core::Instruction{0, core::Form::InsideGroup(),
                                          core::Collective::kAllGather}}};
  b.saved_unix_seconds = 0x0102030405060708ull;
  return {a, b};
}

constexpr const char* kGoldenV2Image =
    "503253430200000002000000000000008e000000fdccb9994bf23d4324000000"
    "6c6576656c733a322c343b676f616c3a5b302c315d3b73697a653c3d333b6361"
    "703d36340b000000000000000700000000000000050000000000000003000000"
    "00000000020000000000000009000000000000000000c03f0200000002000000"
    "010000000100000000010000000000ffffffff00010000000100000002000000"
    "000400f153650000000071000000d104a086f3691d1f1f0000006c6576656c73"
    "3a383b676f616c3a5b305d3b73697a653c3d313b6361703d3200000000000100"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000e0bf01000000010000000000000000ffffffff0208"
    "07060504030201";

TEST(CacheStoreGolden, TwoEntryImageMatchesTheCapturedBytes) {
  const std::vector<CacheFileEntry> entries = GoldenEntries();
  EXPECT_EQ(test::Hex(CacheStore::EncodeFile(entries)), kGoldenV2Image);
  // The decoder reads those bytes back to the same entries.
  const CacheFileContents contents =
      CacheStore::DecodeFile(test::Unhex(kGoldenV2Image));
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk) << contents.message;
  ASSERT_EQ(contents.entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(contents.entries[i].key, entries[i].key);
    ExpectSameResult(contents.entries[i].result, entries[i].result);
    EXPECT_EQ(contents.entries[i].saved_unix_seconds,
              entries[i].saved_unix_seconds);
  }
}

TEST(CacheStoreGolden, HandWrittenVersion1ImageLoadsWithoutStamps) {
  const std::string image = test::Unhex(
      "50325343"                  // magic "P2SC"
      "01000000"                  // format version 1
      "0100000000000000"          // one entry
      "78000000"                  // payload length 120
      "6f9efa0c048e6a25"          // FNV-1a-64 of the payload
      "24000000"                  // key length 36
      "6c6576656c733a322c343b"    // "levels:2,4;"
      "676f616c3a5b302c315d3b"    // "goal:[0,1];"
      "73697a653c3d333b"          // "size<=3;"
      "6361703d3634"              // "cap=64"
      "0b00000000000000"          // instructions_tried 11
      "0700000000000000"          // applications_succeeded 7
      "0500000000000000"          // states_visited 5
      "0300000000000000"          // states_deduped 3
      "0200000000000000"          // branches_pruned 2
      "09000000"                  // alphabet 9
      "000000000000c03f"          // seconds 0.125
      "01000000"                  // one program
      "02000000"                  // of two instructions:
      "01000000" "01" "00000000" "01"  // slice 1, Parallel(0), ReduceScatter
      "00000000" "00" "ffffffff" "00"  // slice 0, InsideGroup, AllReduce
  );  // v1: no first-persisted stamp after the programs
  const CacheFileContents contents = CacheStore::DecodeFile(image);
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk) << contents.message;
  ASSERT_EQ(contents.entries.size(), 1u);
  const CacheFileEntry& entry = contents.entries[0];
  EXPECT_EQ(entry.saved_unix_seconds, 0u);  // unknown age
  EXPECT_EQ(entry.key, "levels:2,4;goal:[0,1];size<=3;cap=64");
  CacheFileEntry expected = GoldenEntries()[0];
  expected.result.programs.resize(1);
  ExpectSameResult(entry.result, expected.result);
}

}  // namespace
}  // namespace p2::engine
