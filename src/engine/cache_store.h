// Persistent on-disk layer for the SynthesisCache: a versioned, portable
// binary codec for (signature key -> SynthesisResult) entries plus an atomic
// load/save protocol, so repeated planning runs — the "serving millions of
// users" pattern of the ROADMAP — skip synthesis entirely for hierarchies any
// previous process has seen.
//
// File format (all integers little-endian, doubles as IEEE-754 bit patterns),
// written and read with common/byte_codec.h, the codec the P2RF wire
// (server/wire_protocol.h) shares:
//
//   header:  magic "P2SC" (4 bytes) | format version u32 | entry count u64
//   entry:   payload length u32 | FNV-1a-64 checksum of the payload u64
//            | payload
//   payload: key length u32 | key bytes
//            | SynthesisStats (5 x i64 counters, alphabet i32, seconds f64)
//            | program count u32
//            | per program: instruction count u32
//            | per instruction: slice i32 | form kind u8 | ancestor i32
//                               | collective u8
//            | saved-at unix seconds u64   (v2; absent in v1 files)
//
// Version compatibility: this build writes version 2 and reads versions 1
// and 2. A v1 entry carries no save stamp and decodes with
// saved_unix_seconds == 0 ("unknown age"); a zero stamp is never expired —
// the TTL policy only prunes entries whose staleness it can prove — and is
// replaced with the save time on the next rewrite. A version above 2 loads
// as kBadVersion (cold, and Save refuses to overwrite).
//
// TTL policy (optional): set_ttl_seconds(ttl > 0) makes LoadInto skip
// entries whose stamp is older than ttl at load time, counting them in
// entries_expired(); the next Save then rewrites the file without them.
// Surviving entries keep their original stamp across save/load cycles, so
// an entry's age is measured from when it was first persisted, not from the
// last rewrite.
//
// Corruption policy: a mismatched magic or version, a truncated header or
// entry, a failed checksum, a malformed payload, or trailing bytes all load
// as a *cold* cache — CacheFileContents carries the reason, the caller warns,
// and planning proceeds by re-synthesizing. Loading never throws and never
// aborts. A missing file is a normal cold start, not an error. Decoding also
// validates payload *semantics*, not just framing: every instruction's slice
// and ancestor levels are bounded against the hierarchy depth recovered from
// the entry's signature key, so even a checksum-valid file from a buggy or
// malicious writer can never feed the lowering path a program it would
// throw on.
//
// Save protocol: the whole file is rewritten through a temp file in the same
// directory followed by std::filesystem::rename, which is atomic on POSIX —
// concurrent planners sharing one cache file observe either the old or the
// new contents, never a torn write. Entries are key-sorted before encoding,
// so equal caches produce byte-identical files. Merge semantics across
// processes are last-writer-wins over the union each writer loaded.
#ifndef P2_ENGINE_CACHE_STORE_H_
#define P2_ENGINE_CACHE_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/synthesizer.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

enum class CacheLoadStatus {
  kNotConfigured,     ///< no cache file was configured
  kNoFile,            ///< file absent: a normal cold start
  kOk,                ///< entries decoded and verified
  kBadMagic,          ///< not a P2 synthesis-cache file
  kBadVersion,        ///< written by an incompatible format version
  kTruncated,         ///< header or entry cut short (includes an empty file)
  kChecksumMismatch,  ///< an entry's payload failed its checksum
  kBadPayload,        ///< framing/checksum fine but the payload is malformed
  kIoError,           ///< the file exists but could not be read
};

const char* ToString(CacheLoadStatus status);

/// True for the statuses that mean "the file existed but was unusable" — the
/// caller should warn; kOk / kNoFile / kNotConfigured are normal operation.
bool IsCorrupt(CacheLoadStatus status);

/// One decoded (or to-be-encoded) cache-file entry.
struct CacheFileEntry {
  std::string key;  ///< SynthesisCache::Key of the hierarchy + options
  core::SynthesisResult result;
  /// When the entry was first persisted (unix seconds); 0 = unknown (v1
  /// files), which the TTL policy treats as never expired.
  std::uint64_t saved_unix_seconds = 0;
};

/// The outcome of decoding a cache file. `entries` is populated only when
/// status == kOk; every corruption falls back to an empty (cold) entry list.
struct CacheFileContents {
  CacheLoadStatus status = CacheLoadStatus::kNoFile;
  std::string message;  ///< human-readable detail for warnings
  std::vector<CacheFileEntry> entries;
};

class CacheStore {
 public:
  /// The version this build writes; reads back to kMinFormatVersion.
  static constexpr std::uint32_t kFormatVersion = 2;
  static constexpr std::uint32_t kMinFormatVersion = 1;
  static constexpr char kMagic[4] = {'P', '2', 'S', 'C'};

  explicit CacheStore(std::string path);

  const std::string& path() const { return path_; }

  /// TTL for persisted entries (see the file comment); <= 0 (the default)
  /// disables expiry. Takes effect at the next LoadInto.
  void set_ttl_seconds(std::int64_t ttl_seconds) { ttl_seconds_ = ttl_seconds; }
  std::int64_t ttl_seconds() const { return ttl_seconds_; }

  /// Overrides the unix-seconds clock the TTL policy and Save stamps use
  /// (deterministic tests); nullptr restores the system clock.
  void set_clock_for_test(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }

  /// Reads and decodes the file; never throws (see the corruption policy).
  CacheFileContents Load() const;

  /// Load() + SynthesisCache::Preload, recording the outcome in the
  /// accessors below. On any corruption the cache is left cold.
  CacheLoadStatus LoadInto(SynthesisCache* cache);

  /// Atomically rewrites the file with a key-sorted snapshot of `cache`
  /// (write-temp + rename). On IO failure returns false, fills `error` if
  /// non-null, and leaves any existing file untouched. Refuses (false) when
  /// this store's last load ended in kIoError or kBadVersion: such files
  /// may hold an intact cache (unreadable here, or written by a newer
  /// binary) that a rewrite would destroy; genuinely corrupt files are
  /// overwritten — that is the recovery path.
  bool Save(const SynthesisCache& cache, std::string* error = nullptr);

  CacheLoadStatus last_load_status() const { return last_load_status_; }
  const std::string& last_load_message() const { return last_load_message_; }
  std::int64_t entries_loaded() const { return entries_loaded_; }
  std::int64_t entries_saved() const { return entries_saved_; }
  /// Entries the last LoadInto pruned as older than the TTL.
  std::int64_t entries_expired() const { return entries_expired_; }

  // --- codec building blocks (exposed for the round-trip test suite) ------

  /// Encodes one entry's payload (no framing/checksum — that is file-level).
  static std::string EncodeEntry(const CacheFileEntry& entry);
  /// Decodes one payload; false on any malformation (nothing is thrown).
  static bool DecodeEntry(std::string_view payload, CacheFileEntry* entry);
  /// Encodes a whole file image: header + framed, checksummed entries.
  static std::string EncodeFile(const std::vector<CacheFileEntry>& entries);
  /// Decodes a whole file image (the pure-function core of Load()).
  static CacheFileContents DecodeFile(std::string_view bytes);

 private:
  /// The TTL clock: the injected override, else system unix seconds.
  std::uint64_t NowUnixSeconds() const;

  std::string path_;
  std::int64_t ttl_seconds_ = 0;
  std::function<std::uint64_t()> clock_;
  CacheLoadStatus last_load_status_ = CacheLoadStatus::kNotConfigured;
  std::string last_load_message_;
  std::int64_t entries_loaded_ = 0;
  std::int64_t entries_saved_ = 0;
  std::int64_t entries_expired_ = 0;
  /// Save stamps of the entries the last LoadInto kept, so a rewrite
  /// preserves each survivor's original persist time (new keys are stamped
  /// with the save time).
  std::unordered_map<std::string, std::uint64_t> loaded_stamps_;
};

}  // namespace p2::engine

#endif  // P2_ENGINE_CACHE_STORE_H_
