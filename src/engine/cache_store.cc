#include "engine/cache_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>

#include "common/byte_codec.h"
#include "common/fault_injection.h"

namespace p2::engine {

namespace {

// The entry key always starts with the hierarchy signature
// ("levels:a,b,c;goal:..."), so the depth the entry's programs were
// synthesized against is recoverable from the key itself — which lets the
// decoder bound every slice/ancestor level without trusting the payload.
bool ParseLevelCount(std::string_view key, int* num_levels) {
  constexpr std::string_view kPrefix = "levels:";
  if (key.substr(0, kPrefix.size()) != kPrefix) return false;
  const std::string_view rest = key.substr(kPrefix.size());
  const std::size_t end = rest.find(';');
  if (end == std::string_view::npos || end == 0) return false;
  int count = 1;
  for (std::size_t i = 0; i < end; ++i) {
    const char c = rest[i];
    if (c == ',') {
      ++count;
    } else if (c < '0' || c > '9') {
      return false;
    }
  }
  *num_levels = count;
  return true;
}

bool DecodeInstruction(ByteReader* r, int num_levels,
                       core::Instruction* instr) {
  std::int32_t slice = 0;
  std::uint8_t form_kind = 0;
  std::int32_t ancestor = 0;
  std::uint8_t op = 0;
  if (!r->ReadI32(&slice) || !r->ReadU8(&form_kind) ||
      !r->ReadI32(&ancestor) || !r->ReadU8(&op)) {
    return false;
  }
  // Semantic validation, not just enum bounds: a checksum-valid payload from
  // a buggy or malicious writer must satisfy every precondition the lowering
  // path (core::DeriveGroups) would otherwise throw on, or the never-crash
  // corruption policy is void.
  if (slice < 0 || slice >= num_levels) return false;
  if (form_kind > static_cast<std::uint8_t>(core::Form::Kind::kMaster)) {
    return false;
  }
  const auto kind = static_cast<core::Form::Kind>(form_kind);
  if (kind == core::Form::Kind::kInsideGroup) {
    if (ancestor != -1) return false;
  } else if (ancestor < 0 || ancestor >= slice) {
    return false;  // Parallel/Master need a strict ancestor of the slice
  }
  if (op >= core::kAllCollectives.size()) return false;
  instr->slice_level = slice;
  instr->form.kind = kind;
  instr->form.ancestor_level = ancestor;
  instr->op = static_cast<core::Collective>(op);
  return true;
}

void EncodeInstruction(std::string* out, const core::Instruction& instr) {
  AppendI32(out, instr.slice_level);
  AppendU8(out, static_cast<std::uint8_t>(instr.form.kind));
  AppendI32(out, instr.form.ancestor_level);
  AppendU8(out, static_cast<std::uint8_t>(instr.op));
}

// Bytes per encoded instruction / minimum bytes per encoded program; used to
// sanity-bound counts before reserving memory for them.
constexpr std::size_t kInstructionBytes = 10;
constexpr std::size_t kMinProgramBytes = 4;
constexpr std::size_t kEntryFrameBytes = 12;   // payload length u32 + checksum u64
constexpr std::size_t kHeaderBytes = 16;       // magic + version u32 + count u64

}  // namespace

const char* ToString(CacheLoadStatus status) {
  switch (status) {
    case CacheLoadStatus::kNotConfigured:
      return "not configured";
    case CacheLoadStatus::kNoFile:
      return "no cache file";
    case CacheLoadStatus::kOk:
      return "ok";
    case CacheLoadStatus::kBadMagic:
      return "bad magic";
    case CacheLoadStatus::kBadVersion:
      return "unsupported format version";
    case CacheLoadStatus::kTruncated:
      return "truncated file";
    case CacheLoadStatus::kChecksumMismatch:
      return "checksum mismatch";
    case CacheLoadStatus::kBadPayload:
      return "malformed payload";
    case CacheLoadStatus::kIoError:
      return "unreadable file";
  }
  return "?";
}

bool IsCorrupt(CacheLoadStatus status) {
  return status != CacheLoadStatus::kOk &&
         status != CacheLoadStatus::kNoFile &&
         status != CacheLoadStatus::kNotConfigured;
}

CacheStore::CacheStore(std::string path) : path_(std::move(path)) {}

std::uint64_t CacheStore::NowUnixSeconds() const {
  if (clock_) return clock_();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string CacheStore::EncodeEntry(const CacheFileEntry& entry) {
  std::string out;
  AppendString(&out, entry.key);
  const core::SynthesisStats& s = entry.result.stats;
  AppendI64(&out, s.instructions_tried);
  AppendI64(&out, s.applications_succeeded);
  AppendI64(&out, s.states_visited);
  AppendI64(&out, s.states_deduped);
  AppendI64(&out, s.branches_pruned);
  AppendI32(&out, s.alphabet_size);
  AppendF64(&out, s.seconds);
  AppendU32(&out, static_cast<std::uint32_t>(entry.result.programs.size()));
  for (const core::Program& p : entry.result.programs) {
    AppendU32(&out, static_cast<std::uint32_t>(p.size()));
    for (const core::Instruction& instr : p) EncodeInstruction(&out, instr);
  }
  // v2 trailer: when the entry was first persisted. Appended last so v1
  // payloads are exactly this encoding minus the trailer.
  AppendU64(&out, entry.saved_unix_seconds);
  return out;
}

bool CacheStore::DecodeEntry(std::string_view payload, CacheFileEntry* entry) {
  ByteReader r(payload);
  int num_levels = 0;
  if (!r.ReadString(&entry->key) ||
      !ParseLevelCount(entry->key, &num_levels)) {
    return false;
  }

  core::SynthesisStats& s = entry->result.stats;
  s = core::SynthesisStats{};
  std::int32_t alphabet = 0;
  if (!r.ReadI64(&s.instructions_tried) ||
      !r.ReadI64(&s.applications_succeeded) || !r.ReadI64(&s.states_visited) ||
      !r.ReadI64(&s.states_deduped) || !r.ReadI64(&s.branches_pruned) ||
      !r.ReadI32(&alphabet) || !r.ReadF64(&s.seconds)) {
    return false;
  }
  s.alphabet_size = alphabet;

  std::uint32_t num_programs = 0;
  if (!r.ReadU32(&num_programs)) return false;
  // Each remaining program costs at least its own count field, so a count
  // larger than remaining/4 is a lie — reject before reserving memory for it.
  if (num_programs > r.remaining() / kMinProgramBytes) return false;
  entry->result.programs.clear();
  entry->result.programs.reserve(num_programs);
  for (std::uint32_t i = 0; i < num_programs; ++i) {
    std::uint32_t num_instructions = 0;
    if (!r.ReadU32(&num_instructions)) return false;
    if (num_instructions > r.remaining() / kInstructionBytes) return false;
    core::Program program;
    program.reserve(num_instructions);
    for (std::uint32_t j = 0; j < num_instructions; ++j) {
      core::Instruction instr;
      if (!DecodeInstruction(&r, num_levels, &instr)) return false;
      program.push_back(instr);
    }
    entry->result.programs.push_back(std::move(program));
  }
  // The save stamp: a v2 trailer, absent from v1 payloads (0 = unknown age,
  // never expired). Anything other than exactly-absent or exactly-one-u64
  // is malformed.
  entry->saved_unix_seconds = 0;
  if (!r.AtEnd() && !r.ReadU64(&entry->saved_unix_seconds)) return false;
  return r.AtEnd();  // trailing bytes inside a payload are malformed too
}

std::string CacheStore::EncodeFile(const std::vector<CacheFileEntry>& entries) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kFormatVersion);
  AppendU64(&out, static_cast<std::uint64_t>(entries.size()));
  for (const CacheFileEntry& entry : entries) {
    const std::string payload = EncodeEntry(entry);
    AppendU32(&out, static_cast<std::uint32_t>(payload.size()));
    AppendU64(&out, Fnv1a64(payload));
    out += payload;
  }
  return out;
}

CacheFileContents CacheStore::DecodeFile(std::string_view bytes) {
  CacheFileContents contents;
  auto fail = [&contents](CacheLoadStatus status, std::string message) {
    contents.status = status;
    contents.message = std::move(message);
    contents.entries.clear();  // every corruption loads as a cold cache
    return contents;
  };

  if (bytes.empty()) return fail(CacheLoadStatus::kTruncated, "empty file");
  if (bytes.size() >= sizeof(kMagic) &&
      bytes.substr(0, sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    return fail(CacheLoadStatus::kBadMagic,
                "not a P2 synthesis-cache file (bad magic)");
  }
  if (bytes.size() < kHeaderBytes) {
    return fail(CacheLoadStatus::kTruncated,
                "file shorter than the header (" +
                    std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader r(bytes.substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  r.ReadU32(&version);
  r.ReadU64(&count);
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return fail(CacheLoadStatus::kBadVersion,
                "format version " + std::to_string(version) +
                    " (this build reads versions " +
                    std::to_string(kMinFormatVersion) + ".." +
                    std::to_string(kFormatVersion) + ")");
  }
  if (count > r.remaining() / kEntryFrameBytes) {
    return fail(CacheLoadStatus::kTruncated,
                "entry count exceeds the file size");
  }

  contents.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t payload_len = 0;
    std::uint64_t checksum = 0;
    if (!r.ReadU32(&payload_len) || !r.ReadU64(&checksum)) {
      return fail(CacheLoadStatus::kTruncated,
                  "entry " + std::to_string(i) + " frame cut short");
    }
    std::string_view payload;
    if (!r.ReadBytes(payload_len, &payload)) {
      return fail(CacheLoadStatus::kTruncated,
                  "entry " + std::to_string(i) + " payload cut short");
    }
    if (Fnv1a64(payload) != checksum) {
      return fail(CacheLoadStatus::kChecksumMismatch,
                  "entry " + std::to_string(i) + " failed its checksum");
    }
    CacheFileEntry entry;
    if (!DecodeEntry(payload, &entry)) {
      return fail(CacheLoadStatus::kBadPayload,
                  "entry " + std::to_string(i) + " is malformed");
    }
    contents.entries.push_back(std::move(entry));
  }
  if (!r.AtEnd()) {
    return fail(CacheLoadStatus::kBadPayload,
                std::to_string(r.remaining()) + " trailing bytes after the " +
                    "last entry");
  }
  contents.status = CacheLoadStatus::kOk;
  return contents;
}

CacheFileContents CacheStore::Load() const {
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) {
    CacheFileContents contents;
    contents.status = CacheLoadStatus::kNoFile;
    contents.message = "no file at " + path_;
    return contents;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    // Distinct from corruption: the file may be intact but unreadable (e.g.
    // permissions), so the warning must not invite the operator to delete it.
    CacheFileContents contents;
    contents.status = CacheLoadStatus::kIoError;
    contents.message = "cannot open " + path_;
    return contents;
  }
  // One pre-sized read, not stream buffering: a pipeline constructs a store
  // on every startup and cache files grow without eviction, so avoid holding
  // two copies of the image.
  std::error_code size_ec;
  const auto size = std::filesystem::file_size(path_, size_ec);
  std::string bytes;
  if (!size_ec) bytes.resize(size);
  if (size_ec ||
      !in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    CacheFileContents contents;
    contents.status = CacheLoadStatus::kIoError;
    contents.message = "cannot read " + path_;
    return contents;
  }
  return DecodeFile(bytes);
}

CacheLoadStatus CacheStore::LoadInto(SynthesisCache* cache) {
  // Loading never throws (see the header's corruption policy), so an
  // injected fault surfaces as the status an actually-unreadable file
  // would produce — which also makes a later Save() refuse to overwrite.
  try {
    MaybeInjectFault("cache_store.load");
  } catch (const std::exception& e) {
    last_load_status_ = CacheLoadStatus::kIoError;
    last_load_message_ = std::string("injected fault: ") + e.what();
    entries_loaded_ = 0;
    return last_load_status_;
  }
  CacheFileContents contents = Load();
  last_load_status_ = contents.status;
  last_load_message_ = contents.message;
  entries_loaded_ = 0;
  entries_expired_ = 0;
  loaded_stamps_.clear();
  if (contents.status == CacheLoadStatus::kOk) {
    const std::uint64_t now = NowUnixSeconds();
    std::vector<std::pair<std::string, core::SynthesisResult>> entries;
    entries.reserve(contents.entries.size());
    for (CacheFileEntry& entry : contents.entries) {
      // TTL pruning: skip provably-stale entries (a zero stamp has unknown
      // age and is kept — see the file comment). The pruned entries stay in
      // the on-disk file until the next Save rewrites it without them.
      if (ttl_seconds_ > 0 && entry.saved_unix_seconds > 0 &&
          now > entry.saved_unix_seconds &&
          now - entry.saved_unix_seconds >
              static_cast<std::uint64_t>(ttl_seconds_)) {
        ++entries_expired_;
        continue;
      }
      loaded_stamps_.emplace(entry.key, entry.saved_unix_seconds);
      entries.emplace_back(std::move(entry.key), std::move(entry.result));
    }
    entries_loaded_ = cache->Preload(std::move(entries));
  }
  return last_load_status_;
}

bool CacheStore::Save(const SynthesisCache& cache, std::string* error) {
  // Rewriting is recovery for *corruption* (bad magic, truncation, failed
  // checksums): those files carry nothing worth keeping. But an unreadable
  // file may be intact, and a version-mismatched one was written by a newer
  // binary — overwriting either would destroy a cache other runs
  // accumulated, so refuse instead.
  if (last_load_status_ == CacheLoadStatus::kIoError ||
      last_load_status_ == CacheLoadStatus::kBadVersion) {
    if (error != nullptr) {
      *error = "refusing to overwrite " + path_ + ": " +
               ToString(last_load_status_) +
               " on load (the existing cache may be intact)";
    }
    return false;
  }
  // Save must not throw either: it runs inside BeginDrain and so inside the
  // service destructor. An injected fault becomes the false-plus-error
  // return an actual write failure would produce.
  try {
    MaybeInjectFault("cache_store.save");
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("injected fault: ") + e.what();
    }
    return false;
  }
  std::vector<CacheFileEntry> entries;
  const std::uint64_t now = NowUnixSeconds();
  for (auto& [key, result] : cache.Snapshot()) {
    CacheFileEntry entry{std::move(key), std::move(result)};
    // Survivors of the load keep their original persist stamp (age runs
    // from first persistence, not from the last rewrite); new keys — and
    // stampless v1 survivors, whose age becomes known now — are stamped
    // with the save time.
    const auto it = loaded_stamps_.find(entry.key);
    entry.saved_unix_seconds =
        (it != loaded_stamps_.end() && it->second > 0) ? it->second : now;
    entries.push_back(std::move(entry));
  }
  const std::string image = EncodeFile(entries);

  // Write-temp + rename: the rename is atomic on POSIX, so a concurrent
  // planner loading this path sees either the previous file or this one in
  // full — never a torn mix. The temp name carries the pid plus a
  // process-wide counter so no two writers — across processes or across
  // Pipelines/threads within one — ever share a temp file.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp = path_ + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(image.data(),
                           static_cast<std::streamsize>(image.size()))) {
      if (error != nullptr) *error = "cannot write " + tmp;
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " to " + path_ + ": " + ec.message();
    }
    std::filesystem::remove(tmp, ec);
    return false;
  }
  entries_saved_ = static_cast<std::int64_t>(entries.size());
  return true;
}

}  // namespace p2::engine
