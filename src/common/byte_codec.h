// The one byte codec under both binary formats, the P2SC cache file
// (engine/cache_store.h) and the P2RF wire (server/wire_protocol.h):
// little-endian integers, doubles as IEEE-754 bit patterns, strings as a u32
// byte length then the bytes, and an FNV-1a-64 digest for corruption
// detection. The Append* writers grow a std::string; ByteReader is their
// bounds-checked inverse.
#ifndef P2_COMMON_BYTE_CODEC_H_
#define P2_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace p2 {

/// FNV-1a 64-bit: tiny, dependency-free, and any single flipped byte changes
/// the digest. Both formats need corruption *detection*, not security.
inline std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

inline void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendI32(std::string* out, std::int32_t v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
}

inline void AppendI64(std::string* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

inline void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

inline void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

/// Sequential reader over a byte view. Every Read* returns false on
/// exhaustion instead of reading past the end, so a truncated payload or a
/// lying length field can never walk off the buffer. The view must outlive
/// the reader and every string_view ReadBytes hands out.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  bool ReadU8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadU32(std::uint32_t* v) { return ReadLittleEndian(v); }
  bool ReadU64(std::uint64_t* v) { return ReadLittleEndian(v); }

  bool ReadI32(std::int32_t* v) {
    std::uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }

  bool ReadI64(std::int64_t* v) {
    std::uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }

  bool ReadBytes(std::size_t n, std::string_view* v) {
    if (remaining() < n) return false;
    *v = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// The AppendString layout: a u32 length, then that many bytes.
  bool ReadString(std::string* v) {
    std::uint32_t len = 0;
    std::string_view bytes;
    if (!ReadU32(&len) || !ReadBytes(len, &bytes)) return false;
    v->assign(bytes);
    return true;
  }

 private:
  template <typename Unsigned>
  bool ReadLittleEndian(Unsigned* v) {
    if (remaining() < sizeof(Unsigned)) return false;
    Unsigned out = 0;
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) {
      out |= static_cast<Unsigned>(static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    }
    pos_ += sizeof(Unsigned);
    *v = out;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace p2

#endif  // P2_COMMON_BYTE_CODEC_H_
