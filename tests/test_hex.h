// Shared helper for the golden-byte tests: they hold captured encodings as
// hex literals and compare an encoder's output against them, so the bytes
// a format puts on disk or on the wire cannot drift unnoticed.
#ifndef P2_TESTS_TEST_HEX_H_
#define P2_TESTS_TEST_HEX_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace p2::test {

/// Lowercase hex, two digits per byte.
inline std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

/// The inverse of Hex (the literals are well-formed; no validation).
inline std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

}  // namespace p2::test

#endif  // P2_TESTS_TEST_HEX_H_
