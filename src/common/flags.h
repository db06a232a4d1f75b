// Command-line flags of the four tools. A tool lists its flags as rows of
// one table; ParseFlags applies argv to the rows and renders the --help text
// from the same rows.
//
// The rules are the same for every tool. A flag is `--name=value`, or a bare
// `--name` for a bool row. These are errors that name the flag: an unknown
// flag, a value on a bool row, a missing or empty value on any other row, a
// malformed or out-of-range integer, an empty list item, and a positional
// argument where the tool takes none. An int row's range is clipped to int,
// so no value is ever narrowed. A repeated flag replaces the earlier value,
// lists included; a callback row decides for itself.
#ifndef P2_COMMON_FLAGS_H_
#define P2_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace p2 {

/// The bound of every thread-count flag: beyond it, std::thread creation
/// dies with an unhandled std::system_error instead of a usage message.
inline constexpr int kMaxFlagThreads = 1024;

/// Checks and stores the value of a row with its own syntax. On a bad value
/// returns false with a message that ParseFlags prefixes with the flag.
using FlagCallback =
    std::function<bool(const std::string& value, std::string* error)>;

/// One row of a tool's flag table.
struct Flag {
  std::string name;  ///< without the leading "--"
  std::variant<bool*, int*, std::int64_t*, std::string*, std::vector<int>*,
               std::vector<std::int64_t>*, FlagCallback>
      target;
  std::string help;  ///< '\n' starts a continuation line
  /// The accepted range of an integer or of each list item.
  std::int64_t min = std::numeric_limits<std::int64_t>::min();
  std::int64_t max = std::numeric_limits<std::int64_t>::max();
};

/// Applies `args` (argv without the program name) to the rows of `flags`.
/// Arguments not starting with "--" are appended to `positional`, or are an
/// error when it is null. On an error returns false with a message in
/// `error`; `--help` and `-h` also return false, with `usage` and one line
/// per row in `error`.
bool ParseFlags(const std::vector<std::string>& args,
                const std::vector<Flag>& flags, std::string_view usage,
                std::vector<std::string>* positional, std::string* error);

/// Parses `text` as a decimal integer in [min, max]: digits with an optional
/// leading '-', nothing else.
bool ParseFlagInt(std::string_view text, std::int64_t min, std::int64_t max,
                  std::int64_t* out);

}  // namespace p2

#endif  // P2_COMMON_FLAGS_H_
