#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <type_traits>

namespace p2 {

namespace {

/// Parses one integer of a row into T, within the row's range clipped to T.
template <typename T>
bool ParseInto(const Flag& flag, std::string_view text, T* out,
               std::string* error) {
  const std::int64_t min =
      std::max<std::int64_t>(flag.min, std::numeric_limits<T>::min());
  const std::int64_t max =
      std::min<std::int64_t>(flag.max, std::numeric_limits<T>::max());
  std::int64_t v = 0;
  if (ParseFlagInt(text, min, max, &v)) {
    *out = static_cast<T>(v);
    return true;
  }
  *error = "takes integers " +
           (max == std::numeric_limits<std::int64_t>::max()
                ? ">= " + std::to_string(min)
                : "in [" + std::to_string(min) + ", " + std::to_string(max) +
                      "]") +
           ", got \"" + std::string(text) + "\"";
  return false;
}

/// Stores `value` into the row's target; a bool row is given no value.
bool Apply(const Flag& flag, const std::string& value, std::string* error) {
  return std::visit(
      [&](const auto& target) {
        using Target = std::decay_t<decltype(target)>;
        if constexpr (std::is_same_v<Target, bool*>) {
          *target = true;
          return true;
        } else if constexpr (std::is_same_v<Target, std::string*>) {
          *target = value;
          return true;
        } else if constexpr (std::is_same_v<Target, FlagCallback>) {
          return target(value, error);
        } else if constexpr (std::is_same_v<Target, int*> ||
                             std::is_same_v<Target, std::int64_t*>) {
          return ParseInto(flag, value, target, error);
        } else {  // a list replaces the target only once every item parsed
          std::remove_pointer_t<Target> items;
          for (std::size_t begin = 0, end = 0; begin <= value.size();
               begin = end + 1) {
            end = std::min(value.find(',', begin), value.size());
            const std::string_view item =
                std::string_view(value).substr(begin, end - begin);
            if (!ParseInto(flag, item, &items.emplace_back(), error)) {
              return false;
            }
          }
          *target = std::move(items);
          return true;
        }
      },
      flag.target);
}

std::string Help(std::string_view usage, const std::vector<Flag>& flags) {
  constexpr std::size_t kHelpColumn = 16;
  std::string out(usage);
  out += '\n';
  for (const Flag& flag : flags) {
    std::string line = "  --" + flag.name;
    line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
    for (const char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    out += line + '\n';
  }
  return out;
}

}  // namespace

bool ParseFlagInt(std::string_view text, std::int64_t min, std::int64_t max,
                  std::int64_t* out) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) return false;
  *out = v;
  return true;
}

bool ParseFlags(const std::vector<std::string>& args,
                const std::vector<Flag>& flags, std::string_view usage,
                std::vector<std::string>* positional, std::string* error) {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      *error = Help(usage, flags);
      return false;
    }
    if (!arg.starts_with("--")) {
      if (positional == nullptr) {
        *error = "unrecognized argument: " + arg + "\n\n" + Help(usage, flags);
        return false;
      }
      positional->push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const auto row =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return "--" + f.name == flag; });
    if (row == flags.end()) {
      *error = "unrecognized flag: " + flag + "\n\n" + Help(usage, flags);
      return false;
    }
    // Reading "--grid=0" as --grid, or a bare "--nodes" as the default,
    // would plan something other than what was typed.
    const bool bare = std::holds_alternative<bool*>(row->target);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (bare != (eq == std::string::npos) || (!bare && value.empty())) {
      *error = flag + (bare ? " takes no value" : " needs a value");
      return false;
    }
    std::string message;
    if (!Apply(*row, value, &message)) {
      *error = flag + " " + message;
      return false;
    }
  }
  return true;
}

}  // namespace p2
