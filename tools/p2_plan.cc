// p2_plan: command-line front end of P2 (engine/cli.h). `p2_plan --help`
// lists the flags; a bad flag exits 2.
#include <cstdio>
#include <string>
#include <vector>

#include "engine/cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  const auto options = p2::engine::ParseCliOptions(args, &error);
  if (!options.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::string output;
  const int rc = p2::engine::RunCli(*options, &output);
  std::fputs(output.c_str(), rc == 0 ? stdout : stderr);
  return rc;
}
