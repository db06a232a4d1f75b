// Benchmarks the transposition-table synthesis search (ISSUE 2) against the
// seed's blind DFS (SynthesizeProgramsReference) on hierarchies of growing
// depth. The DFS re-explores every redistribution state once per path
// reaching it and copies the full StateContext per candidate instruction;
// the search interns states, memoizes the transition relation and the goal
// completions, and replays shared subtrees — the deeper the hierarchy, the
// more transpositions there are to collapse.
//
// Reported per case: programs found, both wall-clocks, the speedup, the
// table counters, and whether the program lists are byte-identical (they
// must be — the differential test asserts the same, this reports it under
// bench sizes). The search time of a case is the median of kSearchRuns
// searches, the first of which is checked against the DFS. The same figures
// per case (programs, search seconds, states_visited, states/s, identical)
// and the run count go to BENCH_synth.json for the bench ledger.
//
//   bench_synth              full grid (depth 2-4, paper-default size 5)
//   bench_synth --smoke      CI-sized grid; exits non-zero when the search
//                            stops beating the DFS by the guard margin or
//                            any program list diverges
//   bench_synth --json=PATH  write the JSON to PATH instead (a path that
//                            cannot be opened exits 2 before any search)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/format.h"
#include "core/synthesizer.h"
#include "engine/report.h"

namespace {

using p2::core::ParallelismMatrix;
using p2::core::SynthesisHierarchy;
using p2::core::SynthesisHierarchyKind;
using p2::core::SynthesisOptions;
using p2::core::SynthesizePrograms;
using p2::core::SynthesizeProgramsReference;

/// Searches timed per case; the median is reported. One search of the
/// depth-2 case takes well under a millisecond, so a single timing is noise.
constexpr int kSearchRuns = 5;

struct BenchCase {
  std::string name;
  ParallelismMatrix matrix;
  std::vector<int> reduction_axes;
  int max_program_size = 5;
  /// --smoke enforces the speedup floor on this case. Only set where the
  /// problem is big enough that the table amortizes AND both engines run
  /// long enough for wall-clock to be signal, not timer noise: the depth-2
  /// case finishes in microseconds and is exempt.
  bool guard = false;
};

std::vector<BenchCase> MakeGrid(bool smoke) {
  std::vector<BenchCase> grid;
  grid.push_back(
      {"depth-2 (Fig 2d, k=4)", ParallelismMatrix({{1, 1, 2, 2}, {1, 2, 1, 2}}),
       {1}});
  grid.push_back({"depth-3 (k=8)", ParallelismMatrix({{2, 2, 2}, {1, 1, 1}}),
                  {0},
                  5,
                  true});
  if (!smoke) {
    grid.push_back({"depth-4 (k=16, size 4)",
                    ParallelismMatrix({{2, 2, 2, 2}, {1, 1, 1, 1}}),
                    {0},
                    4});
  }
  grid.push_back({"depth-4 (k=16)",
                  ParallelismMatrix({{2, 2, 2, 2}, {1, 1, 1, 1}}),
                  {0},
                  5,
                  true});
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_synth.json";
  const std::vector<p2::Flag> flags = {
      {"smoke", &smoke,
       "run the CI-sized grid and fail on a speedup below the guard"},
      {"json", &json_path, "write the JSON results to PATH\n"
                           "(default BENCH_synth.json)"},
  };
  std::string error;
  if (!p2::ParseFlags({argv + 1, argv + argc}, flags,
                      "bench_synth: transposition search vs reference DFS\n"
                      "\n"
                      "usage: bench_synth [FLAGS]\n",
                      nullptr, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  // Opened before any work starts, so a path that cannot be written costs
  // no benchmark run.
  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot write %s\n", json_path.c_str());
    return 2;
  }

  // The guard margin for --smoke, applied to the cases flagged `guard`.
  // Deliberately far below the observed ~8-12x so CI noise cannot trip it,
  // but any regression to DFS-like behaviour still fails loudly.
  constexpr double kSmokeMinSpeedup = 2.0;

  const auto grid = MakeGrid(smoke);
  std::printf("Synthesis bench (%s): transposition search vs reference DFS\n\n",
              smoke ? "smoke" : "full");

  p2::TextTable table({"Hierarchy", "Programs", "DFS(s)", "Search(s)",
                       "Speedup", "States", "Transp.", "Replays", "Identical"});
  std::string json_cases;
  bool all_identical = true;
  bool fast_enough = true;
  for (const auto& c : grid) {
    const auto sh = SynthesisHierarchy::Build(
        c.matrix, c.reduction_axes, SynthesisHierarchyKind::kReductionAxes);
    SynthesisOptions options;
    options.max_program_size = c.max_program_size;
    const auto reference = SynthesizeProgramsReference(sh, options);
    const auto search = SynthesizePrograms(sh, options);
    std::vector<double> runs = {search.stats.seconds};
    for (int r = 1; r < kSearchRuns; ++r) {
      runs.push_back(SynthesizePrograms(sh, options).stats.seconds);
    }
    std::nth_element(runs.begin(), runs.begin() + kSearchRuns / 2, runs.end());
    const double search_seconds = runs[kSearchRuns / 2];

    const bool identical = search.programs == reference.programs;
    all_identical = all_identical && identical;
    const double speedup =
        search_seconds > 0.0 ? reference.stats.seconds / search_seconds : 0.0;
    if (smoke && c.guard && speedup < kSmokeMinSpeedup) fast_enough = false;

    table.AddRow({c.name, std::to_string(search.programs.size()),
                  p2::FormatSeconds(reference.stats.seconds),
                  p2::FormatSeconds(search_seconds),
                  p2::engine::FormatSpeedup(speedup),
                  std::to_string(search.stats.states_visited),
                  std::to_string(search.stats.states_deduped),
                  std::to_string(search.stats.branches_pruned),
                  identical ? "yes" : "NO"});

    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s    {\"name\": \"%s\", \"max_program_size\": %d, "
        "\"programs\": %zu, \"search_seconds\": %.6f, "
        "\"states_visited\": %lld, \"states_per_s\": %.1f, "
        "\"identical\": %s}",
        json_cases.empty() ? "" : ",\n", c.name.c_str(), c.max_program_size,
        search.programs.size(), search_seconds,
        static_cast<long long>(search.stats.states_visited),
        search_seconds > 0.0
            ? static_cast<double>(search.stats.states_visited) / search_seconds
            : 0.0,
        identical ? "true" : "false");
    json_cases += line;
  }
  std::printf("%s\n", table.Render().c_str());

  std::fprintf(json,
               "{\n  \"grid\": \"%s\",\n  \"search_runs\": %d,\n"
               "  \"cases\": [\n%s\n  ]\n}\n",
               smoke ? "smoke" : "full", kSearchRuns, json_cases.c_str());
  const bool written = std::ferror(json) == 0;
  if (std::fclose(json) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_identical) {
    std::printf("FAIL: program lists diverge from the reference DFS\n");
    return 1;
  }
  if (smoke && !fast_enough) {
    std::printf("FAIL: search slower than %.1fx the DFS on a guarded case "
                "(perf regression)\n",
                kSmokeMinSpeedup);
    return 1;
  }
  std::printf("program lists byte-identical to the reference DFS: yes\n");
  return 0;
}
