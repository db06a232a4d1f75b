#include "engine/json_export.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "engine/report.h"

namespace p2::engine {

namespace {

std::string Num(double v) {
  // JSON has no nan/inf literals; "%.9g" would emit them bare and corrupt
  // the whole document (a 0/0 ratio in stats is enough). null is the only
  // representation every consumer parses.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Num(std::int64_t v) { return std::to_string(v); }

/// The cache object of every scope (see ToJson(ExperimentResult)).
std::string CacheJson(const SynthesisCacheStats& cache) {
  std::string out = "{";
  SynthesisCacheStats::ForEachField([&](const char* name, auto member) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += Num(cache.*member);
  });
  return out + '}';
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJson(const PlacementEvaluation& eval) {
  std::ostringstream os;
  os << "{\"matrix\":\"" << JsonEscape(eval.matrix.ToString()) << "\","
     << "\"synthesis_seconds\":" << Num(eval.synthesis_seconds) << ","
     << "\"synthesis\":{"
     << "\"states_visited\":" << eval.synthesis_stats.states_visited << ","
     << "\"states_deduped\":" << eval.synthesis_stats.states_deduped << ","
     << "\"branches_pruned\":" << eval.synthesis_stats.branches_pruned << ","
     << "\"instructions_tried\":" << eval.synthesis_stats.instructions_tried
     << "},"
     << "\"guided_skipped\":" << eval.guided_skipped << ","
     << "\"programs\":[";
  for (std::size_t i = 0; i < eval.programs.size(); ++i) {
    const auto& p = eval.programs[i];
    if (i > 0) os << ',';
    os << "{\"text\":\"" << JsonEscape(p.text) << "\","
       << "\"shape\":\"" << JsonEscape(ProgramShape(p.program)) << "\","
       << "\"steps\":" << p.num_steps << ","
       << "\"predicted_seconds\":" << Num(p.predicted_seconds) << ","
       << "\"measured_seconds\":" << Num(p.measured_seconds) << ","
       << "\"measured\":" << (p.measured ? "true" : "false") << ","
       << "\"default_allreduce\":"
       << (p.is_default_allreduce ? "true" : "false") << '}';
  }
  os << "]}";
  return os.str();
}

std::string ToJson(const ExperimentResult& result) {
  std::ostringstream os;
  os << "{\"axes\":[";
  for (std::size_t i = 0; i < result.axes.size(); ++i) {
    if (i > 0) os << ',';
    os << result.axes[i];
  }
  os << "],\"reduction_axes\":[";
  for (std::size_t i = 0; i < result.reduction_axes.size(); ++i) {
    if (i > 0) os << ',';
    os << result.reduction_axes[i];
  }
  os << "],\"algo\":\"" << core::ToString(result.algo) << "\","
     << "\"payload_bytes\":" << Num(result.payload_bytes) << ","
     << "\"pipeline\":{"
     << "\"placements\":" << result.pipeline.num_placements << ","
     << "\"unique_hierarchies\":" << result.pipeline.unique_hierarchies << ","
     << "\"cache\":" << CacheJson(result.pipeline.cache) << ","
     << "\"synth_states_visited\":" << result.pipeline.synth_states_visited
     << ","
     << "\"synth_states_deduped\":" << result.pipeline.synth_states_deduped
     << ","
     << "\"synth_branches_pruned\":" << result.pipeline.synth_branches_pruned
     << ","
     << "\"guided_skipped\":" << result.pipeline.guided_skipped << ","
     << "\"synthesis_seconds\":" << Num(result.pipeline.synthesis_seconds)
     << ","
     << "\"evaluation_seconds\":" << Num(result.pipeline.evaluation_seconds)
     << ","
     << "\"total_seconds\":" << Num(result.pipeline.total_seconds) << ","
     << "\"threads\":" << result.pipeline.threads << "},"
     << "\"placements\":[";
  for (std::size_t i = 0; i < result.placements.size(); ++i) {
    if (i > 0) os << ',';
    os << ToJson(result.placements[i]);
  }
  os << "]}";
  return os.str();
}

std::string ToJson(const PlannerServiceStats& stats) {
  std::ostringstream os;
  os << "{\"requests\":" << stats.requests << ","
     << "\"rejected\":" << stats.rejected << ","
     << "\"cancelled\":" << stats.cancelled << ","
     << "\"deadline_exceeded\":" << stats.deadline_exceeded << ","
     << "\"peak_in_flight\":" << stats.peak_in_flight << ","
     << "\"save_errors\":" << stats.save_errors << ","
     << "\"last_save_error\":\"" << JsonEscape(stats.last_save_error) << "\","
     << "\"cache_entries_loaded\":" << stats.cache_entries_loaded << ","
     << "\"cache_entries_expired\":" << stats.cache_entries_expired << ","
     << "\"engines_constructed\":" << stats.engines_constructed << ","
     << "\"cache\":" << CacheJson(stats.cache) << ","
     << "\"threads\":" << stats.threads << ","
     << "\"latency_count\":" << stats.latency_count << ","
     << "\"latency_p50_ms\":" << Num(stats.latency_p50_seconds * 1e3) << ","
     << "\"latency_p95_ms\":" << Num(stats.latency_p95_seconds * 1e3) << ","
     << "\"latency_p99_ms\":" << Num(stats.latency_p99_seconds * 1e3) << ","
     << "\"tenants\":[";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const TenantStats& tenant = stats.tenants[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << tenant.id << ","
       << "\"fingerprint\":\"" << JsonEscape(tenant.fingerprint) << "\","
       << "\"cluster\":\"" << JsonEscape(tenant.cluster) << "\","
       << "\"requests\":" << tenant.requests << ","
       << "\"placements\":" << tenant.placements << ","
       << "\"cache\":" << CacheJson(tenant.cache) << ","
       << "\"rejected\":" << tenant.rejected << ","
       << "\"cancelled\":" << tenant.cancelled << ","
       << "\"deadline_exceeded\":" << tenant.deadline_exceeded << ","
       << "\"peak_in_flight\":" << tenant.peak_in_flight << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace p2::engine
