#include "engine/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace p2::engine {

namespace {

/// One ", N <what>" segment of RenderCacheStats, shown when N > 0.
struct CacheSegment {
  std::int64_t SynthesisCacheStats::*counter;
  const char* what;
};

constexpr CacheSegment kCacheSegments[] = {
    {&SynthesisCacheStats::remote_hits, "remote hits"},
    {&SynthesisCacheStats::cross_tenant_hits, "cross-tenant hits"},
    {&SynthesisCacheStats::subsumed_hits, "served by subsumption"},
    {&SynthesisCacheStats::deferred_lookups, "deferred lookups"},
    {&SynthesisCacheStats::continuations_fired, "continuations fired"},
    {&SynthesisCacheStats::evictions, "evictions"},
    {&SynthesisCacheStats::remote_errors, "remote errors"},
};

/// The one human phrasing of the cache counters, shared by the pipeline:,
/// service: and tenant lines: "cache H hits / M misses (S s re-synthesis
/// avoided)", then the disk hits and each other nonzero counter.
std::string RenderCacheStats(const SynthesisCacheStats& cache) {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (%.2f s re-synthesis avoided)",
                cache.seconds_saved);
  os << "cache " << cache.hits << " hits / " << cache.misses << " misses"
     << buf;
  if (cache.disk_hits > 0) {
    std::snprintf(buf, sizeof(buf), " (%.2f s saved across runs)",
                  cache.disk_seconds_saved);
    os << ", " << cache.disk_hits << " disk hits" << buf;
  }
  for (const CacheSegment& segment : kCacheSegments) {
    const std::int64_t n = cache.*segment.counter;
    if (n > 0) os << ", " << n << ' ' << segment.what;
  }
  return os.str();
}

}  // namespace

std::vector<RankedPair> CollectPairs(const ExperimentResult& result) {
  std::vector<RankedPair> pairs;
  for (int pi = 0; pi < static_cast<int>(result.placements.size()); ++pi) {
    const auto& placement = result.placements[static_cast<std::size_t>(pi)];
    for (int gi = 0; gi < static_cast<int>(placement.programs.size()); ++gi) {
      const auto& prog = placement.programs[static_cast<std::size_t>(gi)];
      pairs.push_back(RankedPair{pi, gi, prog.predicted_seconds,
                                 prog.measured_seconds});
    }
  }
  return pairs;
}

int MeasuredRankOfPredictedBest(const std::vector<RankedPair>& pairs) {
  if (pairs.empty()) {
    throw std::invalid_argument("MeasuredRankOfPredictedBest: no pairs");
  }
  const auto best_pred = std::min_element(
      pairs.begin(), pairs.end(), [](const RankedPair& a, const RankedPair& b) {
        return a.predicted_seconds < b.predicted_seconds;
      });
  int rank = 0;
  for (const RankedPair& p : pairs) {
    if (p.measured_seconds < best_pred->measured_seconds) ++rank;
  }
  return rank;
}

AccuracyCounter::AccuracyCounter(std::vector<int> ks)
    : ks_(std::move(ks)), hits_(ks_.size(), 0) {}

void AccuracyCounter::AddExperiment(const ExperimentResult& result) {
  const auto pairs = CollectPairs(result);
  if (pairs.empty()) return;
  const int rank = MeasuredRankOfPredictedBest(pairs);
  ++total_;
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    if (rank < ks_[i]) ++hits_[i];
  }
}

double AccuracyCounter::Rate(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(hits_.at(i)) / static_cast<double>(total_);
}

std::string FormatSpeedup(double speedup) {
  if (std::abs(speedup - 1.0) < 5e-3) return "1x";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
  return buf;
}

std::string RenderPipelineStats(const PipelineStats& stats) {
  std::ostringstream os;
  os << "pipeline: " << stats.num_placements << " placements, "
     << stats.unique_hierarchies << " unique hierarchies, "
     << RenderCacheStats(stats.cache) << ", " << stats.threads
     << (stats.threads == 1 ? " thread" : " threads");
  if (stats.guided_skipped > 0) {
    os << "\nguided: " << stats.guided_skipped
       << " measurements skipped by early stopping";
  }
  os << "\nsearch: " << stats.synth_states_visited << " states visited, "
     << stats.synth_states_deduped << " transpositions collapsed, "
     << stats.synth_branches_pruned << " subtrees replayed from the table";
  return os.str();
}

std::string RenderServiceStats(const PlannerServiceStats& stats) {
  std::ostringstream os;
  os << "service: " << stats.requests
     << (stats.requests == 1 ? " request, " : " requests, ")
     << RenderCacheStats(stats.cache) << ", " << stats.threads
     << (stats.threads == 1 ? " thread" : " threads");
  // Robustness counters render only when the run actually rejected,
  // cancelled, or timed out something, so classic reports are unchanged.
  if (stats.rejected > 0) {
    os << "\nadmission: " << stats.rejected << " rejected, peak "
       << stats.peak_in_flight << " in flight";
  }
  if (stats.cancelled > 0 || stats.deadline_exceeded > 0) {
    os << "\naborted: " << stats.cancelled << " cancelled, "
       << stats.deadline_exceeded << " deadline-exceeded";
  }
  if (stats.save_errors > 0) {
    os << "\ncache save errors: " << stats.save_errors << " (last: "
       << stats.last_save_error << ")";
  }
  if (stats.latency_count > 0) {
    char latency_buf[96];
    std::snprintf(latency_buf, sizeof(latency_buf),
                  "\nlatency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms",
                  stats.latency_p50_seconds * 1e3,
                  stats.latency_p95_seconds * 1e3,
                  stats.latency_p99_seconds * 1e3);
    os << latency_buf << " (" << stats.latency_count
       << (stats.latency_count == 1 ? " request)" : " requests)");
  }
  if (stats.cache_entries_loaded > 0 || stats.cache_entries_expired > 0) {
    os << "\nservice disk cache: " << stats.cache_entries_loaded
       << " entries loaded";
    if (stats.cache_entries_expired > 0) {
      os << ", " << stats.cache_entries_expired << " expired";
    }
  }
  // One line per tenant (only when the registry holds more than one — the
  // single-cluster footer stays unchanged).
  // The per-tenant cache split is attribution-approximate under races, like
  // per-request PipelineStats (see TenantStats for when the sums match the
  // service totals).
  if (stats.tenants.size() > 1) {
    for (const TenantStats& tenant : stats.tenants) {
      os << "\ntenant " << tenant.id << " [" << tenant.cluster << "]: "
         << tenant.requests
         << (tenant.requests == 1 ? " request, " : " requests, ")
         << tenant.placements << " placements, "
         << RenderCacheStats(tenant.cache);
      if (tenant.rejected > 0) {
        os << ", " << tenant.rejected << " rejected";
      }
      if (tenant.cancelled > 0) {
        os << ", " << tenant.cancelled << " cancelled";
      }
      if (tenant.deadline_exceeded > 0) {
        os << ", " << tenant.deadline_exceeded << " deadline-exceeded";
      }
    }
  }
  return os.str();
}

std::string CanonicalResultText(const ExperimentResult& result) {
  std::ostringstream os;
  os << "axes";
  for (std::int64_t a : result.axes) os << ' ' << a;
  os << "; reduce";
  for (int a : result.reduction_axes) os << ' ' << a;
  os << "; " << core::ToString(result.algo) << '\n';
  char buf[64];
  for (const auto& placement : result.placements) {
    os << placement.matrix.ToString() << '\n';
    for (const auto& p : placement.programs) {
      // %.17g: doubles round-trip exactly, so equal outputs really are
      // bit-equal predictions and measurements.
      std::snprintf(buf, sizeof(buf), "%.17g", p.predicted_seconds);
      os << "  " << p.text << " | steps=" << p.num_steps
         << " | predicted=" << buf;
      std::snprintf(buf, sizeof(buf), "%.17g", p.measured_seconds);
      os << " | measured=" << (p.measured ? buf : "-")
         << (p.is_default_allreduce ? " | default" : "") << '\n';
    }
  }
  return os.str();
}

std::string ProgramShape(const core::Program& program) {
  std::ostringstream os;
  for (std::size_t i = 0; i < program.size(); ++i) {
    if (i > 0) os << '-';
    os << core::ShortName(program[i].op);
  }
  return os.str();
}

}  // namespace p2::engine
