#include "engine/json_export.h"

#include <gtest/gtest.h>

#include <limits>

#include "engine/service.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonExport, PlacementEvaluationRoundTripsKeyFields) {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const core::ParallelismMatrix m({{2, 4}, {1, 4}});
  const std::vector<int> axes = {0};
  const auto eval = eng.EvaluatePlacement(m, axes);
  const std::string json = ToJson(eval);
  EXPECT_NE(json.find("\"matrix\":\"[[2 4] [1 4]]\""), std::string::npos);
  EXPECT_NE(json.find("\"programs\":["), std::string::npos);
  EXPECT_NE(json.find("\"default_allreduce\":true"), std::string::npos);
  EXPECT_NE(json.find("\"measured\":true"), std::string::npos);
  EXPECT_NE(json.find("\"shape\":\"AR\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonExport, ExperimentResultIncludesConfig) {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  opts.algo = core::NcclAlgo::kTree;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const std::vector<std::int64_t> axes = {8, 4};
  const std::vector<int> raxes = {0};
  const auto result = eng.RunExperiment(axes, raxes);
  const std::string json = ToJson(result);
  EXPECT_NE(json.find("\"axes\":[8,4]"), std::string::npos);
  EXPECT_NE(json.find("\"reduction_axes\":[0]"), std::string::npos);
  EXPECT_NE(json.find("\"algo\":\"Tree\""), std::string::npos);
  EXPECT_NE(json.find("\"placements\":["), std::string::npos);
}

TEST(JsonExport, PipelineStatsCarryTheDashboardFields) {
  // The ROADMAP's cost-model-fidelity item: unique hierarchies, seconds
  // saved, disk hits — plus the ISSUE 5 cross-tenant and early-stopping
  // counters — all flow to the dashboards through the experiment JSON.
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  const Engine eng(topology::MakeA100Cluster(2), opts);
  const std::vector<std::int64_t> axes = {8, 2, 2};
  const std::vector<int> raxes = {0};
  const std::string json = ToJson(eng.RunExperiment(axes, raxes));
  for (const char* field :
       {"\"unique_hierarchies\":", "\"cache\":{\"hits\":", "\"misses\":",
        "\"cross_tenant_hits\":", "\"disk_hits\":",
        "\"guided_skipped\":", "\"seconds_saved\":",
        "\"synthesis_seconds\":", "\"evaluation_seconds\":",
        "\"total_seconds\":", "\"disk_seconds_saved\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(JsonExport, ServiceStatsExportPerTenantSectionsAndTotals) {
  EngineOptions opts;
  opts.payload_bytes = 1e8;
  PlannerServiceOptions service_options;
  service_options.engine = opts;
  PlannerService service(service_options);

  PlanRequest first;
  first.axes = {8, 4};
  first.reduction_axes = {0};
  first.cluster = topology::MakeA100Cluster(2);
  PlanRequest second = first;
  second.cluster = topology::MakeV100Cluster(4);
  service.Plan(std::move(first));
  service.Plan(std::move(second));

  const auto stats = service.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  const std::string json = ToJson(stats);
  // Service-wide totals...
  EXPECT_NE(json.find("\"requests\":2"), std::string::npos);
  EXPECT_NE(json.find("\"engines_constructed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cross_tenant_hits\":"), std::string::npos);
  EXPECT_NE(json.find("\"evictions\":"), std::string::npos);
  // ...plus one tenant object per registered engine, carrying its
  // fingerprint and its share of the cache activity.
  EXPECT_NE(json.find("\"tenants\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"id\":0"), std::string::npos);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(
      json.find("\"fingerprint\":\"" +
                JsonEscape(topology::MakeA100Cluster(2).Fingerprint()) + "\""),
      std::string::npos);
  EXPECT_NE(
      json.find("\"fingerprint\":\"" +
                JsonEscape(topology::MakeV100Cluster(4).Fingerprint()) + "\""),
      std::string::npos);
  EXPECT_NE(json.find("\"cross_tenant_hits\":", json.find("\"tenants\":[")),
            std::string::npos);

  // Cheap well-formedness: balanced braces/brackets outside strings.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonExport, ServiceStatsExportRobustnessCounters) {
  // The ISSUE 7 abort taxonomy flows to dashboards: hand-built stats so the
  // exact values are assertable, service-wide and per tenant.
  PlannerServiceStats stats;
  stats.requests = 7;
  stats.rejected = 2;
  stats.cancelled = 3;
  stats.deadline_exceeded = 1;
  stats.peak_in_flight = 5;
  TenantStats tenant;
  tenant.id = 0;
  tenant.rejected = 2;
  tenant.cancelled = 3;
  tenant.deadline_exceeded = 1;
  tenant.peak_in_flight = 4;
  stats.tenants = {tenant};

  const std::string json = ToJson(stats);
  EXPECT_NE(json.find("\"rejected\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cancelled\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadline_exceeded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"peak_in_flight\":5"), std::string::npos) << json;
  // The tenant object carries its own copies.
  const auto tenants = json.find("\"tenants\":[{");
  ASSERT_NE(tenants, std::string::npos);
  EXPECT_NE(json.find("\"rejected\":2", tenants), std::string::npos);
  EXPECT_NE(json.find("\"cancelled\":3", tenants), std::string::npos);
  EXPECT_NE(json.find("\"deadline_exceeded\":1", tenants), std::string::npos);
  EXPECT_NE(json.find("\"peak_in_flight\":4", tenants), std::string::npos);
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonExport, NonFiniteNumbersBecomeNullNeverBareTokens) {
  // ISSUE 8 regression: %.9g renders NaN/inf as bare `nan`/`inf`, which no
  // JSON parser accepts — one poisoned timing field used to invalidate a
  // whole stats document. Non-finite values now serialize as `null`.
  PlannerServiceStats stats;
  stats.requests = 1;
  stats.cache.seconds_saved = std::numeric_limits<double>::quiet_NaN();
  TenantStats tenant;
  tenant.cache.seconds_saved = std::numeric_limits<double>::infinity();
  stats.tenants = {tenant};

  const std::string json = ToJson(stats);
  EXPECT_NE(json.find("\"seconds_saved\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"seconds_saved\":null", json.find("\"tenants\":[")),
            std::string::npos)
      << json;
  for (const char* token : {":nan", ":inf", ":-inf", ":-nan"}) {
    EXPECT_EQ(json.find(token), std::string::npos) << token << " in " << json;
  }
  // The document as a whole stays well-formed.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonExport, ServiceStatsExportSaveErrorCounters) {
  // The drain-time save failure an operator can only see through stats
  // (ISSUE 8): the counter and the escaped detail string both export.
  PlannerServiceStats stats;
  stats.save_errors = 2;
  stats.last_save_error = "write p2.cache: \"disk\" died";
  const std::string json = ToJson(stats);
  EXPECT_NE(json.find("\"save_errors\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"last_save_error\":\"write p2.cache: \\\"disk\\\" "
                      "died\""),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace p2::engine
