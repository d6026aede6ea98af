// Scenario-registry tests: every catalog entry builds, smoke-runs one
// seed in --fast shape, dumps as JSON the obs parser accepts, and emits
// a schema-valid run report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/run_report.h"
#include "scenario/catalog.h"
#include "scenario/cli.h"
#include "scenario/runner.h"
#include "scenario/spec_json.h"

namespace wcs::scenario {
namespace {

const std::vector<std::string> kExpected = {
    "table2_workload",     "fig3_cdf",          "fig4_capacity",
    "fig5_transfers",      "fig6_workers",      "table3_contention",
    "fig7_sites",          "fig8_filesize",     "ablation_combined",
    "ablation_choosetask", "ablation_eviction", "ablation_baselines",
    "ext_replication",     "ext_churn",         "open_saturation",
    "open_tenant_mix",     "open_burst",        "data_block_size",
    "data_eviction_dedup", "data_replication_policy"};

BuildOptions small_build() {
  BuildOptions b;
  b.tasks = 120;
  b.fast = true;
  return b;
}

TEST(ScenarioRegistry, CatalogRegistersEveryPaperArtifact) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  EXPECT_EQ(scenario_names(), kExpected);
  for (const std::string& name : kExpected) {
    EXPECT_TRUE(has_scenario(name));
    EXPECT_FALSE(scenario_summary(name).empty());
  }
  EXPECT_FALSE(has_scenario("fig99_bogus"));
}

TEST(ScenarioRegistry, EveryScenarioBuilds) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.title.empty()) << name;
    EXPECT_FALSE(spec.metric_name.empty()) << name;
    EXPECT_EQ(spec.workload.coadd.num_tasks, 120u) << name;
    if (spec.is_stats()) {
      EXPECT_TRUE(spec.points.empty()) << name;
    } else {
      EXPECT_FALSE(spec.points.empty()) << name;
      for (const Point& pt : spec.points)
        EXPECT_FALSE(pt.label.empty()) << name;
    }
  }
}

TEST(ScenarioRegistry, UnknownScenarioIsRejected) {
  register_builtin_scenarios();
  EXPECT_THROW((void)build_scenario("fig99_bogus", small_build()),
               std::logic_error);
  EXPECT_THROW((void)scenario_summary("fig99_bogus"), std::logic_error);
}

TEST(ScenarioRegistry, FastCoarsensSweepAxes) {
  register_builtin_scenarios();
  BuildOptions full = small_build();
  full.fast = false;
  EXPECT_LT(build_scenario("fig6_workers", small_build()).points.size(),
            build_scenario("fig6_workers", full).points.size());
  EXPECT_LT(build_scenario("fig7_sites", small_build()).points.size(),
            build_scenario("fig7_sites", full).points.size());
}

TEST(ScenarioDump, EveryDumpParsesWithObsParser) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    std::ostringstream text;
    dump_scenario(spec, text);
    obs::JsonValue doc = obs::parse_json(text.str());
    ASSERT_TRUE(doc.is_object()) << name;
    ASSERT_TRUE(doc.has("name")) << name;
    EXPECT_EQ(doc.find("name")->string, name);
    ASSERT_TRUE(doc.has("kind")) << name;
    const std::string kind = doc.find("kind")->string;
    if (spec.is_stats()) {
      EXPECT_EQ(kind, "workload-stats") << name;
    } else {
      EXPECT_EQ(kind, "sweep") << name;
      ASSERT_TRUE(doc.find("points")->is_array()) << name;
      EXPECT_EQ(doc.find("points")->array.size(), spec.points.size()) << name;
    }
    EXPECT_TRUE(doc.find("workload")->has("num_tasks")) << name;
  }
}

TEST(ScenarioSmoke, EveryScenarioRunsOneSeedFast) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    RunOptions ro;
    ro.seeds = 1;
    ro.jobs = 2;
    ro.tasks = 120;
    ro.fast = true;
    std::ostringstream out, err;
    ro.out = &out;
    ro.err = &err;
    EXPECT_EQ(run_scenario(spec, ro), 0) << name;
    EXPECT_FALSE(out.str().empty()) << name;
  }
}

TEST(ScenarioReport, ReportIsSchemaValid) {
  register_builtin_scenarios();
  ScenarioSpec spec = build_scenario("table3_contention", small_build());
  RunOptions ro;
  ro.seeds = 1;
  ro.jobs = 2;
  ro.tasks = 120;
  ro.fast = true;
  ro.report_name = "test_scenario_report";
  const std::string path =
      testing::TempDir() + "/test_scenario_report.json";
  ro.report_path = path;
  std::ostringstream out, err;
  ro.out = &out;
  ro.err = &err;
  ASSERT_EQ(run_scenario(spec, ro), 0);
  EXPECT_TRUE(obs::validate_report_file(path).empty());
}

TEST(ScenarioTrace, TracedRunUsesTheFirstPointsPlatform) {
  // The spec-level scheduler set runs on a platform that only the point
  // carries: replication. The traced run must run that platform.
  ScenarioSpec spec;
  spec.name = "trace_first_point";
  spec.title = "traced run on a point's platform";
  spec.x_axis = "policy";
  spec.metric_name = "makespan (minutes)";
  spec.workload.coadd = detail::paper_workload(small_build());
  sched::SchedulerSpec sa;
  sa.algorithm = sched::Algorithm::kStorageAffinity;
  spec.schedulers = {sa};
  Point pt;
  pt.label = "least-loaded";
  pt.config = detail::paper_platform();
  pt.config.replication.emplace();
  pt.config.replication->placement = replication::Placement::kLeastLoaded;
  spec.points.push_back(std::move(pt));

  RunOptions ro;
  ro.seeds = 1;
  ro.jobs = 1;
  ro.tasks = 120;
  ro.fast = true;
  ro.report_name = "test_scenario_trace";
  ro.trace_out = testing::TempDir() + "/test_scenario_trace.json";
  const std::string report =
      testing::TempDir() + "/test_scenario_trace_report.json";
  ro.report_path = report;
  std::ostringstream out, err;
  ro.out = &out;
  ro.err = &err;
  ASSERT_EQ(run_scenario(spec, ro), 0);

  const obs::JsonValue doc = obs::parse_json_file(report);
  const obs::JsonValue* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  std::vector<std::string> names;
  for (const obs::JsonValue& ph : phases->array)
    names.push_back(ph.find("phase")->string);
  EXPECT_NE(std::find(names.begin(), names.end(), "replication"),
            names.end());
}

TEST(ScenarioCli, UnknownScenarioFailsWithUsageError) {
  std::string arg0 = "bench_test";
  std::string a1 = "--scenario";
  std::string a2 = "fig99_bogus";
  std::string a3 = "--no-report";
  char* argv[] = {arg0.data(), a1.data(), a2.data(), a3.data()};
  EXPECT_EQ(scenario_main("fig5_transfers", 4, argv), 2);
}

TEST(ScenarioCli, ListScenariosSucceeds) {
  std::string arg0 = "bench_test";
  std::string a1 = "--list-scenarios";
  char* argv[] = {arg0.data(), a1.data()};
  EXPECT_EQ(scenario_main("fig5_transfers", 2, argv), 0);
}

// Malformed numeric values exit through the usage path (exit 2) instead
// of an uncaught std::stoul exception or a silent unsigned wrap.
int run_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return scenario_main("fig5_transfers", static_cast<int>(argv.size()),
                       argv.data());
}

TEST(ScenarioCliDeathTest, NonNumericTasksIsUsageError) {
  EXPECT_EXIT(run_cli({"bench_test", "--tasks", "abc", "--no-report"}),
              ::testing::ExitedWithCode(2), "invalid --tasks value");
}

TEST(ScenarioCliDeathTest, NegativeTasksIsUsageErrorNotWrap) {
  EXPECT_EXIT(run_cli({"bench_test", "--tasks", "-5", "--no-report"}),
              ::testing::ExitedWithCode(2), "invalid --tasks value");
}

TEST(ScenarioCliDeathTest, MalformedNumbersAreUsageErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--seeds", "2x"},
      {"--jobs", "-1"},
      {"--tasks", "99999999999999999999"},  // overflows 64 bits
      {"--block-size", "nan"},
      {"--block-size", "1e999"},
      {"--tenants", "3,-1"},
      {"--tenants", "3,,1"},
      {"--tenants", "4294967296,1"},   // weight overflows 32 bits
      {"--tenants", "1000000000000"}};  // more tenants than tasks
  for (const auto& [flag, value] : cases)
    EXPECT_EXIT(run_cli({"bench_test", flag, value, "--no-report"}),
                ::testing::ExitedWithCode(2), "invalid " + flag)
        << flag << ' ' << value;
}

TEST(ScenarioCliDeathTest, WholeFileCacheFlagIsUnknown) {
  EXPECT_EXIT(run_cli({"bench_test", "--whole-file-cache", "--no-report"}),
              ::testing::ExitedWithCode(2),
              "unknown option --whole-file-cache");
}

TEST(ScenarioCliDeathTest, MalformedJobsEnvironmentIsUsageError) {
  auto list_with_bad_jobs = [] {
    setenv("WCS_BENCH_JOBS", "four", 1);  // only in the death-test child
    return run_cli({"bench_test", "--list-scenarios"});
  };
  EXPECT_EXIT(list_with_bad_jobs(), ::testing::ExitedWithCode(2),
              "invalid WCS_BENCH_JOBS value");
}

}  // namespace
}  // namespace wcs::scenario
