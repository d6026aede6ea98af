// Tests for the INI config reader and the experiment-struct mappings.
#include <gtest/gtest.h>

#include "common/config_file.h"
#include "grid/experiment.h"
#include "grid/experiment_io.h"

namespace wcs {
namespace {

TEST(ConfigFile, ParsesSectionsAndKeys) {
  auto cfg = ConfigFile::parse_string(
      "top = 1\n[a]\nx = hello\ny = 2.5\n[b]\nx = -3\n");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.get_string("top"), "1");
  EXPECT_EQ(cfg.get_string("a.x"), "hello");
  EXPECT_DOUBLE_EQ(cfg.get_double("a.y"), 2.5);
  EXPECT_EQ(cfg.get_int("b.x"), -3);
}

TEST(ConfigFile, CommentsAndWhitespace) {
  auto cfg = ConfigFile::parse_string(
      "# full-line comment\n"
      "  [ sec ]  \n"
      "  key = value  # trailing comment\n"
      "; semicolon comment\n"
      "\n"
      "other=1;x\n");
  EXPECT_EQ(cfg.get_string("sec.key"), "value");
  EXPECT_EQ(cfg.get_int("sec.other"), 1);
}

TEST(ConfigFile, Booleans) {
  auto cfg = ConfigFile::parse_string(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = Yes\n");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
  EXPECT_TRUE(cfg.get_bool("e"));
  EXPECT_THROW((void)ConfigFile::parse_string("x = maybe\n").get_bool("x"),
               std::logic_error);
}

TEST(ConfigFile, FallbacksAndMissing) {
  auto cfg = ConfigFile::parse_string("[s]\nx = 5\n");
  EXPECT_TRUE(cfg.has("s.x"));
  EXPECT_FALSE(cfg.has("s.y"));
  EXPECT_EQ(cfg.get_int_or("s.y", 9), 9);
  EXPECT_EQ(cfg.get_string_or("s.z", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double_or("s.w", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool_or("s.b", true));
  EXPECT_THROW((void)cfg.get_string("s.y"), std::logic_error);
}

TEST(ConfigFile, MalformedInputsThrow) {
  EXPECT_THROW((void)ConfigFile::parse_string("[unclosed\n"),
               std::logic_error);
  EXPECT_THROW((void)ConfigFile::parse_string("novalue\n"), std::logic_error);
  EXPECT_THROW((void)ConfigFile::parse_string("= nokey\n"), std::logic_error);
  EXPECT_THROW((void)ConfigFile::parse_string("[]\nx=1\n"), std::logic_error);
  EXPECT_THROW((void)ConfigFile::parse_string("x=1\nx=2\n"),
               std::logic_error);
}

TEST(ConfigFile, NumericValidation) {
  auto cfg = ConfigFile::parse_string("a = 12abc\nb = 1.5.2\n");
  EXPECT_THROW((void)cfg.get_int("a"), std::logic_error);
  EXPECT_THROW((void)cfg.get_double("b"), std::logic_error);
}

TEST(ConfigFile, RejectsNonFiniteDouble) {
  // std::stod parses the first three and overflows on the last; every
  // one must be rejected with a diagnostic naming its key.
  auto cfg = ConfigFile::parse_string(
      "[platform]\nuplink_mbps = inf\njitter = -infinity\nwan_mbps = nan\n"
      "man_mbps = 1e999\n");
  for (const char* key : {"platform.uplink_mbps", "platform.jitter",
                          "platform.wan_mbps", "platform.man_mbps"}) {
    SCOPED_TRACE(key);
    try {
      (void)cfg.get_double(key);
      ADD_FAILURE() << "accepted a non-finite value";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)grid::grid_config_from(cfg), std::logic_error);
}

// --- Experiment mapping ----------------------------------------------------

TEST(ExperimentIo, DefaultsMatchPaperTable1) {
  auto cfg = ConfigFile::parse_string("");
  grid::GridConfig c = grid::grid_config_from(cfg);
  EXPECT_EQ(c.tiers.num_sites, 10);
  EXPECT_EQ(c.tiers.workers_per_site, 1);
  EXPECT_EQ(c.capacity_files, 6000u);
  EXPECT_EQ(c.eviction, storage::EvictionPolicy::kLru);
  EXPECT_FALSE(c.replication.has_value());
  EXPECT_FALSE(c.churn.has_value());

  workload::CoaddParams wp = grid::coadd_params_from(cfg);
  EXPECT_EQ(wp.num_tasks, 6000u);
  EXPECT_EQ(wp.file_size, megabytes(25));

  sched::SchedulerSpec s = grid::scheduler_spec_from(cfg);
  EXPECT_EQ(s.name(), "rest");
}

TEST(ExperimentIo, FullRoundTrip) {
  auto cfg = ConfigFile::parse_string(
      "[platform]\n"
      "num_sites = 4\nworkers_per_site = 3\ncapacity_files = 500\n"
      "eviction = minref\nuplink_mbps = 8\n"
      "[workload]\n"
      "num_tasks = 120\nfile_size_mb = 5\nseed = 9\n"
      "[scheduler]\n"
      "algorithm = combined\nchoose_n = 2\ntask_replication = true\n"
      "[replication]\n"
      "enabled = true\nplacement = random\npopularity_threshold = 4\n"
      "[churn]\n"
      "enabled = true\nmean_uptime_h = 10\nmean_downtime_h = 1\n");
  grid::GridConfig c = grid::grid_config_from(cfg);
  EXPECT_EQ(c.tiers.num_sites, 4);
  EXPECT_EQ(c.tiers.workers_per_site, 3);
  EXPECT_EQ(c.capacity_files, 500u);
  EXPECT_EQ(c.eviction, storage::EvictionPolicy::kMinRef);
  EXPECT_DOUBLE_EQ(c.tiers.uplink_bandwidth_bps, mbps(8));
  ASSERT_TRUE(c.replication.has_value());
  EXPECT_EQ(c.replication->placement, replication::Placement::kRandom);
  EXPECT_EQ(c.replication->popularity_threshold, 4u);
  ASSERT_TRUE(c.churn.has_value());
  EXPECT_DOUBLE_EQ(c.churn->mean_uptime_s, hours(10));

  workload::CoaddParams wp = grid::coadd_params_from(cfg);
  EXPECT_EQ(wp.num_tasks, 120u);
  EXPECT_EQ(wp.file_size, megabytes(5));
  EXPECT_EQ(wp.seed, 9u);

  sched::SchedulerSpec s = grid::scheduler_spec_from(cfg);
  EXPECT_EQ(s.name(), "combined.2+repl");
}

TEST(ExperimentIo, RejectsUnknownEnumValues) {
  auto bad_eviction =
      ConfigFile::parse_string("[platform]\neviction = lifo\n");
  EXPECT_THROW((void)grid::grid_config_from(bad_eviction), std::logic_error);
  auto bad_algorithm =
      ConfigFile::parse_string("[scheduler]\nalgorithm = magic\n");
  EXPECT_THROW((void)grid::scheduler_spec_from(bad_algorithm),
               std::logic_error);
}

TEST(ExperimentIo, ConfiguredExperimentRuns) {
  auto cfg = ConfigFile::parse_string(
      "[platform]\nnum_sites = 2\ncapacity_files = 400\n"
      "[workload]\nnum_tasks = 40\nfile_size_mb = 5\n"
      "[scheduler]\nalgorithm = rest\n");
  auto job = workload::generate_coadd(grid::coadd_params_from(cfg));
  auto r = grid::run_once(grid::grid_config_from(cfg), job,
                          grid::scheduler_spec_from(cfg), 1);
  EXPECT_EQ(r.tasks_completed, 40u);
}

}  // namespace
}  // namespace wcs
