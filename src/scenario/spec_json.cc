#include "scenario/spec_json.h"

#include <cstdint>

#include "obs/json.h"
#include "storage/file_cache.h"

namespace wcs::scenario {

namespace {

void write_schedulers(obs::JsonWriter& w,
                      const std::vector<sched::SchedulerSpec>& specs) {
  w.begin_array();
  for (const sched::SchedulerSpec& s : specs) w.value(s.name());
  w.end_array();
}

void write_config(obs::JsonWriter& w, const grid::GridConfig& c) {
  w.begin_object();
  w.member("num_sites", c.tiers.num_sites);
  w.member("workers_per_site", c.tiers.workers_per_site);
  w.member("capacity_files", static_cast<std::uint64_t>(c.capacity_files));
  w.member("eviction", storage::to_string(c.eviction));
  w.member("estimate_error", c.estimate_error);
  w.key("block_store");
  w.begin_object();
  w.member("block_size_mb", to_megabytes(c.block_store.value().block_size));
  w.member("content_overlap", c.block_store.value().content_overlap);
  w.end_object();
  w.key("churn");
  if (c.churn) {
    w.begin_object();
    w.member("mean_uptime_s", c.churn->mean_uptime_s);
    w.member("mean_downtime_s", c.churn->mean_downtime_s);
    w.end_object();
  } else {
    w.null();
  }
  w.key("replication");
  if (c.replication) {
    w.begin_object();
    w.member("placement", replication::to_string(c.replication->placement));
    w.member("popularity_threshold",
             static_cast<std::uint64_t>(c.replication->popularity_threshold));
    w.end_object();
  } else {
    w.null();
  }
  w.end_object();
}

// Full generator block, shared by the spec-level workload and the
// per-point overrides so both round-trip every parameter a generator
// actually reads (a per-point override replaces the whole spec).
void write_workload(obs::JsonWriter& w, const workload::GeneratorSpec& ws) {
  w.begin_object();
  w.member("generator", ws.generator);
  w.member("num_tasks", static_cast<std::uint64_t>(ws.coadd.num_tasks));
  w.member("file_size_mb", to_megabytes(ws.coadd.file_size));
  if (ws.open.process != workload::ArrivalProcess::kAtT0 ||
      ws.open.tenants.size() > 1) {
    w.key("open");
    w.begin_object();
    w.member("arrival_process", workload::to_string(ws.open.process));
    w.member("mean_interarrival_s", ws.open.mean_interarrival_s);
    w.key("tenants");
    w.begin_array();
    for (const workload::TenantInfo& t : ws.open.tenants) {
      w.begin_object();
      w.member("name", t.name);
      w.member("weight", t.weight);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void dump_scenario(const ScenarioSpec& spec, std::ostream& out) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.member("name", spec.name);
  w.member("title", spec.title);
  w.member("kind", spec.is_stats() ? "workload-stats" : "sweep");
  w.member("x_axis", spec.x_axis);
  w.member("metric", to_string(spec.metric));
  w.member("metric_name", spec.metric_name);

  w.key("workload");
  write_workload(w, spec.workload);

  w.key("schedulers");
  write_schedulers(w, spec.schedulers);

  w.key("points");
  w.begin_array();
  for (const Point& pt : spec.points) {
    w.begin_object();
    w.member("x", pt.x);
    w.member("label", pt.label);
    w.key("config");
    write_config(w, pt.config);
    if (pt.file_size) {
      w.member("file_size_mb", to_megabytes(*pt.file_size));
    }
    if (pt.workload) {
      w.key("workload");
      write_workload(w, *pt.workload);
    }
    if (!pt.schedulers.empty()) {
      w.key("schedulers");
      write_schedulers(w, pt.schedulers);
    }
    if (!pt.row_labels.empty()) {
      w.key("row_labels");
      w.begin_array();
      for (const std::string& label : pt.row_labels) w.value(label);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  if (!spec.notes.empty()) w.member("notes", spec.notes);
  w.end_object();
  out << '\n';
}

}  // namespace wcs::scenario
