// Renders docs/scenario-catalog.md from the LIVE scenario registry.
//
// Every entry is built with default BuildOptions (the full-scale sweep
// axes and the 6,000-task paper slice), serialized through the same JSON
// dump `--dump-scenario` uses, parsed back with obs::parse_json, and
// rendered as markdown — so the catalog page can never drift from the
// code without CI noticing (scripts/check_docs.sh regenerates the page
// and fails on any diff). Output is deterministic: registry order, no
// timestamps, writer-normalized numbers.
//
//   gen_scenario_docs            # markdown on stdout
//   gen_scenario_docs OUT.md     # write the file instead
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "scenario/catalog.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"

namespace {

using wcs::obs::JsonValue;

// Writer-normalized doubles that hold integers render without a trailing
// ".0" already; this keeps table cells compact for the rest.
std::string num(const JsonValue& v) { return wcs::obs::json_number(v.number); }

std::string field_num(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? num(*v) : "?";
}

std::string scheduler_list(const JsonValue& array) {
  std::string out;
  for (const JsonValue& s : array.array) {
    if (!out.empty()) out += ", ";
    out += "`" + s.string + "`";
  }
  return out;
}

std::string churn_cell(const JsonValue& config) {
  const JsonValue* churn = config.find("churn");
  if (churn == nullptr || churn->is_null()) return "—";
  const double up_h = churn->find("mean_uptime_s")->number / 3600.0;
  const double down_h = churn->find("mean_downtime_s")->number / 3600.0;
  std::ostringstream os;
  os << "up " << up_h << " h / down " << down_h << " h";
  return os.str();
}

std::string replication_cell(const JsonValue& config) {
  const JsonValue* repl = config.find("replication");
  if (repl == nullptr || repl->is_null()) return "—";
  std::string cell;
  if (const JsonValue* placement = repl->find("placement");
      placement != nullptr && placement->is_string())
    cell += "`" + placement->string + "`, ";
  return cell + "threshold " + field_num(*repl, "popularity_threshold");
}

std::string block_store_cell(const JsonValue& config) {
  const JsonValue& bs = *config.find("block_store");
  std::string cell = field_num(bs, "block_size_mb") + " MB blocks";
  if (const JsonValue* overlap = bs.find("content_overlap");
      overlap != nullptr && overlap->number > 0)
    cell += ", overlap " + num(*overlap);
  return cell;
}

// One-line description of a full generator block (spec-level workload or
// a per-point override — both carry the same shape).
std::string workload_desc(const JsonValue& wl) {
  const JsonValue* generator = wl.find("generator");
  std::string out = "`";
  out += generator != nullptr && !generator->string.empty()
             ? generator->string
             : "coadd";
  out += "`, " + field_num(wl, "num_tasks") + " tasks, " +
         field_num(wl, "file_size_mb") + " MB files";
  if (const JsonValue* open = wl.find("open")) {
    out += "; open system — " + open->find("arrival_process")->string +
           " arrivals, mean gap " + field_num(*open, "mean_interarrival_s") +
           " s";
    if (const JsonValue* tenants = open->find("tenants");
        tenants != nullptr && tenants->array.size() > 1)
      out += ", " + std::to_string(tenants->array.size()) + " tenants";
  }
  return out;
}

void render_scenario(const JsonValue& spec, const std::string& summary,
                     std::ostream& md) {
  const std::string name = spec.find("name")->string;
  md << "## `" << name << "` — " << spec.find("title")->string << "\n\n";
  md << summary << "\n\n";

  const bool stats = spec.find("kind")->string == "workload-stats";
  const JsonValue& workload = *spec.find("workload");
  md << "- **Kind**: "
     << (stats ? "workload statistics (no simulations)"
               : "sweep over " + spec.find("x_axis")->string)
     << "\n";
  if (!stats)
    md << "- **Metric**: " << spec.find("metric_name")->string << "\n";
  md << "- **Workload**: " << workload_desc(workload) << "\n";
  const JsonValue* schedulers = spec.find("schedulers");
  if (schedulers != nullptr && !schedulers->array.empty())
    md << "- **Schedulers**: " << scheduler_list(*schedulers) << "\n";
  md << "- **Run**: `./build/bench/bench_" << name
     << "` (any bench accepts `--scenario " << name << "`)\n";

  const JsonValue* points = spec.find("points");
  if (points != nullptr && !points->array.empty()) {
    md << "\n| " << spec.find("x_axis")->string
       << " | sites | workers/site | capacity (files) | eviction | "
          "block store | estimate error | churn | data replication | "
          "per-point overrides |\n";
    md << "|---|---|---|---|---|---|---|---|---|---|\n";
    for (const JsonValue& pt : points->array) {
      const JsonValue& config = *pt.find("config");
      std::string overrides;
      if (const JsonValue* fs = pt.find("file_size_mb"))
        overrides += "file size " + num(*fs) + " MB";
      if (const JsonValue* wl = pt.find("workload")) {
        if (!overrides.empty()) overrides += "; ";
        overrides += "workload " + workload_desc(*wl);
      }
      if (const JsonValue* rows = pt.find("row_labels");
          rows != nullptr && !rows->array.empty()) {
        if (!overrides.empty()) overrides += "; ";
        overrides += "rows: ";
        for (std::size_t i = 0; i < rows->array.size(); ++i)
          overrides +=
              (i != 0U ? ", " : "") + ("`" + rows->array[i].string + "`");
      } else if (const JsonValue* sch = pt.find("schedulers");
                 sch != nullptr && !sch->array.empty()) {
        if (!overrides.empty()) overrides += "; ";
        overrides += "schedulers: " + scheduler_list(*sch);
      }
      md << "| " << pt.find("label")->string << " | "
         << field_num(config, "num_sites") << " | "
         << field_num(config, "workers_per_site") << " | "
         << field_num(config, "capacity_files") << " | "
         << config.find("eviction")->string << " | "
         << block_store_cell(config) << " | "
         << field_num(config, "estimate_error") << " | " << churn_cell(config)
         << " | " << replication_cell(config) << " | "
         << (overrides.empty() ? "—" : overrides) << " |\n";
    }
  }
  if (const JsonValue* notes = spec.find("notes"))
    md << "\nReading: " << notes->string << "\n";
  md << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  wcs::scenario::register_builtin_scenarios();

  std::ostringstream md;
  md << "# Scenario catalog\n\n";
  md << "<!-- GENERATED FILE — do not edit by hand.\n";
  md << "     Regenerate with: ./build/tools/gen_scenario_docs "
        "docs/scenario-catalog.md\n";
  md << "     scripts/check_docs.sh (CI `docs` job) fails when this page\n";
  md << "     drifts from the registry in src/scenario/catalog.cc. -->\n\n";
  md << "Every paper table/figure plus the ablation and extension studies "
        "is a\nnamed entry in the declarative scenario registry "
        "(`src/scenario`). Each\nsection below is rendered from the spec "
        "a default (full-scale) build\nwould execute — the same data "
        "`--dump-scenario NAME` prints as JSON.\nSweep tables list one "
        "row per point; `--fast` coarsens the axes and\nshrinks the "
        "workload (see [operators-guide.md](operators-guide.md)).\n\n";

  const std::vector<std::string> names = wcs::scenario::scenario_names();
  for (const std::string& name : names) {
    const wcs::scenario::ScenarioSpec spec =
        wcs::scenario::build_scenario(name, wcs::scenario::BuildOptions{});
    std::ostringstream json;
    wcs::scenario::dump_scenario(spec, json);
    render_scenario(wcs::obs::parse_json(json.str()),
                    wcs::scenario::scenario_summary(name), md);
  }

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::cerr << "cannot open " << argv[1] << " for writing\n";
      return 1;
    }
    out << md.str();
  } else {
    std::cout << md.str();
  }
  return 0;
}
