#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "grid/grid_simulation.h"
#include "net/tiers.h"
#include "reference.h"
#include "sched/factory.h"

namespace wcs::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One "Vm...: N kB" field of /proc/self/status, in megabytes.
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0)
      return static_cast<double>(std::atol(line.c_str() + key_len)) / 1024.0;
  return 0.0;
}

double rss_mb() { return proc_status_mb("VmRSS:"); }
double peak_rss_mb() { return proc_status_mb("VmHWM:"); }

// Hand freed heap back to the kernel between simulations, so every
// simulation starts from the same resident floor and pays the same page
// faults, as it would in a fresh process. Outside every timed region.
void release_heap() { malloc_trim(0); }

Outcome outcome_of(const metrics::RunResult& r) {
  Outcome o;
  o.tasks_completed = r.tasks_completed;
  o.makespan_s = r.makespan_s;
  o.transfers = r.total_file_transfers();
  o.wire_bytes = r.total_bytes_transferred() + r.bytes_replicated;
  for (const metrics::TenantResult& t : r.tenants) {
    o.sojourn_p50_s = std::max(o.sojourn_p50_s, t.sojourn_p50_s);
    o.sojourn_p99_s = std::max(o.sojourn_p99_s, t.sojourn_p99_s);
  }
  return o;
}

SimMeasure run_sim(const WorkloadPlan& plan, const SimSpec& spec,
                   bool traced) {
  SimMeasure m;
  m.label = spec.label;
  release_heap();
  try {
    const Clock::time_point t0 = Clock::now();
    const workload::Workload w = plan.generate();
    m.gen_s = since(t0);
    m.num_files = w.job.catalog.num_files();

    const double rss_before = rss_mb();
    LayerTracer tracer;
    const Clock::time_point t1 = Clock::now();
    std::unique_ptr<sched::Scheduler> scheduler =
        sched::make_scheduler(spec.scheduler, &w.arrivals);
    grid::GridConfig config = spec.config;
    if (traced) {
      scheduler =
          std::make_unique<TracingScheduler>(std::move(scheduler), tracer);
      config.obs.profile = true;
    }
    grid::GridSimulation sim(config, w, std::move(scheduler));
    m.construct_s = since(t1);
    m.setup_rss_mb = rss_mb();
    m.construct_rss_mb = m.setup_rss_mb - rss_before;

    if (traced) {
      tracer.bind(sim.observability()->profiler(), &sim.simulator());
      tracer.enter(SpanKind::kRun);
    }
    const Clock::time_point t2 = Clock::now();
    m.result = sim.run();
    m.run_s = since(t2);
    if (traced) {
      tracer.exit();
      m.layers = std::move(tracer.totals());
    }

    m.outcome = outcome_of(m.result);
    m.peak_live_events = sim.simulator().peak_live_events();
    m.flows_completed = sim.data_plane().flows().completed_flows();
    m.flows_cancelled = sim.data_plane().flows().cancelled_flows();
    m.ok = true;
  } catch (const std::exception& e) {
    m.error = e.what();
  }
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Median over passes of a per-pass value.
template <typename F>
Metric over_passes(const std::vector<PassMeasure>& passes, const char* unit,
                   F per_pass) {
  std::vector<double> values;
  for (const PassMeasure& p : passes) values.push_back(per_pass(p));
  return {unit, median(values), values.size()};
}

template <typename F>
double sum_sims(const PassMeasure& p, F per_sim) {
  double total = 0;
  for (const SimMeasure& s : p.sims) total += per_sim(s);
  return total;
}

template <typename F>
double max_sims(const PassMeasure& p, F per_sim) {
  double best = 0;
  for (const SimMeasure& s : p.sims) best = std::max(best, per_sim(s));
  return best;
}

// Self time the traced pass attributes to a measured layer.
double attributed_s(const SimMeasure& s) {
  const LayerTotals& l = s.layers;
  return s.gen_s + s.construct_s + l.self(SpanKind::kSubmit) +
         l.self(SpanKind::kRequest) + l.self(SpanKind::kComplete) +
         l.self(SpanKind::kArrive) + l.self(SpanKind::kCacheEvent) +
         l.dispatch_self_s + l.phase(obs::Phase::kFlowDirtySet) +
         l.phase(obs::Phase::kFlowRebalance) + l.eviction_self_s +
         l.phase(obs::Phase::kReporting);
}

}  // namespace

double PassMeasure::setup_s() const {
  return sum_sims(*this, [](const SimMeasure& s) { return s.setup_s(); });
}

double PassMeasure::run_s() const {
  return sum_sims(*this, [](const SimMeasure& s) { return s.run_s; });
}

PassMeasure run_pass(const WorkloadPlan& plan, bool traced) {
  PassMeasure pass;
  pass.traced = traced;
  for (const SimSpec& spec : plan.sims)
    pass.sims.push_back(run_sim(plan, spec, traced));
  return pass;
}

RouteMeasure measure_routes(const WorkloadPlan& plan) {
  RouteMeasure m;
  release_heap();
  const Clock::time_point t0 = Clock::now();
  const net::GridTopology g =
      net::build_tiers_topology(plan.sims.front().config.tiers);
  m.topology_s = since(t0);
  const double rss_before = rss_mb();
  const Clock::time_point t1 = Clock::now();
  double latency = 0;
  for (const std::vector<NodeId>& site : g.worker_nodes)
    for (NodeId worker : site)
      latency += g.topology.path_latency(worker, g.scheduler_node);
  m.route_query_s = since(t1);
  m.route_rss_mb = rss_mb() - rss_before;
  WCS_CHECK_MSG(std::isfinite(latency) && latency > 0,
                "route query produced latency " << latency);
  return m;
}

MetricMap end_to_end_metrics(const WorkloadPlan& plan,
                             const std::vector<PassMeasure>& untraced,
                             std::uint64_t attempted, std::uint64_t failed) {
  MetricMap m;
  m["setup_s"] = over_passes(untraced, "s",
                             [](const PassMeasure& p) { return p.setup_s(); });
  m["run_s"] = over_passes(untraced, "s",
                           [](const PassMeasure& p) { return p.run_s(); });
  m["wall_s"] = over_passes(untraced, "s",
                            [](const PassMeasure& p) { return p.wall_s(); });
  m["peak_rss_mb"] = {"MB", peak_rss_mb(), 1};
  m["setup_rss_mb"] = over_passes(untraced, "MB", [](const PassMeasure& p) {
    return max_sims(p, [](const SimMeasure& s) { return s.setup_rss_mb; });
  });
  m["failed_frac"] = {"ratio",
                      ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
                      static_cast<std::size_t>(attempted)};
  // Simulated metrics repeat exactly across passes (the gate checks it);
  // report the first pass.
  const PassMeasure& first = untraced.front();
  const std::size_t n = first.sims.size();
  auto total = [&](const char* name, const char* unit, auto per_sim) {
    m[name] = {unit, sum_sims(first, per_sim), n};
  };
  auto mean = [&](const char* name, const char* unit, auto per_sim) {
    m[name] = {unit, sum_sims(first, per_sim) / static_cast<double>(n), n};
  };
  mean("sim_makespan_min", "min",
       [](const SimMeasure& s) { return s.outcome.makespan_s / 60.0; });
  total("sim_transfers", "count", [](const SimMeasure& s) {
    return static_cast<double>(s.outcome.transfers);
  });
  total("sim_wire_gb", "GB",
        [](const SimMeasure& s) { return s.outcome.wire_bytes / 1e9; });
  if (plan.name == "open") {
    mean("sim_sojourn_p50_s", "s",
         [](const SimMeasure& s) { return s.outcome.sojourn_p50_s; });
    mean("sim_sojourn_p99_s", "s",
         [](const SimMeasure& s) { return s.outcome.sojourn_p99_s; });
  }
  return m;
}

const std::vector<std::string>& reported_end_to_end() {
  static const std::vector<std::string> names = {
      "setup_s",      "run_s",         "wall_s",        "peak_rss_mb",
      "setup_rss_mb", "sim_makespan_min", "sim_transfers", "sim_wire_gb"};
  return names;
}

MetricMap layer_metrics(const std::vector<PassMeasure>& traced,
                        const std::vector<PassMeasure>& untraced,
                        const RouteMeasure& routes) {
  MetricMap m;
  using S = SimMeasure;
  auto sum = [&](const char* name, const char* unit, auto per_sim) {
    m[name] = over_passes(traced, unit, [&](const PassMeasure& p) {
      return sum_sims(p, per_sim);
    });
  };
  auto per_pass = [&](const char* name, const char* unit, auto f) {
    m[name] = over_passes(traced, unit, f);
  };
  // Ratio of two per-simulation values, each summed over the pass.
  auto ratio_of_sums = [&](const char* name, auto num, auto den) {
    per_pass(name, "ratio", [&](const PassMeasure& p) {
      return ratio(sum_sims(p, num), sum_sims(p, den));
    });
  };
  auto span_self = [](SpanKind k) {
    return [k](const S& s) { return s.layers.self(k); };
  };
  auto span_calls = [](SpanKind k) {
    return [k](const S& s) {
      return static_cast<double>(s.layers.count(k));
    };
  };
  auto phase_s = [](obs::Phase p) {
    return [p](const S& s) { return s.layers.phase(p); };
  };

  // workload
  sum("workload.gen_s", "s", [](const S& s) { return s.gen_s; });
  sum("workload.tasks", "count", [](const S& s) {
    return static_cast<double>(s.result.tasks_completed);
  });
  sum("workload.files", "count",
      [](const S& s) { return static_cast<double>(s.num_files); });

  // net: routes, measured on their own
  m["net.topology_s"] = {"s", routes.topology_s, 1};
  m["net.route_query_s"] = {"s", routes.route_query_s, 1};
  m["net.route_rss_mb"] = {"MB", routes.route_rss_mb, 1};

  // grid
  sum("grid.construct_s", "s", [](const S& s) { return s.construct_s; });
  per_pass("grid.construct_rss_mb", "MB", [](const PassMeasure& p) {
    return max_sims(p, [](const S& s) { return s.construct_rss_mb; });
  });
  sum("grid.assignments", "count",
      [](const S& s) { return static_cast<double>(s.result.assignments); });
  sum("grid.replicas_started", "count", [](const S& s) {
    return static_cast<double>(s.result.replicas_started);
  });
  ratio_of_sums(
      "grid.replica_waste",
      [](const S& s) {
        return static_cast<double>(s.result.replicas_cancelled);
      },
      [](const S& s) {
        return static_cast<double>(s.result.replicas_started);
      });

  // sim
  sum("sim.events", "count", [](const S& s) {
    return static_cast<double>(s.result.events_executed);
  });
  // Throughput of the untraced kernel.
  m["sim.events_per_s"] =
      over_passes(untraced, "1/s", [](const PassMeasure& p) {
        return ratio(sum_sims(p,
                              [](const S& s) {
                                return static_cast<double>(
                                    s.result.events_executed);
                              }),
                     p.run_s());
      });
  per_pass("sim.peak_live_events", "count", [](const PassMeasure& p) {
    return max_sims(
        p, [](const S& s) { return static_cast<double>(s.peak_live_events); });
  });
  sum("sim.dispatch_s", "s",
      [](const S& s) { return s.layers.dispatch_self_s; });

  // sched
  sum("sched.submit_s", "s", span_self(SpanKind::kSubmit));
  sum("sched.request_calls", "count", span_calls(SpanKind::kRequest));
  sum("sched.request_s", "s", span_self(SpanKind::kRequest));
  auto request_pct = [](double q) {
    return [q](const PassMeasure& p) {
      std::vector<double> us;
      for (const S& s : p.sims)
        us.insert(us.end(), s.layers.request_us.begin(),
                  s.layers.request_us.end());
      return percentile(std::move(us), q);
    };
  };
  per_pass("sched.request_p50_us", "us", request_pct(0.50));
  per_pass("sched.request_p99_us", "us", request_pct(0.99));
  ratio_of_sums(
      "sched.assign_per_request",
      [](const S& s) { return static_cast<double>(s.layers.useful_requests); },
      span_calls(SpanKind::kRequest));
  sum("sched.cache_event_calls", "count", span_calls(SpanKind::kCacheEvent));
  sum("sched.cache_event_s", "s", span_self(SpanKind::kCacheEvent));
  sum("sched.complete_s", "s", span_self(SpanKind::kComplete));
  sum("sched.arrive_calls", "count", span_calls(SpanKind::kArrive));
  sum("sched.arrive_s", "s", span_self(SpanKind::kArrive));
  for (const std::string& label : all_row_labels()) {
    auto of_row = [label](auto f) {
      return [label, f](const S& s) { return s.label == label ? f(s) : 0.0; };
    };
    sum(("row." + label + ".run_s").c_str(), "s",
        of_row([](const S& s) { return s.run_s; }));
    sum(("row." + label + ".cache_event_s").c_str(), "s",
        of_row(span_self(SpanKind::kCacheEvent)));
  }

  // net: flow solve
  sum("net.flow_rebalance_s", "s", phase_s(obs::Phase::kFlowRebalance));
  auto rebalance_calls = [](const S& s) {
    return static_cast<double>(s.layers.phase_calls[static_cast<std::size_t>(
        obs::Phase::kFlowRebalance)]);
  };
  sum("net.flow_rebalance_calls", "count", rebalance_calls);
  sum("net.flow_dirty_s", "s", phase_s(obs::Phase::kFlowDirtySet));
  sum("net.flows_completed", "count",
      [](const S& s) { return static_cast<double>(s.flows_completed); });
  sum("net.flows_cancelled", "count",
      [](const S& s) { return static_cast<double>(s.flows_cancelled); });
  ratio_of_sums("net.rebalances_per_flow", rebalance_calls, [](const S& s) {
    return static_cast<double>(s.flows_completed + s.flows_cancelled);
  });

  // storage
  auto hits = [](const S& s) {
    return static_cast<double>(s.result.total_cache_hits());
  };
  auto transfers = [](const S& s) {
    return static_cast<double>(s.result.total_file_transfers());
  };
  sum("storage.cache_hits", "count", hits);
  ratio_of_sums("storage.hit_ratio", hits,
                [&](const S& s) { return hits(s) + transfers(s); });
  sum("storage.evictions", "count", [](const S& s) {
    return static_cast<double>(s.result.total_evictions());
  });
  sum("storage.eviction_s", "s",
      [](const S& s) { return s.layers.eviction_self_s; });
  auto saved = [](const S& s) { return s.result.total_bytes_saved(); };
  auto moved = [](const S& s) { return s.result.total_bytes_transferred(); };
  sum("storage.gb_saved", "GB", [&](const S& s) { return saved(s) / 1e9; });
  per_pass("storage.dedup_ratio", "ratio", [&](const PassMeasure& p) {
    const double mv = sum_sims(p, moved);
    return mv > 0 ? (mv + sum_sims(p, saved)) / mv : 1.0;
  });
  sum("storage.wait_h", "h",
      [](const S& s) { return s.result.total_waiting_s() / 3600.0; });
  sum("storage.transfer_h", "h",
      [](const S& s) { return s.result.total_transfer_s() / 3600.0; });

  // replication
  sum("replication.files", "count", [](const S& s) {
    return static_cast<double>(s.result.files_replicated);
  });
  sum("replication.gb", "GB",
      [](const S& s) { return s.result.bytes_replicated / 1e9; });

  // obs / trace
  sum("obs.report_s", "s", phase_s(obs::Phase::kReporting));
  per_pass("trace.unattributed_frac", "ratio", [](const PassMeasure& p) {
    const double wall = p.wall_s();
    return ratio(wall - sum_sims(p, attributed_s), wall);
  });
  const double traced_wall =
      over_passes(traced, "s", [](const PassMeasure& p) { return p.wall_s(); })
          .value;
  const double untraced_wall =
      over_passes(untraced, "s", [](const PassMeasure& p) {
        return p.wall_s();
      }).value;
  m["trace.overhead_frac"] = {"ratio", ratio(traced_wall, untraced_wall) - 1.0,
                              std::min(traced.size(), untraced.size())};
  return m;
}

std::vector<std::string> check_pass(const WorkloadPlan& plan,
                                    const PassMeasure& pass,
                                    const PassMeasure* baseline) {
  std::vector<std::string> failures;
  const bool pinned = plan.default_size && plan.seed == kDefaultSeed;
  for (std::size_t i = 0; i < pass.sims.size(); ++i) {
    const SimMeasure& s = pass.sims[i];
    std::ostringstream why;
    if (!s.ok) {
      why << "threw: " << s.error;
    } else if (s.outcome.tasks_completed != plan.tasks) {
      why << "completed " << s.outcome.tasks_completed << " of " << plan.tasks
          << " tasks";
    } else if (baseline != nullptr && baseline->sims[i].ok &&
               !(s.outcome == baseline->sims[i].outcome)) {
      why << (pass.traced ? "traced run disagrees with the untraced run"
                          : "repeat disagrees with the first pass");
    } else if (pinned) {
      const ReferenceRow* ref = find_reference(plan.name, s.label);
      if (ref == nullptr) {
        why << "no pinned reference";
      } else if (s.outcome.makespan_s != ref->makespan_s ||
                 s.outcome.transfers != ref->transfers ||
                 s.outcome.wire_bytes != ref->wire_bytes) {
        why << "differs from the pinned reference";
      }
    }
    if (!why.str().empty())
      failures.push_back(plan.name + "/" + s.label + ": " + why.str());
  }
  return failures;
}

namespace {

bool all_of_charset(const std::string& s, const char* extra) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') ||
                    (c != '\0' && std::strchr(extra, c) != nullptr);
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  return all_of_charset(name, "_.-");
}

bool valid_unit(const std::string& unit) {
  return all_of_charset(unit, "_/%.-");
}

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

std::string untimeable_build_reason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "unoptimized or assertion-enabled build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type + "'";
  return "";
#endif
}

}  // namespace wcs::perfbench
