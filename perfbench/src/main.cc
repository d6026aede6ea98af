// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload paper|scale|open --seed N --seconds S --trace 0|1
//             [--print-reference]
//
// --trace 0 repeats untraced passes for S seconds (at least two) and
// reports the end-to-end metrics; --trace 1 alternates untraced and
// traced passes for S seconds (at least one pair) and reports the
// per-layer metrics. Every pass is checked (harness.h: check_pass). The
// table goes first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 1 when any
// simulation failed, 2 on a usage error or an untimeable build.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace wcs::perfbench;

constexpr std::size_t kMinUntracedPasses = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  bool print_reference = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload paper|scale|open --seed N "
               "--seconds S --trace 0|1 [--print-reference]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    usage("bad value '" + text + "' for " + flag);
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-reference") {
      o.print_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, value);
      if (!(o.seconds > 0 && o.seconds <= 3600))
        usage("--seconds must be in (0, 3600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : workload_names())
    known = known || name == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");
  return o;
}

std::string number(double v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

void print_table(const MetricMap& metrics) {
  std::printf("%-34s %-6s %20s %6s\n", "metric", "unit", "median", "n");
  for (const auto& [name, m] : metrics)
    std::printf("%-34s %-6s %20s %6zu\n", name.c_str(), m.unit.c_str(),
                number(m.value).c_str(), m.samples);
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const MetricMap& metrics,
                const std::vector<std::string>& names) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const Metric& m = metrics.at(name);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_reference(const WorkloadPlan& plan, const PassMeasure& pass) {
  for (const SimMeasure& s : pass.sims) {
    char makespan[64];
    char wire[64];
    std::snprintf(makespan, sizeof makespan, "%.17g", s.outcome.makespan_s);
    std::snprintf(wire, sizeof wire, "%.17g", s.outcome.wire_bytes);
    std::printf("    {\"%s\", \"%s\", %s, %llu, %s},\n", plan.name.c_str(),
                s.label.c_str(), makespan,
                static_cast<unsigned long long>(s.outcome.transfers), wire);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (const std::string why = untimeable_build_reason(); !why.empty()) {
    std::cerr << "perfbench: refusing to time a " << why
              << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const WorkloadPlan plan = make_plan(opt.workload, opt.seed);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<PassMeasure> untraced;
  std::vector<PassMeasure> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto record = [&](PassMeasure pass) {
    const PassMeasure* baseline = untraced.empty() ? nullptr : &untraced[0];
    for (const std::string& f : check_pass(plan, pass, baseline)) {
      std::cerr << "perfbench: FAILED " << f << "\n";
      ++failed;
    }
    attempted += pass.sims.size();
    (pass.traced ? traced : untraced).push_back(std::move(pass));
  };
  if (opt.trace) {
    do {
      record(run_pass(plan, false));
      record(run_pass(plan, true));
    } while (elapsed() < opt.seconds);
  } else {
    do {
      record(run_pass(plan, false));
    } while (elapsed() < opt.seconds || untraced.size() < kMinUntracedPasses);
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d build=%s "
              "passes=%zu+%zu simulations=%llu failed=%llu\n",
              plan.name.c_str(), static_cast<unsigned long long>(plan.seed),
              opt.trace ? 1 : 0, build_type(), untraced.size(),
              traced.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("wall_s per untraced pass:");
  for (const PassMeasure& p : untraced) std::printf(" %.3f", p.wall_s());
  std::printf("\n");
  if (opt.print_reference) print_reference(plan, untraced.front());

  MetricMap metrics;
  std::vector<std::string> names;
  if (opt.trace) {
    metrics = layer_metrics(traced, untraced, measure_routes(plan));
    for (const auto& [name, m] : metrics) names.push_back(name);
  } else {
    metrics = end_to_end_metrics(plan, untraced, attempted, failed);
    names = reported_end_to_end();
  }
  print_table(metrics);
  print_json(failed == 0, attempted, failed, metrics, names);
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
