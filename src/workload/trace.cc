#include "workload/trace.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"

namespace wcs::workload {

void save_job(const Job& job, std::ostream& out) {
  // mflop must survive a save/load round trip exactly (the trace-replay
  // test re-runs the parsed job and expects identical results), so print
  // doubles at full round-trip precision, not the stream default of 6.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "job " << (job.name().empty() ? "unnamed" : job.name()) << '\n';
  out << "files " << job.catalog.num_files() << '\n';
  for (std::size_t i = 0; i < job.catalog.num_files(); ++i)
    out << "filesize " << i << ' '
        << job.catalog.size(FileId(static_cast<FileId::underlying_type>(i)))
        << '\n';
  for (const Task& t : job.tasks()) {
    out << "task " << t.id.value() << ' ' << t.mflop;
    for (FileId f : t.files) out << ' ' << f.value();
    out << '\n';
  }
}

void save_job(const Job& job, const std::string& path) {
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open " << path);
  save_job(job, out);
}

void save_workload(const Workload& workload, std::ostream& out) {
  save_job(workload.job, out);
  // A closed workload serializes as a plain job: byte-identical to the
  // legacy format, loadable by old readers.
  if (!workload.open()) return;
  const ArrivalSchedule& s = workload.arrivals;
  for (std::size_t t = 0; t < s.tenants.size(); ++t)
    out << "tenant " << t << ' ' << s.tenants[t].weight << ' '
        << (s.tenants[t].name.empty() ? "unnamed" : s.tenants[t].name)
        << '\n';
  for (const Task& task : workload.job.tasks())
    out << "arrival " << task.id.value() << ' ' << s.tenant(task.id) << ' '
        << s.arrival(task.id) << '\n';
}

void save_workload(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open " << path);
  save_workload(workload, out);
}

namespace {

// Places lines of one kind by their id once the whole trace is read. The
// ids must be dense and 0-based: each below the number of lines of that
// kind, none repeated. Nothing is sized by an id or a count the trace
// declares, so `task 4000000000 ...` is a diagnostic, not a 4e9-slot
// allocation.
template <class T>
std::vector<T> place_by_id(std::vector<std::pair<std::uint64_t, T>> staged,
                           const char* kind) {
  const std::size_t n = staged.size();
  std::vector<char> seen(n, 0);
  std::vector<T> placed(n);
  for (auto& [id, value] : staged) {
    WCS_CHECK_MSG(id < n, kind << " id " << id << " out of range: the trace"
                               << " has " << n << ' ' << kind
                               << " lines and ids must be dense 0-based");
    WCS_CHECK_MSG(!seen[id], kind << ' ' << id << " declared twice");
    seen[id] = 1;
    placed[id] = std::move(value);
  }
  return placed;
}

}  // namespace

Workload load_workload(std::istream& in) {
  Workload wl;
  std::size_t declared_files = 0;
  // Lines are staged in the order they are read (the trace may list ids
  // in any order) and placed by id at the end; the job is then CSR-packed
  // in id order.
  struct ParsedTask {
    double mflop = 0;
    std::vector<FileId> files;
  };
  struct ParsedArrival {
    std::uint32_t tenant = 0;
    double time_s = 0;
  };
  std::vector<std::pair<std::uint64_t, Bytes>> staged_sizes;
  std::vector<std::pair<std::uint64_t, ParsedTask>> staged_tasks;
  std::vector<std::pair<std::uint64_t, ParsedArrival>> staged_arrivals;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "job") {
      std::string name;
      ls >> name;
      wl.job.set_name(name);
    } else if (kind == "files") {
      WCS_CHECK_MSG(ls >> declared_files, "malformed files line");
    } else if (kind == "filesize") {
      std::uint64_t idx = 0;
      Bytes size = 0;
      WCS_CHECK_MSG(ls >> idx >> size, "malformed filesize line");
      staged_sizes.emplace_back(idx, size);
    } else if (kind == "task") {
      std::uint64_t id = 0;
      ParsedTask t;
      WCS_CHECK_MSG(ls >> id >> t.mflop, "malformed task line");
      FileId::underlying_type f = 0;
      while (ls >> f) t.files.push_back(FileId(f));
      WCS_CHECK_MSG(!ls.bad(), "malformed task line");
      staged_tasks.emplace_back(id, std::move(t));
    } else if (kind == "tenant") {
      std::size_t idx = 0;
      std::uint32_t weight = 0;
      std::string name;
      ls >> idx >> weight >> name;
      WCS_CHECK_MSG(idx == wl.arrivals.tenants.size(),
                    "tenant ids must be dense 0-based (got " << idx << ")");
      wl.arrivals.tenants.push_back({name, weight});
    } else if (kind == "arrival") {
      std::uint64_t id = 0;
      ParsedArrival a;
      WCS_CHECK_MSG(ls >> id >> a.tenant >> a.time_s,
                    "malformed arrival line");
      staged_arrivals.emplace_back(id, a);
    } else {
      WCS_CHECK_MSG(false, "unknown trace directive: " << kind);
    }
  }
  const std::vector<Bytes> sizes =
      place_by_id(std::move(staged_sizes), "filesize");
  WCS_CHECK_MSG(sizes.size() >= declared_files, "file with no declared size");
  WCS_CHECK_MSG(sizes.size() == declared_files,
                "filesize index out of range: " << sizes.size()
                                                << " filesize lines for "
                                                << declared_files << " files");
  for (Bytes b : sizes) {
    WCS_CHECK_MSG(b > 0, "file with no declared size");
    wl.job.catalog.add_file(b);
  }
  const std::vector<ParsedTask> parsed =
      place_by_id(std::move(staged_tasks), "task");
  std::size_t total_refs = 0;
  for (const ParsedTask& t : parsed) total_refs += t.files.size();
  wl.job.reserve_tasks(parsed.size(), total_refs);
  for (const ParsedTask& t : parsed) wl.job.add_task(t.files, t.mflop);
  validate_job(wl.job);
  const std::vector<ParsedArrival> arrivals =
      place_by_id(std::move(staged_arrivals), "arrival");
  if (!arrivals.empty()) {
    WCS_CHECK_MSG(arrivals.size() == parsed.size(),
                  "arrival directives must cover every task");
    wl.arrivals.arrival_s.reserve(arrivals.size());
    wl.arrivals.tenant_of.reserve(arrivals.size());
    for (const ParsedArrival& a : arrivals) {
      wl.arrivals.arrival_s.push_back(a.time_s);
      wl.arrivals.tenant_of.push_back(a.tenant);
    }
  }
  validate_arrivals(wl.arrivals, wl.job);
  return wl;
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path);
  WCS_CHECK_MSG(in.good(), "cannot open " << path);
  return load_workload(in);
}

Job load_job(std::istream& in) {
  Workload wl = load_workload(in);
  WCS_CHECK_MSG(!wl.open(),
                "trace carries open-system metadata; use load_workload");
  return std::move(wl.job);
}

Job load_job(const std::string& path) {
  std::ifstream in(path);
  WCS_CHECK_MSG(in.good(), "cannot open " << path);
  return load_job(in);
}

}  // namespace wcs::workload
