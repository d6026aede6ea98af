#include "sched/worker_centric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "audit/checkers.h"

namespace wcs::sched {

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::kOverlap: return "overlap";
    case Metric::kRest: return "rest";
    case Metric::kCombined: return "combined";
  }
  return "?";
}

WorkerCentricScheduler::WorkerCentricScheduler(
    const WorkerCentricParams& params)
    : params_(params), rng_(params.seed) {
  WCS_CHECK_MSG(params.choose_n >= 1, "ChooseTask(n) needs n >= 1");
}

std::string WorkerCentricScheduler::name() const {
  std::string n = to_string(params_.metric);
  if (params_.metric == Metric::kCombined &&
      params_.combined_formula == CombinedFormula::kVerbatim)
    n += "~verbatim";
  if (params_.choose_n >= 2) {
    // Built as two appends: GCC 12's -Wrestrict false-positives on
    // `const char* + std::string&&` under -O2 (PR105651).
    n += '.';
    n += std::to_string(params_.choose_n);
  }
  if (params_.replicate_when_idle) n += "+repl";
  return n;
}

void WorkerCentricScheduler::on_job_submitted() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  build_index();
}

void WorkerCentricScheduler::build_index() {
  const workload::Job& job = engine().job();
  const std::size_t num_tasks = job.num_tasks();
  const std::size_t num_files = job.catalog.num_files();

  // CSR build: count row widths, finalize, fill in task order — each
  // row ends up in the same order the old per-file push_back produced.
  tasks_of_file_.reset(num_files);
  task_size_.assign(num_tasks, 0);
  std::uint32_t max_task_size = 0;
  for (const workload::Task& t : job.tasks()) {
    for (FileId f : t.files) tasks_of_file_.count(f.value());
    task_size_[t.id.value()] = static_cast<std::uint32_t>(t.files.size());
    max_task_size = std::max(max_task_size, task_size_[t.id.value()]);
  }
  tasks_of_file_.finalize();

  // Open-system runs: only tasks already arrived at t=0 start pending.
  // The CSR rows above were COUNTED over all tasks, so a later arrival
  // re-enters its rows through re_add_pending without overflowing them.
  // Closed runs (arrivals == nullptr) take the every-task path verbatim.
  const workload::ArrivalSchedule* arrivals = engine().arrivals();
  auto initially_pending = [arrivals](TaskId t) {
    return arrivals == nullptr || arrivals->arrival(t) <= 0;
  };
  for (const workload::Task& t : job.tasks())
    if (initially_pending(t.id))
      for (FileId f : t.files) tasks_of_file_.push(f.value(), t.id);

  pending_.assign(num_tasks, 0);
  pending_list_.clear();
  pending_list_.reserve(num_tasks);
  pending_pos_.resize(num_tasks);
  placements_.assign(num_tasks, {});
  completed_.assign(num_tasks, 0);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    TaskId id(static_cast<TaskId::underlying_type>(i));
    if (!initially_pending(id)) continue;
    pending_[i] = 1;
    pending_pos_[i] = static_cast<std::uint32_t>(pending_list_.size());
    pending_list_.push_back(id);
  }

  // Seed the per-site overlap/ref-sum counters from whatever the caches
  // already hold (usually nothing; tests may pre-warm), then subscribe to
  // incremental updates.
  sites_.assign(engine().num_sites(), SiteIndex{});
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    SiteIndex& idx = sites_[s];
    idx.overlap.assign(num_tasks, 0);
    idx.ref_sum.assign(num_tasks, 0);
    const storage::FileCache& cache = engine().site_cache(site);
    for (FileId f : cache.contents()) {
      auto refs = static_cast<std::uint64_t>(cache.ref_count(f));
      for (TaskId t : tasks_of_file_.row(f.value())) {
        ++idx.overlap[t.value()];
        idx.ref_sum[t.value()] += refs;
      }
    }
    // Seed the incremental aggregates over the initially-pending bag
    // (every task, in a closed run).
    idx.total_ref = 0;
    idx.missing_hist.assign(max_task_size + 1, 0);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      if (!pending_[t]) continue;
      idx.total_ref += idx.ref_sum[t];
      ++idx.missing_hist[task_size_[t] - idx.overlap[t]];
    }
    engine().set_cache_listener(
        site, [this, site](storage::CacheEvent e, FileId f) {
          on_cache_event(site, e, f);
        });
  }
}

void WorkerCentricScheduler::on_cache_event(SiteId site,
                                            storage::CacheEvent event,
                                            FileId file) {
  SiteIndex& idx = sites_[site.value()];
  // The listener fires after the cache mutated, so ref_count(file) is the
  // post-event value: on kAdded the pre-existing count, on kEvicted the
  // count accumulated while resident (insert/evict do not change counts).
  // The inverted index only holds PENDING tasks (trimmed in
  // remove_pending, restored in re_add_pending), so every task touched
  // here also updates the site's incremental totals.
  switch (event) {
    case storage::CacheEvent::kAdded: {
      auto refs = static_cast<std::uint64_t>(
          engine().site_cache(site).ref_count(file));
      for (TaskId t : tasks_of_file_.row(file.value())) {
        const std::uint32_t missing = missing_of(idx, t);
        WCS_DCHECK(missing > 0);  // the file was not resident before
        --idx.missing_hist[missing];
        ++idx.missing_hist[missing - 1];
        ++idx.overlap[t.value()];
        idx.ref_sum[t.value()] += refs;
        idx.total_ref += refs;
      }
      break;
    }
    case storage::CacheEvent::kEvicted: {
      auto refs = static_cast<std::uint64_t>(
          engine().site_cache(site).ref_count(file));
      for (TaskId t : tasks_of_file_.row(file.value())) {
        WCS_DCHECK(idx.overlap[t.value()] > 0);
        const std::uint32_t missing = missing_of(idx, t);
        --idx.missing_hist[missing];
        ++idx.missing_hist[missing + 1];
        --idx.overlap[t.value()];
        idx.ref_sum[t.value()] -= refs;
        idx.total_ref -= refs;
      }
      break;
    }
    case storage::CacheEvent::kAccessed:
      // r_i was incremented by exactly one while the file is resident.
      for (TaskId t : tasks_of_file_.row(file.value())) {
        idx.ref_sum[t.value()] += 1;
        idx.total_ref += 1;
      }
      break;
  }
}

namespace {

// rest_t = 1/missing, kFullOverlapRestWeight when nothing is missing.
double rest_weight(std::uint32_t missing) {
  return missing == 0 ? kFullOverlapRestWeight
                      : 1.0 / static_cast<double>(missing);
}

// The two terms of the combined metric. choose_task tabulates the rest
// term per `missing` through the same function, so the table and
// weight_of agree bit for bit.
double ref_term(std::uint64_t ref_sum, double total_ref) {
  return total_ref > 0 ? static_cast<double>(ref_sum) / total_ref : 0.0;
}

double rest_term(double rest, double total_rest, CombinedFormula formula) {
  if (formula == CombinedFormula::kProse)
    return total_rest > 0 ? rest / total_rest : 0.0;
  return total_rest / rest;  // verbatim paper formula
}

}  // namespace

double WorkerCentricScheduler::rest_of(const SiteIndex& idx,
                                       TaskId task) const {
  WCS_DCHECK_LE(idx.overlap[task.value()], task_size_[task.value()]);
  return rest_weight(missing_of(idx, task));
}

std::pair<double, double> WorkerCentricScheduler::scan_totals(
    const SiteIndex& idx) const {
  double total_ref = 0;
  double total_rest = 0;
  for (TaskId t : pending_list_) {
    total_ref += static_cast<double>(idx.ref_sum[t.value()]);
    total_rest += rest_of(idx, t);
  }
  return {total_ref, total_rest};
}

std::pair<double, double> WorkerCentricScheduler::totals(
    const SiteIndex& idx) const {
  // totalRest from the missing-count histogram: every pending task with m
  // files missing contributes rest_t = 1/m (kFullOverlapRestWeight at
  // m = 0). The histogram is as long as the largest task's file list —
  // a workload constant (~100 for Coadd) independent of |pending|.
  double total_rest = 0;
  if (!idx.missing_hist.empty() && idx.missing_hist[0] > 0)
    total_rest += idx.missing_hist[0] * kFullOverlapRestWeight;
  for (std::size_t m = 1; m < idx.missing_hist.size(); ++m)
    if (idx.missing_hist[m] > 0)
      total_rest += static_cast<double>(idx.missing_hist[m]) /
                    static_cast<double>(m);
#ifndef NDEBUG
  // Cross-validate against the pre-optimization O(|pending|) scan.
  const auto [scan_ref, scan_rest] = scan_totals(idx);
  WCS_DCHECK_EQ(scan_ref, static_cast<double>(idx.total_ref));
  WCS_DCHECK(std::abs(scan_rest - total_rest) <=
             1e-9 * std::max(1.0, std::abs(scan_rest)));
#endif
  return {static_cast<double>(idx.total_ref), total_rest};
}

std::pair<double, double> WorkerCentricScheduler::totals_of(
    SiteId site) const {
  return totals(sites_.at(site.value()));
}

double WorkerCentricScheduler::weight_of(const SiteIndex& idx, TaskId task,
                                         double total_ref,
                                         double total_rest) const {
  switch (params_.metric) {
    case Metric::kOverlap:
      return static_cast<double>(idx.overlap[task.value()]);
    case Metric::kRest:
      return rest_of(idx, task);
    case Metric::kCombined:
      return ref_term(idx.ref_sum[task.value()], total_ref) +
             rest_term(rest_of(idx, task), total_rest,
                       params_.combined_formula);
  }
  WCS_CHECK(false);
  return 0;
}

double WorkerCentricScheduler::weight(SiteId site, TaskId task) const {
  WCS_CHECK_MSG(is_pending(task), "weight() of non-pending task " << task);
  const SiteIndex& idx = sites_.at(site.value());
  auto [total_ref, total_rest] = totals(idx);
  return weight_of(idx, task, total_ref, total_rest);
}

double WorkerCentricScheduler::naive_weight(SiteId site, TaskId task) const {
  WCS_CHECK_MSG(is_pending(task), "naive_weight() of non-pending task");
  const workload::Job& job = engine().job();
  const storage::FileCache& cache = engine().site_cache(site);

  auto overlap_and_refs = [&](TaskId t) {
    std::size_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : job.task(t).files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    return std::pair{overlap, refs};
  };
  auto rest_naive = [&](TaskId t) {
    auto [overlap, refs] = overlap_and_refs(t);
    (void)refs;
    std::size_t missing = job.task(t).files.size() - overlap;
    return missing == 0 ? kFullOverlapRestWeight
                        : 1.0 / static_cast<double>(missing);
  };

  switch (params_.metric) {
    case Metric::kOverlap:
      return static_cast<double>(overlap_and_refs(task).first);
    case Metric::kRest:
      return rest_naive(task);
    case Metric::kCombined: {
      double total_ref = 0;
      double total_rest = 0;
      for (TaskId t : pending_list_) {
        total_ref += static_cast<double>(overlap_and_refs(t).second);
        total_rest += rest_naive(t);
      }
      double ref_term =
          total_ref > 0
              ? static_cast<double>(overlap_and_refs(task).second) / total_ref
              : 0.0;
      double rest = rest_naive(task);
      if (params_.combined_formula == CombinedFormula::kProse)
        return ref_term + (total_rest > 0 ? rest / total_rest : 0.0);
      return ref_term + total_rest / rest;
    }
  }
  WCS_CHECK(false);
  return 0;
}

std::size_t WorkerCentricScheduler::overlap_cardinality(SiteId site,
                                                        TaskId task) const {
  return sites_.at(site.value()).overlap.at(task.value());
}

namespace {

// A ChooseTask(n) candidate; `<` means "ranks ahead of": weight desc,
// then task id asc.
struct Candidate {
  double weight;
  TaskId task;

  bool operator<(const Candidate& other) const {
    if (weight != other.weight) return weight > other.weight;
    return task < other.task;
  }
};

// Up to two finalists (the paper's n) live inline, so a decision does no
// heap allocation: a heap block per request measurably fragmented the
// heap of long open-system runs.
template <typename T>
using Finalists = common::InlineVec<T, 2>;

// The `limit` smallest of a stream of distinct keys, ascending. n is tiny
// (1 or 2 in the paper), so an insertion step into a short sorted buffer
// beats sorting the bag, and almost every key stops at the reject against
// the current n-th.
template <typename Key>
class SmallestN {
 public:
  explicit SmallestN(std::size_t limit) : limit_(limit) {}

  void offer(const Key& key) {
    if (full_ && !(key < nth_)) return;
    if (full_) keys_.pop_back();
    keys_.push_back(key);
    for (std::size_t i = keys_.size() - 1; i > 0 && keys_[i] < keys_[i - 1];
         --i)
      std::swap(keys_[i], keys_[i - 1]);
    full_ = keys_.size() == limit_;
    nth_ = keys_.back();
  }

  [[nodiscard]] const Finalists<Key>& keys() const { return keys_; }

 private:
  std::size_t limit_;
  bool full_ = false;
  Key nth_{};  // keys_.back(), kept apart so a reject reads no buffer
  Finalists<Key> keys_;
};

// Samples among the best n proportionally to weight (uniform when all
// weights are zero — see Rng::weighted_index).
TaskId pick_from(const Finalists<Candidate>& best, Rng& rng) {
  if (best.size() == 1) return best[0].task;
  Finalists<double> weights;
  for (const Candidate& c : best) weights.push_back(c.weight);
  return best[rng.weighted_index({weights.data(), weights.size()})].task;
}

}  // namespace

TaskId WorkerCentricScheduler::choose_task(SiteId site) {
  WCS_CHECK(!pending_list_.empty());
  const SiteIndex& idx = sites_[site.value()];
  const std::size_t n = std::min<std::size_t>(
      static_cast<std::size_t>(params_.choose_n), pending_list_.size());

  if (params_.metric == Metric::kCombined) {
    // The rest term depends only on `missing`: tabulate it once per
    // decision, leaving one division (the ref term) and one load per task.
    // Inline room for 128 counts covers Coadd (at most 101 files a task).
    const auto [total_ref, total_rest] = totals(idx);
    common::InlineVec<double, 128> rest_terms;
    for (std::size_t m = 0; m < idx.missing_hist.size(); ++m)
      rest_terms.push_back(rest_term(
          rest_weight(static_cast<std::uint32_t>(m)), total_rest,
          params_.combined_formula));
    const double* terms = rest_terms.data();
    SmallestN<Candidate> best(n);
    for (TaskId t : pending_list_) {
      WCS_DCHECK_LE(idx.overlap[t.value()], task_size_[t.value()]);
      best.offer({ref_term(idx.ref_sum[t.value()], total_ref) +
                      terms[missing_of(idx, t)],
                  t});
    }
    return pick_from(best.keys(), rng_);
  }

  // rest and overlap weights are strictly monotone in an integer count:
  // rest decreases in `missing` (1/m, and kFullOverlapRestWeight > 1 at
  // m = 0), overlap increases in `overlap`. Ranking by the packed key
  // (count << 32 | id), with count = missing or 0xFFFFFFFF - overlap, is
  // therefore exactly (weight desc, id asc), with no floating point in
  // the scan. Only the n winners are turned back into weights.
  SmallestN<std::uint64_t> best(n);
  auto scan = [&](auto count_of) {
    for (TaskId t : pending_list_) {
      const std::uint32_t overlap = idx.overlap[t.value()];
      // An overlap above |t| would wrap `missing` silently in Release.
      WCS_DCHECK_LE(overlap, task_size_[t.value()]);
      best.offer((std::uint64_t{count_of(t, overlap)} << 32) | t.value());
    }
  };
  if (params_.metric == Metric::kRest)
    scan([&](TaskId t, std::uint32_t overlap) {
      return task_size_[t.value()] - overlap;
    });
  else
    scan([](TaskId, std::uint32_t overlap) { return 0xFFFFFFFFu - overlap; });

  Finalists<Candidate> finalists;
  for (std::uint64_t key : best.keys()) {
    const TaskId t(static_cast<TaskId::underlying_type>(key & 0xFFFFFFFFu));
    finalists.push_back({weight_of(idx, t, 0, 0), t});
  }
  return pick_from(finalists, rng_);
}

void WorkerCentricScheduler::remove_pending(TaskId task) {
  WCS_CHECK(is_pending(task));
  pending_[task.value()] = 0;
  std::uint32_t pos = pending_pos_[task.value()];
  TaskId last = pending_list_.back();
  pending_list_[pos] = last;
  pending_pos_[last.value()] = pos;
  pending_list_.pop_back();
  // The task leaves every site's pending aggregates.
  for (SiteIndex& idx : sites_) {
    idx.total_ref -= idx.ref_sum[task.value()];
    WCS_DCHECK(idx.missing_hist[missing_of(idx, task)] > 0);
    --idx.missing_hist[missing_of(idx, task)];
  }
  // Trim the inverted index so cache events stop touching this task.
  for (FileId f : engine().job().task(task).files) {
    const bool removed = tasks_of_file_.erase_swap(f.value(), task);
    WCS_DCHECK(removed);
    (void)removed;
  }
}

void WorkerCentricScheduler::forget_starving(WorkerId worker) {
  std::erase(starving_, worker);
}

void WorkerCentricScheduler::on_worker_idle(WorkerId worker) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  forget_starving(worker);
  if (pending_list_.empty()) {
    // Bag is empty; optionally shave the tail by replicating. A worker
    // left without work is remembered: a crash elsewhere may refill the
    // bag, and feed_starving() then serves it.
    if (params_.replicate_when_idle && replicate_for(worker)) return;
    starving_.push_back(worker);
    return;
  }
  TaskId task = choose_task(engine().site_of(worker));
  remove_pending(task);
  placements_[task.value()].push_back(worker);
  engine().assign_task(task, worker);
}

bool WorkerCentricScheduler::replicate_for(WorkerId worker) {
  const workload::Job& job = engine().job();
  const storage::FileCache& cache =
      engine().site_cache(engine().site_of(worker));

  TaskId best = TaskId::invalid();
  std::size_t best_missing = SIZE_MAX;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (completed_[i]) continue;
    const auto& instances = placements_[i];
    if (instances.empty()) continue;  // never started (cannot happen late)
    if (instances.size() >= static_cast<std::size_t>(params_.max_replicas))
      continue;
    TaskId t(static_cast<TaskId::underlying_type>(i));
    if (instances.contains(worker)) continue;
    std::size_t missing = 0;
    for (FileId f : job.task(t).files)
      if (!cache.contains(f)) ++missing;
    // Fewest missing files (the rest metric's criterion applied to
    // replicas); ties to the highest id (assigned latest, most likely to
    // still be far from finishing).
    if (missing < best_missing ||
        (missing == best_missing && best.valid() && t > best)) {
      best_missing = missing;
      best = t;
    }
  }
  if (!best.valid()) return false;
  placements_[best.value()].push_back(worker);
  engine().assign_task(best, worker);
  return true;
}

void WorkerCentricScheduler::on_task_completed(TaskId task, WorkerId worker) {
  completed_[task.value()] = 1;
  auto& instances = placements_[task.value()];
  for (WorkerId w : instances) {
    if (w == worker) continue;
    engine().cancel_task(task, w);
  }
  instances.clear();
}

void WorkerCentricScheduler::re_add_pending(TaskId task) {
  WCS_CHECK(!is_pending(task));
  WCS_CHECK(!completed_[task.value()]);
  const workload::Job& job = engine().job();

  // Rebuild the per-site counters against the LIVE cache state (they went
  // stale the moment the task left the inverted index).
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    const storage::FileCache& cache = engine().site_cache(site);
    std::uint32_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : job.task(task).files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    SiteIndex& idx = sites_[s];
    idx.overlap[task.value()] = overlap;
    idx.ref_sum[task.value()] = refs;
    // The task re-enters the site's pending aggregates.
    idx.total_ref += refs;
    ++idx.missing_hist[missing_of(idx, task)];
  }
  for (FileId f : job.task(task).files)
    tasks_of_file_.push(f.value(), task);

  pending_[task.value()] = 1;
  pending_pos_[task.value()] =
      static_cast<std::uint32_t>(pending_list_.size());
  pending_list_.push_back(task);
}

void WorkerCentricScheduler::feed_starving() {
  while (!pending_list_.empty() && !starving_.empty()) {
    WorkerId worker = starving_.front();
    starving_.pop_front();
    if (!engine().worker_alive(worker)) continue;
    TaskId task = choose_task(engine().site_of(worker));
    remove_pending(task);
    placements_[task.value()].push_back(worker);
    engine().assign_task(task, worker);
  }
}

void WorkerCentricScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  const workload::Job& job = engine().job();
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const SiteId site(static_cast<SiteId::underlying_type>(s));
    const SiteIndex& idx = sites_[s];

    // Incremental aggregates vs the full scan over pending tasks. Compute
    // the histogram-derived totals inline (totals() would re-run its own
    // debug cross-check).
    double hist_rest = 0;
    if (!idx.missing_hist.empty() && idx.missing_hist[0] > 0)
      hist_rest += idx.missing_hist[0] * kFullOverlapRestWeight;
    for (std::size_t m = 1; m < idx.missing_hist.size(); ++m)
      if (idx.missing_hist[m] > 0)
        hist_rest += static_cast<double>(idx.missing_hist[m]) /
                     static_cast<double>(m);
    const auto [scan_ref, scan_rest] = scan_totals(idx);

    audit::IndexTotalsSnapshot totals_snap;
    totals_snap.label = "site " + std::to_string(s);
    totals_snap.incremental_ref = static_cast<double>(idx.total_ref);
    totals_snap.incremental_rest = hist_rest;
    totals_snap.scanned_ref = scan_ref;
    totals_snap.scanned_rest = scan_rest;
    audit::check_index_coherence(totals_snap, out);

    // Per-task overlap/ref-sum counters vs a full recompute from the live
    // cache. O(files resident * tasks per file), the cost build_index()
    // pays once — affordable at audit-sweep frequency.
    const storage::FileCache& cache = engine().site_cache(site);
    std::vector<std::uint32_t> overlap(task_size_.size(), 0);
    std::vector<std::uint64_t> ref_sum(task_size_.size(), 0);
    for (FileId f : cache.contents()) {
      const auto refs = static_cast<std::uint64_t>(cache.ref_count(f));
      for (TaskId t : tasks_of_file_.row(f.value())) {
        ++overlap[t.value()];
        ref_sum[t.value()] += refs;
      }
    }
    for (TaskId t : pending_list_) {
      if (idx.overlap[t.value()] == overlap[t.value()] &&
          idx.ref_sum[t.value()] == ref_sum[t.value()])
        continue;
      std::ostringstream os;
      os << "site " << s << " task " << t << " index drifted: incremental"
         << " overlap " << idx.overlap[t.value()] << " / refSum "
         << idx.ref_sum[t.value()] << " vs recomputed "
         << overlap[t.value()] << " / " << ref_sum[t.value()]
         << " (task has " << job.task(t).files.size() << " files)";
      out.push_back(audit::Violation{"index-coherence", os.str()});
    }
  }
}

void WorkerCentricScheduler::on_worker_failed(
    WorkerId worker, const std::vector<TaskId>& lost) {
  forget_starving(worker);
  for (TaskId t : lost) {
    auto& instances = placements_[t.value()];
    instances.erase_value(worker);
    if (instances.empty() && !completed_[t.value()]) re_add_pending(t);
  }
  feed_starving();
}

void WorkerCentricScheduler::on_tasks_arrived(
    const std::vector<TaskId>& tasks) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  for (TaskId t : tasks) re_add_pending(t);
  feed_starving();
}

}  // namespace wcs::sched
