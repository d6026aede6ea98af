#include "sched/tenant_wrr.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace wcs::sched {

// Delegates the whole engine surface to the wrapper's real engine,
// except the per-tenant arrival view and the cache-listener slot (see
// the header comment).
class TenantWrrScheduler::TenantEngineProxy final : public GridEngine {
 public:
  TenantEngineProxy(TenantWrrScheduler& owner, std::uint32_t tenant)
      : owner_(owner), tenant_(tenant) {}

  [[nodiscard]] const workload::Job& job() const override {
    return owner_.engine().job();
  }
  [[nodiscard]] std::size_t num_sites() const override {
    return owner_.engine().num_sites();
  }
  [[nodiscard]] std::size_t num_workers() const override {
    return owner_.engine().num_workers();
  }
  [[nodiscard]] SiteId site_of(WorkerId worker) const override {
    return owner_.engine().site_of(worker);
  }
  [[nodiscard]] const storage::FileCache& site_cache(
      SiteId site) const override {
    return owner_.engine().site_cache(site);
  }
  void set_cache_listener(SiteId site,
                          storage::CacheListener listener) override {
    owner_.subscribe(tenant_, site, std::move(listener));
  }
  void assign_task(TaskId task, WorkerId worker) override {
    owner_.engine().assign_task(task, worker);
  }
  bool cancel_task(TaskId task, WorkerId worker) override {
    return owner_.engine().cancel_task(task, worker);
  }
  [[nodiscard]] bool worker_alive(WorkerId worker) const override {
    return owner_.engine().worker_alive(worker);
  }
  [[nodiscard]] std::size_t worker_backlog(WorkerId worker) const override {
    return owner_.engine().worker_backlog(worker);
  }
  [[nodiscard]] double estimated_uplink_bandwidth(SiteId site) const override {
    return owner_.engine().estimated_uplink_bandwidth(site);
  }
  [[nodiscard]] double estimated_site_mflops(SiteId site) const override {
    return owner_.engine().estimated_site_mflops(site);
  }
  [[nodiscard]] std::size_t data_server_backlog(SiteId site) const override {
    return owner_.engine().data_server_backlog(site);
  }
  [[nodiscard]] const workload::ArrivalSchedule* arrivals() const override {
    return &owner_.views_[tenant_];
  }

 private:
  TenantWrrScheduler& owner_;
  std::uint32_t tenant_;
};

TenantWrrScheduler::~TenantWrrScheduler() = default;

TenantWrrScheduler::TenantWrrScheduler(
    const workload::ArrivalSchedule& schedule, const InnerFactory& make_inner)
    : schedule_(schedule) {
  const std::size_t k = schedule_.num_tenants();
  WCS_CHECK_MSG(k > 1, "WRR layer needs at least two tenants");
  WCS_CHECK_MSG(!schedule_.tenant_of.empty(),
                "multi-tenant schedule has no per-task tenant ids");
  // Materialize all-at-t0 so the per-tenant views below can mask other
  // tenants' tasks even when every arrival is 0.
  if (schedule_.arrival_s.empty())
    schedule_.arrival_s.assign(schedule_.tenant_of.size(), 0.0);
  // Per-tenant views: other tenants' tasks never arrive for this inner.
  views_.assign(k, schedule_);
  for (std::size_t t = 0; t < k; ++t)
    for (std::size_t i = 0; i < views_[t].arrival_s.size(); ++i)
      if (schedule_.tenant_of[i] != t)
        views_[t].arrival_s[i] = workload::kNeverArrives;
  inners_.reserve(k);
  for (std::uint32_t t = 0; t < k; ++t) {
    std::unique_ptr<Scheduler> inner = make_inner(t);
    WCS_CHECK_MSG(inner != nullptr, "inner factory returned null");
    WCS_CHECK_MSG(inner->supports_arrivals(),
                  "inner scheduler " << inner->name()
                                     << " cannot take the per-tenant view "
                                        "(needs arrival support)");
    inners_.push_back(std::move(inner));
  }
  credit_.assign(k, 0);
  served_.assign(k, 0);
}

void TenantWrrScheduler::attach(GridEngine& engine) {
  Scheduler::attach(engine);
  fanout_.assign(engine.num_sites(), {});
  proxies_.clear();
  for (std::uint32_t t = 0; t < inners_.size(); ++t) {
    proxies_.push_back(std::make_unique<TenantEngineProxy>(*this, t));
    // set_profiler() is not virtual: the engine sets this wrapper's
    // profiler before the run, and the inners make the decisions.
    inners_[t]->set_profiler(profiler_);
    inners_[t]->attach(*proxies_.back());
  }
}

void TenantWrrScheduler::subscribe(std::uint32_t tenant, SiteId site,
                                   storage::CacheListener listener) {
  std::vector<storage::CacheListener>& slot = fanout_[site.value()];
  if (slot.empty()) {
    // First subscriber claims the engine's one listener slot; every
    // event fans out to all inner listeners in tenant order.
    engine().set_cache_listener(
        site, [this, site](storage::CacheEvent e, FileId f) {
          for (const storage::CacheListener& cb : fanout_[site.value()])
            cb(e, f);
        });
  }
  WCS_CHECK_MSG(slot.size() == tenant,
                "tenant " << tenant << " subscribed out of order");
  slot.push_back(std::move(listener));
}

void TenantWrrScheduler::on_job_submitted() {
  for (const std::unique_ptr<Scheduler>& inner : inners_)
    inner->on_job_submitted();
}

int TenantWrrScheduler::pick_tenant() {
  std::int64_t total = 0;
  int pick = -1;
  for (std::size_t t = 0; t < inners_.size(); ++t) {
    if (inners_[t]->pending_count() == 0) continue;
    const std::int64_t w = schedule_.tenants.empty()
                               ? 1
                               : schedule_.tenants[t].weight;
    credit_[t] += w;
    total += w;
    if (pick < 0 || credit_[t] > credit_[static_cast<std::size_t>(pick)])
      pick = static_cast<int>(t);
  }
  if (pick >= 0) credit_[static_cast<std::size_t>(pick)] -= total;
  return pick;
}

void TenantWrrScheduler::on_worker_idle(WorkerId worker) {
  starving_.erase(std::remove(starving_.begin(), starving_.end(), worker),
                  starving_.end());
  const int pick = pick_tenant();
  if (pick < 0) {
    starving_.push_back(worker);
    return;
  }
  ++served_[static_cast<std::size_t>(pick)];
  // The inner has pending work, so it always assigns (never parks the
  // worker on its own starving list).
  inners_[static_cast<std::size_t>(pick)]->on_worker_idle(worker);
}

void TenantWrrScheduler::feed_starving() {
  while (!starving_.empty()) {
    const int pick = pick_tenant();
    if (pick < 0) return;
    WorkerId worker = starving_.front();
    starving_.pop_front();
    if (!engine().worker_alive(worker)) continue;
    ++served_[static_cast<std::size_t>(pick)];
    inners_[static_cast<std::size_t>(pick)]->on_worker_idle(worker);
  }
}

void TenantWrrScheduler::on_task_completed(TaskId task, WorkerId worker) {
  inners_[schedule_.tenant(task)]->on_task_completed(task, worker);
}

void TenantWrrScheduler::on_worker_failed(WorkerId worker,
                                          const std::vector<TaskId>& lost) {
  starving_.erase(std::remove(starving_.begin(), starving_.end(), worker),
                  starving_.end());
  // Route each tenant's lost instances to its inner (order preserved);
  // inners re-home them, which may refill empty bags.
  std::vector<std::vector<TaskId>> per_tenant(inners_.size());
  for (TaskId t : lost) per_tenant[schedule_.tenant(t)].push_back(t);
  for (std::size_t t = 0; t < inners_.size(); ++t)
    inners_[t]->on_worker_failed(worker, per_tenant[t]);
  feed_starving();
}

void TenantWrrScheduler::on_tasks_arrived(const std::vector<TaskId>& tasks) {
  std::vector<std::vector<TaskId>> per_tenant(inners_.size());
  for (TaskId t : tasks) per_tenant[schedule_.tenant(t)].push_back(t);
  for (std::size_t t = 0; t < inners_.size(); ++t)
    if (!per_tenant[t].empty()) inners_[t]->on_tasks_arrived(per_tenant[t]);
  feed_starving();
}

std::size_t TenantWrrScheduler::pending_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Scheduler>& inner : inners_)
    total += inner->pending_count();
  return total;
}

std::string TenantWrrScheduler::name() const {
  return inners_.front()->name() + "+wrr";
}

void TenantWrrScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  for (const std::unique_ptr<Scheduler>& inner : inners_)
    inner->audit_collect(out);
}

}  // namespace wcs::sched
