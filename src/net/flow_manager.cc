#include "net/flow_manager.h"

#include <algorithm>
#include <functional>
#include <limits>

namespace wcs::net {

namespace {
// Below this many bytes a flow is considered done; guards against FP dust
// keeping a flow alive forever.
constexpr double kEpsilonBytes = 1e-6;

// Progressive filling (max-min fairness) over `pool` by linear scan: the
// oracle behind FlowManager::audit_rates_snapshot(). Repeatedly find the
// most constrained link among `links` (smallest per-flow fair share,
// lowest link id among ties — `links` is scanned in ascending id order),
// freeze its flows at that share, and subtract their demand from the
// other links they cross. caps/crossing are dense per-link tables the
// caller seeded for every link in `links`; rates[i] receives pool[i]'s
// share. `unfixed` is worklist scratch.
//
// The bottleneck order within one connected component of the flow<->link
// sharing graph is independent of any other component (freezing a flow
// only touches links of its own component), so one run over the whole
// pool assigns every flow bitwise the share FlowManager::fill_component
// assigns it over its component alone — and, since a link that ends with
// slack sets no rate, over its component cut at such links
// (flow_manager.h).
template <typename FlowPtr>
void progressive_fill(const std::vector<FlowPtr>& pool,
                      const std::vector<LinkId>& links,
                      std::vector<double>& caps, std::vector<int>& crossing,
                      std::vector<std::size_t>& unfixed,
                      std::vector<double>& rates) {
  rates.assign(pool.size(), 0);
  unfixed.resize(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) unfixed[i] = i;

  while (!unfixed.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    LinkId::underlying_type best_link = 0;
    bool found = false;
    for (LinkId lid : links) {
      int n = crossing[lid.value()];
      if (n <= 0) continue;
      double share = caps[lid.value()] / n;
      if (share < best_share) {
        best_share = share;
        best_link = lid.value();
        found = true;
      }
    }
    WCS_CHECK(found);

    // Freeze every unfixed flow crossing the bottleneck at best_share;
    // compact survivors in place (canonical id order is preserved).
    std::size_t kept = 0;
    for (std::size_t idx : unfixed) {
      const auto& route = pool[idx]->route;
      bool hits = std::find_if(route.begin(), route.end(), [&](LinkId l) {
                    return l.value() == best_link;
                  }) != route.end();
      if (!hits) {
        unfixed[kept++] = idx;
        continue;
      }
      rates[idx] = best_share;
      for (LinkId lid : route) {
        caps[lid.value()] -= best_share;
        if (caps[lid.value()] < 0) caps[lid.value()] = 0;
        --crossing[lid.value()];
      }
    }
    unfixed.resize(kept);
  }
}
}  // namespace

void FlowManager::set_observability(obs::Observability* o) {
  tracer_ = o ? o->tracer() : nullptr;
  profiler_ = o ? o->profiler() : nullptr;
  if (o && o->metrics()) {
    realloc_counter_ = &o->metrics()->counter("net.reallocations");
    reflood_counter_ = &o->metrics()->counter("net.component_refloods");
    // Flow wall time in simulated seconds: WAN transfers of multi-GB
    // files land in the minutes-to-hours range.
    flow_seconds_ = &o->metrics()->histogram("net.flow_seconds", 0, 7200, 72);
  } else {
    realloc_counter_ = nullptr;
    reflood_counter_ = nullptr;
    flow_seconds_ = nullptr;
  }
}

FlowId FlowManager::start_flow(NodeId src, NodeId dst, Bytes bytes,
                               FlowCallback on_complete) {
  FlowId id(next_flow_++);
  Flow f;
  f.id = id;
  f.route = topo_.route(src, dst);  // copy: add_node/add_link clear routes
  f.total = static_cast<double>(bytes);
  f.remaining = f.total;
  bytes_started_ += f.total;
  f.on_complete = std::move(on_complete);
  f.started = sim_.now();
  f.last_update = sim_.now();
  f.dst = dst;
  SimTime latency = 0;  // path_latency(src, dst), summed in route order
  for (LinkId lid : f.route) latency += topo_.link(lid).latency_s;
  auto [it, ok] = flows_.emplace(id, std::move(f));
  WCS_CHECK(ok);
  it->second.pending_event =
      sim_.schedule_in(latency, [this, id] { activate(id); });
  return id;
}

void FlowManager::activate(FlowId id) {
  auto it = flows_.find(id);
  WCS_CHECK(it != flows_.end());
  Flow& f = it->second;
  f.active = true;
  f.pending_event = EventId::invalid();
  f.last_update = sim_.now();
  join_links(f);  // complete() below leaves the lists again
  if (f.remaining <= kEpsilonBytes || f.route.empty()) {
    // Zero-byte transfer, or an intra-node transfer: instantaneous once
    // latency has been paid.
    complete(id);
    return;
  }
  reallocate(f.route, &f);
}

void FlowManager::complete(FlowId id) {
  auto it = flows_.find(id);
  WCS_CHECK(it != flows_.end());
  Flow& f = it->second;
  // Credit the final stretch since the last settle to the link counters
  // before the flow disappears.
  if (f.active && f.rate > 0) {
    double moved = unsettled_bytes(f, sim_.now());
    for (LinkId lid : f.route) link_bytes_[lid.value()] += moved;
  }
  FlowCallback cb = std::move(f.on_complete);
  bytes_delivered_ += f.total;
  const SimTime elapsed = sim_.now() - f.started;
  if (flow_seconds_) flow_seconds_->add(elapsed);
  if (tracer_) {
    obs::TraceSpan span;
    span.start = f.started;
    span.duration_s = elapsed;
    span.kind = obs::SpanKind::kTransfer;
    span.track = f.dst.valid() ? f.dst.value() : 0;
    span.bytes = f.total;
    tracer_->record(span);
  }
  // A draining flow already left the sharing pool when its rate was
  // zeroed; its links were rebalanced then, so its disappearance now
  // cannot change any rate.
  const bool shared = f.active && !f.draining;
  if (shared) leave_links(f);
  Route released = std::move(f.route);
  flows_.erase(it);
  ++completed_;
  if (shared) {
    reallocate(released, nullptr);
  }
  if (cb) cb(id);
}

bool FlowManager::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  Flow& f = it->second;
  if (f.pending_event.valid()) sim_.cancel(f.pending_event);
  // Settle the bytes this flow moved so link statistics stay accurate.
  if (f.active && f.rate > 0) {
    double moved = unsettled_bytes(f, sim_.now());
    for (LinkId lid : f.route) link_bytes_[lid.value()] += moved;
  }
  const bool shared = f.active && !f.draining;
  if (shared) leave_links(f);
  Route released = std::move(f.route);
  flows_.erase(it);
  ++cancelled_;
  if (shared) {
    reallocate(released, nullptr);
  }
  return true;
}

double FlowManager::unsettled_bytes(const Flow& f, SimTime now) const {
  double moved = f.rate * (now - f.last_update);
  return std::min(moved, f.remaining);
}

audit::FlowAuditSnapshot FlowManager::audit_snapshot() const {
  audit::FlowAuditSnapshot snap;
  snap.bytes_started = bytes_started_;
  snap.bytes_delivered = bytes_delivered_;
  snap.flows_completed = completed_;
  snap.flows_cancelled = cancelled_;
  const SimTime now = sim_.now();

  snap.links.reserve(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    const Link& link = topo_.link(LinkId(static_cast<LinkId::underlying_type>(l)));
    audit::LinkUsage usage;
    usage.name = link.name.empty() ? ("link#" + std::to_string(l)) : link.name;
    usage.capacity_bps = link.bandwidth_bps;
    usage.cuttable = !link_bound_[l];
    snap.links.push_back(std::move(usage));
  }

  // Canonical order: flows sorted by id. The snapshot is audit-only,
  // but defect messages and per-link FP sums should not depend on a
  // hash table's bucket layout.
  std::vector<const Flow*> ordered;
  ordered.reserve(flows_.size());
  // detlint: unordered-loop -- collect-then-sort: 'ordered' is sorted by flow id below
  for (const auto& [id, f] : flows_) ordered.push_back(&f);
  std::sort(ordered.begin(), ordered.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });

  snap.flows.reserve(flows_.size());
  for (const Flow* fp : ordered) {
    const Flow& f = *fp;
    audit::FlowProgress p;
    p.id = f.id.value();
    p.total_bytes = f.total;
    // Flows settle lazily (only on rate change); project the stored
    // progress forward to now so the ledger laws see the fluid state.
    p.remaining_bytes = f.active && f.rate > 0
                            ? f.remaining - unsettled_bytes(f, now)
                            : f.remaining;
    p.rate_bps = f.active ? f.rate : 0;
    p.active = f.active;
    snap.flows.push_back(p);
    if (!f.active) continue;
    for (LinkId lid : f.route) {
      snap.links[lid.value()].allocated_bps += f.rate;
      ++snap.links[lid.value()].flows;
    }
  }
  return snap;
}

audit::FlowRatesSnapshot FlowManager::audit_rates_snapshot() const {
  audit::FlowRatesSnapshot snap;
  snap.label = "flow manager";

  // Local (non-hoisted) buffers: the audit path must leave the manager
  // untouched so audited runs stay byte-identical.
  std::vector<const Flow*> pool;
  pool.reserve(flows_.size());
  // detlint: unordered-loop -- collect-then-sort: 'pool' is sorted by flow id below
  for (const auto& [id, f] : flows_)
    if (f.active && !f.draining) pool.push_back(&f);
  std::sort(pool.begin(), pool.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });

  std::vector<LinkId> links;
  std::vector<double> caps(topo_.num_links(), 0);
  std::vector<int> crossing(topo_.num_links(), 0);
  for (const Flow* f : pool) {
    for (LinkId lid : f->route) {
      if (crossing[lid.value()] == 0) {
        links.push_back(lid);
        caps[lid.value()] = topo_.link(lid).bandwidth_bps;
      }
      ++crossing[lid.value()];
    }
  }
  std::sort(links.begin(), links.end());

  std::vector<std::size_t> unfixed;
  std::vector<double> rates;
  progressive_fill(pool, links, caps, crossing, unfixed, rates);

  snap.flows.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    audit::FlowRateEntry e;
    e.id = pool[i]->id.value();
    e.stored_bps = pool[i]->rate;
    e.recomputed_bps = rates[i];
    snap.flows.push_back(e);
  }
  return snap;
}

double FlowManager::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0;
  return it->second.active ? it->second.rate : 0;
}

void FlowManager::join_links(Flow& f) {
  for (LinkId lid : f.route) {
    // Activations arrive nearly in id order: find the slot from the back.
    auto& list = link_flows_[lid.value()];
    auto pos = list.end();
    while (pos != list.begin() && f.id < (*(pos - 1))->id) --pos;
    list.insert(pos, &f);
  }
}

void FlowManager::leave_links(const Flow& f) {
  for (LinkId lid : f.route) {
    auto& list = link_flows_[lid.value()];
    auto pos = std::lower_bound(
        list.begin(), list.end(), f.id,
        [](const Flow* a, FlowId id) { return a->id < id; });
    WCS_CHECK(pos != list.end() && *pos == &f);
    list.erase(pos);
  }
}

void FlowManager::build_component(const std::vector<LinkId>& seeds,
                                  Flow* joined) {
  ++epoch_;
  component_.clear();
  fill_links_.clear();
  auto reach = [this](LinkId lid) {
    if (link_mark_[lid.value()] != epoch_) {
      link_mark_[lid.value()] = epoch_;
      fill_links_.push_back(lid);
    }
  };
  auto enter = [&](Flow* f) {
    f->mark = epoch_;
    component_.push_back(f);
    for (LinkId lid : f->route) reach(lid);
  };
  for (LinkId lid : seeds) reach(lid);
  if (joined) enter(joined);
  // Breadth-first flood: every flow on a bound link joins the component
  // and reaches the rest of its route. A cut link stops the flood.
  // fill_links_ doubles as the queue; flow marks reuse the link epoch.
  for (std::size_t next = 0; next < fill_links_.size(); ++next) {
    const auto l = fill_links_[next].value();
    if (!link_bound_[l]) continue;
    for (Flow* f : link_flows_[l])
      if (f->mark != epoch_) enter(f);
  }
  // Flows join in flood order; the apply step runs in canonical id order.
  std::sort(component_.begin(), component_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
}

bool FlowManager::fill_component() {
  for (LinkId lid : fill_links_) {
    const auto l = lid.value();
    double cap = topo_.link(lid).bandwidth_bps;
    // A cut link also carries flows outside the component, whose rates
    // this fill keeps: the component shares what they leave.
    if (!link_bound_[l])
      for (const Flow* f : link_flows_[l])
        if (f->mark != epoch_) cap -= f->rate;
    link_cap_[l] = cap;
    link_crossing_[l] = 0;
  }
  for (Flow* f : component_) {
    f->fill_share = kUnfixed;
    for (LinkId lid : f->route) ++link_crossing_[lid.value()];
  }

  // Invariant: l has a queued key no greater than link_floor_[l], and a
  // link with unfrozen flows has a queued key no greater than its share.
  using Key = std::pair<double, LinkId::underlying_type>;
  constexpr std::greater<Key> kMinFirst;  // min-heap on (share, link id)
  auto push = [&](double share, LinkId::underlying_type l) {
    link_floor_[l] = share;
    fill_heap_.emplace_back(share, l);
    std::push_heap(fill_heap_.begin(), fill_heap_.end(), kMinFirst);
  };
  fill_heap_.clear();
  for (LinkId lid : fill_links_) {
    const auto l = lid.value();
    if (link_crossing_[l] == 0) continue;
    link_floor_[l] = link_cap_[l] / link_crossing_[l];
    fill_heap_.emplace_back(link_floor_[l], l);
  }
  std::make_heap(fill_heap_.begin(), fill_heap_.end(), kMinFirst);

  std::size_t unfixed = component_.size();
  while (unfixed > 0) {
    WCS_CHECK(!fill_heap_.empty());
    std::pop_heap(fill_heap_.begin(), fill_heap_.end(), kMinFirst);
    const auto [key, l] = fill_heap_.back();
    fill_heap_.pop_back();
    const int n = link_crossing_[l];
    if (n == 0) continue;  // every flow on it is already frozen
    const double share = link_cap_[l] / n;
    if (share > key) {  // lazy key: the share rose since this push
      push(share, l);
      continue;
    }
    // share == key: no link holds a smaller (share, id) pair, so l is the
    // scan's bottleneck. Freeze its flows in id order (on a cut link, its
    // component flows: the check below then rejects the fill).
    for (Flow* f : link_flows_[l]) {
      if (f->mark != epoch_ || f->fill_share != kUnfixed) continue;
      f->fill_share = share;
      --unfixed;
      for (LinkId lid : f->route) {
        const auto r = lid.value();
        link_cap_[r] -= share;
        if (link_cap_[r] < 0) link_cap_[r] = 0;
        const int left = --link_crossing_[r];
        if (r == l || left == 0) continue;
        // Usually the share rises; re-key only if it fell below the floor.
        const double after = link_cap_[r] / left;
        if (after < link_floor_[r]) push(after, r);
      }
    }
  }

  // A popped link ends with rounding-level capacity, so this also
  // catches a cut link that was popped. Bits change only once the fill
  // stands: a retry must still flood through every link bound before.
  auto bound = [this](LinkId lid) {
    return link_cap_[lid.value()] <=
           kBoundMargin * topo_.link(lid).bandwidth_bps;
  };
  bool cut_bound = false;
  for (LinkId lid : fill_links_) {
    if (!link_bound_[lid.value()] && bound(lid)) {
      link_bound_[lid.value()] = 1;
      cut_bound = true;
    }
  }
  if (cut_bound) return false;
  for (LinkId lid : fill_links_) link_bound_[lid.value()] = bound(lid);
  return true;
}

void FlowManager::reallocate(const Route& seed_links, Flow* joined) {
  if (realloc_counter_) realloc_counter_->add();
  const SimTime now = sim_.now();

  seed_scratch_.assign(seed_links.begin(), seed_links.end());
  // Drain loop: applying new rates can discover flows whose remaining
  // hit zero (simultaneous completions). Those leave the sharing pool
  // immediately, freeing their bandwidth, which seeds another round.
  // Each round retires at least one flow, so the loop terminates.
  while (true) {
    {
      obs::ScopedPhase phase(profiler_, obs::Phase::kFlowDirtySet);
      build_component(seed_scratch_, joined);
    }

    // A re-flood is part of the rebalance it restarts: one dirty-set and
    // one rebalance phase per round, however many links bind.
    obs::ScopedPhase phase(profiler_, obs::Phase::kFlowRebalance);
    while (!fill_component()) {
      if (reflood_counter_) reflood_counter_->add();
      build_component(seed_scratch_, joined);
    }
    joined = nullptr;  // applied below; a drain round seeds departures

    // Apply in canonical id order. A flow whose share is unchanged keeps
    // its progress, its last_update, and its scheduled completion event,
    // so the settle/reschedule sequence is exactly the one a whole-pool
    // refill would produce: that refill gives every flow outside the
    // component its current share, and so leaves it untouched.
    drained_scratch_.clear();
    for (Flow* fp : component_) {
      Flow& f = *fp;
      const double new_rate = f.fill_share;
      if (new_rate == f.rate) continue;
      if (f.rate > 0) {
        double moved = unsettled_bytes(f, now);
        f.remaining -= moved;
        for (LinkId lid : f.route) link_bytes_[lid.value()] += moved;
      }
      f.last_update = now;
      f.rate = new_rate;
      if (f.pending_event.valid()) {
        sim_.cancel(f.pending_event);
        f.pending_event = EventId::invalid();
      }
      const FlowId fid = f.id;
      if (f.remaining <= kEpsilonBytes) {
        // Finished within FP dust of this instant: complete now-ish and
        // release the flow's share for the next round.
        f.rate = 0;
        f.draining = true;
        leave_links(f);
        f.pending_event = sim_.schedule_in(0, [this, fid] { complete(fid); });
        drained_scratch_.insert(drained_scratch_.end(), f.route.begin(),
                                f.route.end());
        continue;
      }
      WCS_CHECK_MSG(f.rate > 0, "active flow with zero rate");
      f.pending_event =
          sim_.schedule_in(f.remaining / f.rate, [this, fid] { complete(fid); });
    }

    if (drained_scratch_.empty()) break;
    seed_scratch_.swap(drained_scratch_);
  }
}

}  // namespace wcs::net
