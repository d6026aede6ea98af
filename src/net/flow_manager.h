// Flow-level network simulation with max-min fair bandwidth sharing.
//
// This reproduces the essential behaviour of SimGrid's fluid TCP model:
// each active transfer is a flow along a fixed route; whenever the set of
// active flows changes, link bandwidth is re-divided among flows by
// progressive filling (max-min fairness) and each flow's completion event
// is rescheduled for its new rate.
//
// Reallocation is incremental: a flow start/finish seeds a dirty set with
// the links it traverses, the affected connected component of the
// flow<->link sharing graph is flooded out from those seeds, and
// progressive filling runs over that component only. Max-min fair shares
// decompose exactly by connected component, so rates outside the
// component cannot change; inside it they are recomputed bitwise
// identically to a from-scratch fill over the whole pool (the bottleneck
// scan visits the component's links in ascending id order, the same
// (share, link-id) order a whole-pool scan resolves ties by). A flow is
// settled — progress credited, completion event rescheduled — only when
// its rate actually changed. The from-scratch fill survives as the
// oracle behind audit_rates_snapshot(): the `flow-rates` audit checker
// compares it with the live rates at every audit epoch, and
// tests/test_flow_incremental.cc after every operation.
//
// Latency is charged once per flow, up front: a flow spends
// path_latency(src, dst) in a "connecting" phase during which it consumes
// no bandwidth, then joins the bandwidth-sharing pool.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/checkers.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/topology.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace wcs::net {

using FlowCallback = std::function<void(FlowId)>;

class FlowManager {
 public:
  FlowManager(sim::Simulator& simulator, const Topology& topology)
      : sim_(simulator), topo_(topology),
        flows_(FlowMapAlloc(&flow_arena_)),
        link_bytes_(topology.num_links(), 0),
        link_cap_(topology.num_links(), 0),
        link_crossing_(topology.num_links(), 0),
        link_mark_(topology.num_links(), 0) {}

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  // Attach instruments (nullptr detaches). Read-only: tracing a transfer
  // or timing a reallocation never changes rates, order, or events.
  void set_observability(obs::Observability* o);

  // Start a transfer of `bytes` from src to dst; `on_complete` fires when
  // the last byte arrives. Zero-byte flows complete after path latency.
  FlowId start_flow(NodeId src, NodeId dst, Bytes bytes,
                    FlowCallback on_complete);

  // Abort an in-progress flow; its callback never fires. Returns false if
  // the flow already completed (or never existed). Bytes already moved
  // stay counted in the link statistics.
  bool cancel(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t completed_flows() const { return completed_; }
  [[nodiscard]] std::uint64_t cancelled_flows() const { return cancelled_; }

  // Delivery ledger: total payload bytes of flows ever started, and of
  // flows that ran to completion (a completed flow delivered its full
  // size by definition). Cancelled flows never enter `bytes_delivered`.
  [[nodiscard]] double bytes_started() const { return bytes_started_; }
  [[nodiscard]] double bytes_delivered() const { return bytes_delivered_; }

  // Read-only state snapshot for the invariant auditor: per-link
  // allocation vs capacity, per-flow byte progress, and the delivery
  // ledger (audit::check_flow_conservation). Progress is settled
  // on-the-fly to now(): flows are only byte-settled when their rate
  // changes, so the stored `remaining` lags the fluid model between rate
  // changes.
  [[nodiscard]] audit::FlowAuditSnapshot audit_snapshot() const;

  // Stored per-flow rates next to a from-scratch progressive-filling
  // recompute over the same pool (audit::check_flow_rates). The live
  // incremental rates must match the recompute bitwise — this is the
  // invariant the dirty-component reallocation rests on.
  [[nodiscard]] audit::FlowRatesSnapshot audit_rates_snapshot() const;

  // Bytes carried by each link so far (including partial transfers of
  // cancelled flows). Settled at rate changes and flow completion, like
  // `remaining`.
  [[nodiscard]] double link_bytes(LinkId id) const {
    return link_bytes_.at(id.value());
  }

  // Current max-min fair rate of a flow, bytes/second. 0 while the flow is
  // still in its latency phase. Primarily for tests.
  [[nodiscard]] double flow_rate(FlowId id) const;

  // The arena backing the flow table (memory-layout audit / bench hook).
  [[nodiscard]] const common::NodeArena& arena() const { return flow_arena_; }

 private:
  struct Flow {
    FlowId id;
    Route route;             // empty for same-node transfers
    double total = 0;        // payload size at start_flow()
    double remaining = 0;    // bytes left as of last_update (fluid model)
    double rate = 0;         // current allocation, bytes/s
    SimTime started = 0;     // when start_flow() was called
    SimTime last_update = 0; // when `remaining` was last settled
    NodeId dst;              // receiving node (trace track)
    bool active = false;     // false during the latency phase
    bool draining = false;   // remaining hit zero; completion is imminent
                             // and the flow no longer shares bandwidth
    std::uint64_t mark = 0;  // dirty-component epoch stamp (scratch)
    EventId pending_event;   // activation or completion event
    FlowCallback on_complete;
  };

  void activate(FlowId id);
  void complete(FlowId id);

  // Recompute the max-min allocation after the flow set changed.
  // `seed_links` are the links traversed by the added/removed flow; only
  // the connected component reachable from them is rebalanced, and a
  // flow is settled and its completion event rescheduled only if its
  // rate changed.
  void reallocate(const Route& seed_links);

  // Flood the sharing graph out from `seeds`: fills component_ (id-sorted
  // flows whose rate may change) and fill_links_ (ascending link ids they
  // traverse).
  void build_component(const std::vector<LinkId>& seeds);

  // Progress credited since the flow's last settle at its current rate.
  [[nodiscard]] double unsettled_bytes(const Flow& f, SimTime now) const;

  // Flow-table nodes recycle through a per-manager arena: flow start /
  // completion churn is the network side's entire allocation traffic.
  // The bucket array exceeds the small-object ceiling and goes through
  // the arena's (counted) large path. Node placement cannot change
  // unordered_map iteration order — that is fixed by the bucket count
  // and insertion sequence, both allocator-independent.
  using FlowMapAlloc = common::ArenaAlloc<std::pair<const FlowId, Flow>>;
  using FlowMap = std::unordered_map<FlowId, Flow, std::hash<FlowId>,
                                     std::equal_to<FlowId>, FlowMapAlloc>;

  sim::Simulator& sim_;
  const Topology& topo_;
  common::NodeArena flow_arena_;  // declared before flows_ (dtor order)
  FlowMap flows_;
  std::uint64_t next_flow_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  double bytes_started_ = 0;
  double bytes_delivered_ = 0;
  std::vector<double> link_bytes_;

  // reallocate() scratch, hoisted so the steady state runs
  // allocation-free: the canonical (id-sorted) pool, the affected
  // component and its rate vector, the worklist consumed by progressive
  // filling, flat per-link capacity/crossing/epoch tables indexed by
  // dense link id, the ascending candidate-link list the bottleneck scan
  // walks, and the seed buffers the drain loop recycles.
  std::vector<Flow*> realloc_order_;
  std::vector<Flow*> component_;
  std::vector<double> component_rates_;
  std::vector<std::size_t> realloc_unfixed_;
  std::vector<double> link_cap_;
  std::vector<int> link_crossing_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<LinkId> fill_links_;
  std::vector<LinkId> seed_scratch_;
  std::vector<LinkId> drained_scratch_;
  std::uint64_t epoch_ = 0;

  // Observability (all null when disabled).
  obs::EventTracer* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::Counter* realloc_counter_ = nullptr;
  obs::FixedHistogram* flow_seconds_ = nullptr;
};

}  // namespace wcs::net
