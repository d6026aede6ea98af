// Flow-level network simulation with max-min fair bandwidth sharing.
//
// This reproduces the essential behaviour of SimGrid's fluid TCP model:
// each active transfer is a flow along a fixed route; whenever the set of
// active flows changes, link bandwidth is re-divided among flows by
// progressive filling (max-min fairness) and each flow's completion event
// is rescheduled for its new rate.
//
// Reallocation is incremental. The manager keeps, per link, the list of
// flows sharing it (active and not draining) in flow-id order; a flow
// joins the lists when it activates and leaves them when it completes,
// is cancelled, or drains. A flow start/finish seeds the links it
// traverses, and a breadth-first flood through those lists collects the
// flows whose rate the change can move.
//
// The flood crosses only *bound* links: links whose residual capacity
// ended within kBoundMargin of zero in the allocation before the change
// (one bit per link, refreshed by every fill that reaches the link).
// Every other link the component touches is *cut*: the component's
// flows on it enter the fill against its residual capacity (bandwidth
// minus the fixed rates of its flows outside the component), and the
// flood stops there. On the Tiers platforms the file-server and WAN
// links never saturate, so a change re-fills one site's flows instead
// of every WAN transfer. The joined flow of an activation always enters
// the component, even when each of its links had slack.
//
// Why the rates stay bitwise those of a whole-pool fill: a link that is
// popped as a bottleneck is left with (rounding-level) zero capacity, so
// a link that ends with slack never sets a rate. A fill over the whole
// pool is therefore an interleaving of independent fills on either side
// of such a link, and on every bound link the freeze order and the
// `cap -= share` sequence are exactly the reduced fill's. The cut link
// itself is the one place where the two fills round differently (a
// residual computed by one subtraction per outside flow against the
// whole pool's interleaved subtractions), which is what the margin
// absorbs: after the fill, a cut link whose residual ended within it —
// because it was popped, or because a tie or one ulp left it full
// without being popped — is marked bound and the component is rebuilt
// and re-filled. That one check is the only guard: a popped cut link
// ends within the margin too, so no separate abort at pop time is
// needed. Each retry binds at least one more link, so the loop ends,
// and bits are committed only once a fill succeeds. Treating a slack
// link as bound is always safe: it only widens the flood.
//
// The bit must describe the allocation *before* the change. When F
// leaves an uplink it saturated together with G, that uplink has slack
// right after F is gone; cutting it there would keep G out of the
// component and G's rate would never rise.
//
// Inside the component, progressive filling is driven by a min-heap of
// (fair share, link id) keys instead of a scan over every candidate link
// per round. Keys are lazy: freezing flows at the minimum share can only
// raise the other links' shares (up to ulp-level rounding), so a link is
// pushed again only when its recomputed share falls below the smallest
// key it has queued, and a popped link whose share has risen since its
// push is pushed back with the new share. Every link with unfrozen flows
// thus always holds a key no greater than its current share, so the
// first popped key that still equals its link's share is the smallest
// (share, link id) pair — exactly the bottleneck the linear scan picks,
// ties resolved to the lowest link id. Its flows are then frozen in id
// order with the scan's per-link `cap -= share`, clamp and `--crossing`
// sequence, so every rate is bitwise the one a from-scratch scan over
// the whole pool assigns. A flow is settled — progress credited,
// completion event rescheduled — only when its rate actually changed.
//
// The linear-scan fill survives as the oracle behind
// audit_rates_snapshot(): the `flow-rates` audit checker compares it with
// the live rates at every audit epoch, and tests/test_flow_incremental.cc
// after every operation.
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
        link_flows_(topology.num_links()),
        link_cap_(topology.num_links(), 0),
        link_crossing_(topology.num_links(), 0),
        link_mark_(topology.num_links(), 0),
        link_floor_(topology.num_links(), 0),
        link_bound_(topology.num_links(), 0) {}

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
  // allocation vs capacity and cut bit, per-flow byte progress, and the
  // delivery ledger (audit::check_flow_conservation). Progress is settled
  // on-the-fly to now(): flows are only byte-settled when their rate
  // changes, so the stored `remaining` lags the fluid model between rate
  // changes.
  [[nodiscard]] audit::FlowAuditSnapshot audit_snapshot() const;

  // Stored per-flow rates next to a from-scratch linear-scan
  // progressive-filling recompute over the same pool
  // (audit::check_flow_rates). The live rates must match the recompute
  // bitwise — the invariant the dirty-component reallocation, the cut at
  // slack links and the bottleneck heap rest on.
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
  // fill_share of a component flow the current fill has not frozen yet
  // (real shares are >= 0).
  static constexpr double kUnfixed = -1;

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
    double fill_share = 0;   // share frozen by the current fill (scratch;
                             // kUnfixed until the fill reaches the flow)
    EventId pending_event;   // activation or completion event
    FlowCallback on_complete;
  };

  // A link whose residual capacity ends within this fraction of its
  // bandwidth is bound: the flood crosses it. Far above the rounding of
  // a fill (a few ulps per flow on the link), far below any real slack.
  static constexpr double kBoundMargin = 1e-9;

  void activate(FlowId id);
  void complete(FlowId id);

  // Recompute the max-min allocation after the flow set changed.
  // `seed_links` are the links traversed by the added/removed flow, and
  // `joined` the flow an activation added (nullptr otherwise); only the
  // flows reachable from them through bound links are rebalanced, and a
  // flow is settled and its completion event rescheduled only if its
  // rate changed.
  void reallocate(const Route& seed_links, Flow* joined);

  // Flood the sharing graph breadth-first out from `seeds` (and
  // `joined`) through the per-link flow lists of bound links: fills
  // component_ (id-sorted flows whose rate may change) and fill_links_
  // (the links they traverse, bound and cut, in flood order).
  void build_component(const std::vector<LinkId>& seeds, Flow* joined);

  // Heap-driven progressive filling over component_ and fill_links_:
  // sets each component flow's fill_share. Returns false, after marking
  // them bound, if some cut link ended within the margin; the component
  // must then be rebuilt and re-filled. On success refreshes the bound
  // bit of every link in fill_links_.
  [[nodiscard]] bool fill_component();

  // Enter / leave the per-link flow lists (the sharing pool).
  void join_links(Flow& f);
  void leave_links(const Flow& f);

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

  // The sharing pool by link: link_flows_[l] lists the active,
  // non-draining flows whose route crosses l, in ascending flow id.
  // Flow-table nodes never move, so the pointers stay valid until the
  // flow leaves the pool.
  std::vector<std::vector<Flow*>> link_flows_;

  // reallocate() scratch, hoisted so the steady state runs
  // allocation-free: the affected component (id-sorted), flat per-link
  // capacity/crossing/epoch/heap-floor tables indexed by dense link id,
  // the component's links, the bottleneck heap of (share, link id) keys,
  // and the seed buffers the drain loop recycles.
  std::vector<Flow*> component_;
  std::vector<double> link_cap_;
  std::vector<int> link_crossing_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<double> link_floor_;
  // Bound bit per link (see the file comment); not scratch.
  std::vector<char> link_bound_;
  std::vector<LinkId> fill_links_;
  std::vector<std::pair<double, LinkId::underlying_type>> fill_heap_;
  std::vector<LinkId> seed_scratch_;
  std::vector<LinkId> drained_scratch_;
  std::uint64_t epoch_ = 0;

  // Observability (all null when disabled).
  obs::EventTracer* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::Counter* realloc_counter_ = nullptr;
  obs::Counter* reflood_counter_ = nullptr;
  obs::FixedHistogram* flow_seconds_ = nullptr;
};

}  // namespace wcs::net
