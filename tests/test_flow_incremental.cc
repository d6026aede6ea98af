// Differential proof harness for incremental max-min reallocation.
//
// On each flow start, finish or cancel, net::FlowManager rebalances only
// the flows the change can move: the part of the flow<->link sharing
// graph it reaches through bound links, cut at links that had slack.
// Its oracle is the from-scratch progressive fill behind
// FlowManager::audit_rates_snapshot(): a link that ends with slack sets
// no rate, so every live rate must equal the recompute bitwise. This suite drives one FlowManager through operation sequences
// and checks it against that oracle after every operation and every
// executed event:
//
//   * audit::check_flow_rates on audit_rates_snapshot() — a flow the
//     dirty set missed keeps a stale rate and fails here;
//   * audit::check_flow_conservation on audit_snapshot() — per-link
//     allocation within capacity, per-flow byte progress, delivery ledger.
//
// The workloads:
//
//   * randomized churn (7 seeds x 4 topology families): start / cancel /
//     advance over partitioned multi-star platforms (many small
//     components — the incremental sweet spot), a shared chain (one
//     big overlapping component — the flood-logic stress), an
//     integer-capacity star whose fair shares tie constantly (the
//     bottleneck heap's lowest-link-id tie rule), and the grid's own
//     shape: one server behind a shared uplink, each flow capped by its
//     own access link (one component, one flow frozen per fill round);
//   * adversarial fixtures: a shared-bottleneck chain with a midstream
//     cancel, a single-link star with simultaneous completions (event-id
//     tie-breaking), exact share ties whose resolution order shows in the
//     rates' last bits (the lowest-link-id rule, and a share that falls
//     by one ulp and must be re-keyed), and zero-byte / same-node edge
//     flows;
//   * cut-link fixtures: a join that binds a slack uplink (re-flood), a
//     departure from a co-bottlenecked uplink, a re-flood that keeps the
//     bits from before the change, a lone flow on slack links, and
//     uplinks left exactly full or one ulp short of it;
//   * an eviction-churn grid stress: full GridSimulation runs with worker
//     crashes, cache eviction pressure, and the invariant auditor on
//     (including the `flow-rates` checker).
//
// End states are pinned as constants: completion logs (flow id plus the
// bit pattern of the completion instant), executed-event counts and the
// grid runs' totals. They were recorded while a full-pool recompute was
// still a selectable mode and a mirrored harness proved it bit-identical
// to the incremental path, so they pin the settle/reschedule sequence
// that comparison used to check. The equal-share and shared-uplink
// records were recorded on the linear-scan fill, before the bottleneck
// heap replaced it. Failures print the actual values in copy-paste form.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/rng.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "obs/observability.h"
#include "sim/simulator.h"
#include "workload/coadd.h"

namespace wcs::net {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// One completion callback: flow id and the bit pattern of sim.now().
struct Completion {
  std::uint64_t id;
  std::uint64_t at_bits;
};
using CompletionLog = std::vector<Completion>;

std::string render(const CompletionLog& log) {
  std::ostringstream os;
  for (const Completion& c : log)
    os << "{" << c.id << ", 0x" << std::hex << c.at_bits << std::dec << "}, ";
  return os.str();
}

// FNV-1a over the log, for the churn runs whose logs are too long to
// spell out.
std::uint64_t digest(const CompletionLog& log) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Completion& c : log) {
    mix(c.id);
    mix(c.at_bits);
  }
  return h;
}

obs::Options metrics_only() {
  obs::Options o;
  o.metrics = true;
  return o;
}

// One FlowManager over one topology. Every executed event is followed by
// an oracle check; completions are logged in callback order.
struct Harness {
  Topology topo;
  sim::Simulator sim;
  obs::Observability instruments{metrics_only()};
  std::unique_ptr<FlowManager> flows;
  CompletionLog done;

  // Call once the topology is complete: the manager sizes its per-link
  // tables at construction.
  void init() {
    flows = std::make_unique<FlowManager>(sim, topo);
    flows->set_observability(&instruments);
  }

  // Fills the manager restarted because a cut link bound.
  [[nodiscard]] std::uint64_t refloods() const {
    const obs::Counter* c =
        instruments.metrics()->find_counter("net.component_refloods");
    return c ? c->value() : 0;
  }

  [[nodiscard]] bool cuttable(LinkId link) const {
    return flows->audit_snapshot().links.at(link.value()).cuttable;
  }

  FlowId start(NodeId src, NodeId dst, Bytes bytes) {
    return flows->start_flow(src, dst, bytes, [this](FlowId id) {
      done.push_back({id.value(), bits(sim.now())});
    });
  }

  bool step() {
    const bool ran = sim.step();
    expect_oracle("after event");
    return ran;
  }

  void run_all() {
    while (step()) {
    }
  }

  void expect_oracle(const char* context) {
    SCOPED_TRACE(context);
    std::vector<audit::Violation> violations;
    audit::check_flow_rates(flows->audit_rates_snapshot(), violations);
    audit::check_flow_conservation(flows->audit_snapshot(), violations);
    EXPECT_TRUE(violations.empty())
        << "t=" << sim.now() << ": " << violations.size()
        << " violation(s), first: "
        << (violations.empty() ? "" : violations.front().message);
  }
};

// --- Randomized churn -----------------------------------------------------

// End state of one churn run.
struct ChurnRecord {
  std::uint64_t events;
  std::uint64_t completed;
  std::uint64_t cancelled;
  std::uint64_t log_digest;
};

std::string render(const ChurnRecord& r) {
  std::ostringstream os;
  os << "{" << r.events << "u, " << r.completed << "u, " << r.cancelled
     << "u, 0x" << std::hex << r.log_digest << "ull}";
  return os.str();
}

void expect_churn_record(const Harness& h, const ChurnRecord& expected) {
  const ChurnRecord actual{h.sim.executed_events(), h.flows->completed_flows(),
                           h.flows->cancelled_flows(), digest(h.done)};
  EXPECT_EQ(render(actual), render(expected));
  EXPECT_EQ(h.flows->active_flows(), 0u);
}

// Drives `ops` random operations, checking the oracle after each: about
// 2 in 5 start a flow through `start_one`, 1 in 5 cancels a random live
// flow, and the rest execute 1-3 events. Then runs the simulation dry.
template <typename StartOne>
void churn(Harness& h, Rng& rng, int ops, StartOne start_one) {
  std::vector<FlowId> live;
  for (int op = 0; op < ops; ++op) {
    const std::size_t kind = rng.index(5);
    if (kind <= 1 || live.empty()) {
      live.push_back(start_one());
    } else if (kind == 2) {
      const std::size_t victim = rng.index(live.size());
      h.flows->cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const std::size_t steps = 1 + rng.index(3);
      for (std::size_t i = 0; i < steps; ++i)
        if (!h.step()) break;
    }
    h.expect_oracle("after op");
  }
  h.run_all();
}

// Indexed by seed - 1.
constexpr ChurnRecord kMultiStarRecords[] = {
    {45u, 21u, 12u, 0xb4b33bb57b777666ull},
    {46u, 24u, 4u, 0xe382aef64df1018eull},
    {49u, 25u, 8u, 0xead6e281b73a1173ull},
    {48u, 25u, 6u, 0x75cc17e73cea5dc2ull},
    {61u, 30u, 8u, 0xb143617a2734a988ull},
    {61u, 30u, 7u, 0x765227fb16a44c43ull},
    {51u, 25u, 3u, 0xa477c729bedb5b10ull},
};
constexpr ChurnRecord kSharedChainRecords[] = {
    {36u, 17u, 5u, 0xd5c2e309677d9cb5ull},
    {49u, 22u, 5u, 0x5ce298e866392d4eull},
    {38u, 17u, 7u, 0x71730fff197e0a2cull},
    {44u, 19u, 7u, 0xe4825dfcda35ceb2ull},
    {54u, 24u, 6u, 0xa639e5731a3f541eull},
    {42u, 20u, 3u, 0x4c4b93b1ff6adacdull},
    {44u, 20u, 6u, 0xeaf9a8305dda3daeull},
};

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, RandomChurnOnMultiStarStaysBitIdentical) {
  // 4 disjoint hub-and-leaf stars: flows never cross stars, so the
  // sharing graph always has several connected components and the
  // incremental path genuinely rebalances a strict subset of the pool.
  Rng rng(GetParam());
  Harness h;
  const int kHubs = 4, kLeaves = 4;
  std::vector<std::vector<NodeId>> leaves(kHubs);
  for (int hub_i = 0; hub_i < kHubs; ++hub_i) {
    NodeId hub = h.topo.add_node("hub");
    for (int l = 0; l < kLeaves; ++l) {
      leaves[hub_i].push_back(h.topo.add_node("leaf"));
      h.topo.add_link(hub, leaves[hub_i].back(), rng.uniform_real(1e5, 1e7),
                      rng.uniform_real(0.0, 0.01));
    }
  }
  h.init();

  churn(h, rng, 80, [&] {
    const std::size_t hub_i = rng.index(kHubs);
    const std::size_t s = rng.index(kLeaves);
    std::size_t d = rng.index(kLeaves);
    // ~1 in 10 flows is a same-node transfer; ~1 in 10 is zero-byte.
    if (rng.index(10) != 0)
      while (d == s) d = rng.index(kLeaves);
    const Bytes bytes =
        rng.index(10) == 0
            ? 0u
            : static_cast<Bytes>(rng.uniform_int(1'000, 50'000'000));
    return h.start(leaves[hub_i][s], leaves[hub_i][d], bytes);
  });
  expect_churn_record(h, kMultiStarRecords[GetParam() - 1]);
}

TEST_P(FlowDifferential, RandomChurnOnSharedChainStaysBitIdentical) {
  // One 8-node chain with a thin middle link: flows span random
  // overlapping segments, so most of the pool collapses into a single
  // shared component and the dirty-set flood has to do real work.
  Rng rng(GetParam());
  Harness h;
  const int kNodes = 8;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(h.topo.add_node("n"));
  for (int i = 0; i + 1 < kNodes; ++i) {
    const double cap = i == kNodes / 2 ? 2e5 : rng.uniform_real(1e6, 1e7);
    h.topo.add_link(nodes[i], nodes[i + 1], cap, 0.0);
  }
  h.init();

  churn(h, rng, 60, [&] {
    const std::size_t s = rng.index(kNodes);
    std::size_t d = rng.index(kNodes);
    while (d == s) d = rng.index(kNodes);
    return h.start(
        nodes[s], nodes[d],
        static_cast<Bytes>(rng.uniform_int(10'000, 20'000'000)));
  });
  expect_churn_record(h, kSharedChainRecords[GetParam() - 1]);
}

constexpr ChurnRecord kEqualShareRecords[] = {
    {49u, 21u, 9u, 0xe8370b350f9a94d1ull},
    {68u, 31u, 7u, 0xd0c1ae8fcec59671ull},
    {55u, 25u, 9u, 0x6e2074b319783621ull},
    {59u, 26u, 9u, 0x7899f0e070c55de4ull},
    {63u, 27u, 10u, 0x52c3021333b75195ull},
    {58u, 28u, 4u, 0x277f1a0d71ab5e6ull},
    {52u, 24u, 6u, 0x3210c5206b0dd8a0ull},
};

TEST_P(FlowDifferential, RandomChurnOnEqualShareStarStaysBitIdentical) {
  // One hub, eight leaves, every capacity a multiple of 1 MB/s. Splits of
  // k MB/s among n flows collide constantly (1/3 == 2/6 == 3/9 bitwise),
  // and a tie resolved in the wrong link order leaves the next link one
  // ulp off. Flow sizes are whole megabytes, so completions tie too.
  Rng rng(GetParam());
  Harness h;
  const int kLeaves = 8;
  NodeId hub = h.topo.add_node("hub");
  std::vector<NodeId> leaves;
  for (int l = 0; l < kLeaves; ++l) {
    leaves.push_back(h.topo.add_node("leaf"));
    h.topo.add_link(hub, leaves.back(),
                    1e6 * static_cast<double>(1 + rng.index(4)), 0.0);
  }
  h.init();

  churn(h, rng, 80, [&] {
    const std::size_t s = rng.index(kLeaves);
    std::size_t d = rng.index(kLeaves);
    while (d == s) d = rng.index(kLeaves);
    return h.start(
        leaves[s], leaves[d],
        static_cast<Bytes>(1'000'000 * rng.uniform_int(1, 30)));
  });
  expect_churn_record(h, kEqualShareRecords[GetParam() - 1]);
}

constexpr ChurnRecord kSharedUplinkRecords[] = {
    {62u, 26u, 12u, 0xe41cb0dcd191482eull},
    {72u, 35u, 3u, 0x5c90e17bf34277d2ull},
    {67u, 31u, 9u, 0x62cdad6323d9642eull},
    {62u, 29u, 6u, 0x61f8ad0c19a19ae9ull},
    {74u, 33u, 11u, 0x49c1545eb03a0090ull},
    {81u, 39u, 5u, 0x935b3f22bab5006cull},
    {60u, 28u, 7u, 0xe0be1e6c74752818ull},
};

TEST_P(FlowDifferential, RandomChurnBehindSharedUplinkStaysBitIdentical) {
  // The grid's sharing shape: every flow leaves one file server through
  // one uplink, then takes its client's own access link. The uplink joins
  // the whole pool into one component; access links are usually the
  // bottlenecks, so each fill round freezes one flow and raises the
  // uplink's share, and the uplink binds only when enough flows pile up.
  Rng rng(GetParam());
  Harness h;
  const int kClients = 16;
  NodeId server = h.topo.add_node("server");
  NodeId router = h.topo.add_node("router");
  h.topo.add_link(server, router, rng.uniform_real(2e6, 6e6), 0.0);
  std::vector<NodeId> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(h.topo.add_node("client"));
    h.topo.add_link(router, clients.back(), rng.uniform_real(1e5, 1e6),
                    rng.uniform_real(0.0, 0.01));
  }
  h.init();

  churn(h, rng, 100, [&] {
    return h.start(
        server, clients[rng.index(kClients)],
        static_cast<Bytes>(rng.uniform_int(10'000, 20'000'000)));
  });
  expect_churn_record(h, kSharedUplinkRecords[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential,
                         ::testing::Range<std::uint64_t>(1, 8));

// --- Adversarial fixtures -------------------------------------------------

TEST(FlowDifferentialFixtures, SharedBottleneckChainWithMidstreamCancel) {
  // a --10MB/s-- b --1MB/s-- c --10MB/s-- d; four overlapping flows all
  // contend on the thin b-c link. Cancelling the b->c flow midstream
  // re-seeds the component from the released route; rates must track the
  // from-scratch recompute and completions the recorded instants.
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId c = h.topo.add_node("c");
  NodeId d = h.topo.add_node("d");
  h.topo.add_link(a, b, 1e7, 0.0);
  h.topo.add_link(b, c, 1e6, 0.0);
  h.topo.add_link(c, d, 1e7, 0.0);
  h.init();

  h.start(a, d, 8'000'000);
  FlowId victim = h.start(b, c, 6'000'000);
  h.start(c, d, 4'000'000);
  h.start(a, b, 2'000'000);
  // Consume the four t=0 activations, so the cancel hits a live flow.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.step());
  ASSERT_TRUE(h.flows->cancel(victim));
  h.expect_oracle("after cancel");
  h.run_all();
  EXPECT_EQ(render(h.done), render(CompletionLog{
                                {3, 0x3fcc71c71c71c71c},
                                {2, 0x3fdc71c71c71c71c},
                                {0, 0x4020000000000000},
                            }));
  EXPECT_EQ(h.sim.executed_events(), 7u);
}

TEST(FlowDifferentialFixtures, SingleLinkStarSimultaneousCompletions) {
  // Four identical flows on one link finish at the same instant: the
  // event kernel breaks the tie by event id, so the completion ORDER
  // pins event-id consumption — the strictest consequence of the
  // settle-only-on-rate-change discipline.
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId e = h.topo.add_node("e");
  NodeId f = h.topo.add_node("f");
  h.topo.add_link(a, b, 1e6, 0.0);
  h.topo.add_link(e, f, 2e6, 0.0);
  h.init();

  for (int i = 0; i < 4; ++i) h.start(a, b, 1'000'000);
  h.run_all();
  ASSERT_EQ(h.done.size(), 4u);
  // All four completed at the same simulated instant, in id order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.done[i].id, i);
    EXPECT_EQ(h.done[i].at_bits, h.done[0].at_bits);
  }

  // Second wave: a disjoint-link flow sized to finish simultaneously
  // with a shared-link pair (same double instant, different links).
  h.start(a, b, 1'000'000);
  h.start(a, b, 1'000'000);  // shared: each at 0.5 MB/s -> t = +2
  h.start(e, f, 4'000'000);  // alone at 2 MB/s -> t = +2
  h.run_all();
  // t = 4 for the first wave, t = 6 for the second. Flow 4's completion
  // re-rates flow 5, whose rescheduled completion event then runs after
  // flow 6's.
  EXPECT_EQ(render(h.done), render(CompletionLog{
                                {0, 0x4010000000000000},
                                {1, 0x4010000000000000},
                                {2, 0x4010000000000000},
                                {3, 0x4010000000000000},
                                {4, 0x4018000000000000},
                                {6, 0x4018000000000000},
                                {5, 0x4018000000000000},
                            }));
  EXPECT_EQ(h.sim.executed_events(), 14u);
}

TEST(FlowDifferentialFixtures, EqualSharesResolveToLowestLinkId) {
  // p --X-- q --Y-- r, both links 10 B/s. Flows a, b cross X; d, e cross
  // Y; c crosses both. Both fair shares are fl(10/3): an exact tie. The
  // link with the lower id is the bottleneck first and its three flows
  // freeze at s = fl(10/3); the other link's two remaining flows then
  // split 10 - s, which rounds one ulp below s. Built both ways round, so
  // the id rule, not the build order, decides which flows get which.
  const double s = 10.0 / 3;
  const double rest = (10.0 - s) / 2;
  ASSERT_NE(bits(s), bits(rest));
  for (const bool x_first : {true, false}) {
    SCOPED_TRACE(x_first ? "X has the lower id" : "Y has the lower id");
    Harness h;
    NodeId p = h.topo.add_node("p");
    NodeId q = h.topo.add_node("q");
    NodeId r = h.topo.add_node("r");
    if (x_first) {
      h.topo.add_link(p, q, 10, 0.0);
      h.topo.add_link(q, r, 10, 0.0);
    } else {
      h.topo.add_link(q, r, 10, 0.0);
      h.topo.add_link(p, q, 10, 0.0);
    }
    h.init();
    const FlowId on_x[] = {h.start(p, q, 1'000'000), h.start(p, q, 1'000'000)};
    const FlowId both = h.start(p, r, 1'000'000);
    const FlowId on_y[] = {h.start(q, r, 1'000'000), h.start(q, r, 1'000'000)};
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(h.step());  // t=0 activations

    EXPECT_EQ(bits(h.flows->flow_rate(both)), bits(s));
    for (FlowId id : on_x)
      EXPECT_EQ(bits(h.flows->flow_rate(id)), bits(x_first ? s : rest));
    for (FlowId id : on_y)
      EXPECT_EQ(bits(h.flows->flow_rate(id)), bits(x_first ? rest : s));
    h.run_all();
    EXPECT_EQ(h.flows->completed_flows(), 5u);
  }
}

TEST(FlowDifferentialFixtures, ShareFallingByAnUlpIsReKeyed) {
  // p --X-- q --Y-- r --Z-- t, every link 10 B/s and three flows each,
  // ids X < Z < Y: all three shares tie at s = fl(10/3). X goes first;
  // its flow c also crosses Y, whose share then falls one ulp to
  // rest = (10 - s) / 2. Y must now beat Z, so g (on Y and Z) freezes at
  // rest. Had Y kept its stale key s, the id rule would pick Z first and
  // g would freeze at s.
  const double s = 10.0 / 3;
  const double rest = (10.0 - s) / 2;
  ASSERT_LT(rest, s);
  Harness h;
  NodeId p = h.topo.add_node("p");
  NodeId q = h.topo.add_node("q");
  NodeId r = h.topo.add_node("r");
  NodeId t = h.topo.add_node("t");
  h.topo.add_link(p, q, 10, 0.0);  // X
  h.topo.add_link(r, t, 10, 0.0);  // Z
  h.topo.add_link(q, r, 10, 0.0);  // Y
  h.init();
  const FlowId on_x[] = {h.start(p, q, 1'000'000), h.start(p, q, 1'000'000),
                         h.start(p, r, 1'000'000)};  // the last crosses Y
  const FlowId e = h.start(q, r, 1'000'000);
  const FlowId g = h.start(q, t, 1'000'000);  // crosses Y and Z
  const FlowId on_z[] = {h.start(r, t, 1'000'000), h.start(r, t, 1'000'000)};
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(h.step());  // t=0 activations

  for (FlowId id : on_x) EXPECT_EQ(bits(h.flows->flow_rate(id)), bits(s));
  EXPECT_EQ(bits(h.flows->flow_rate(e)), bits(rest));
  EXPECT_EQ(bits(h.flows->flow_rate(g)), bits(rest));
  const double z_rest = (10.0 - rest) / 2;
  for (FlowId id : on_z)
    EXPECT_EQ(bits(h.flows->flow_rate(id)), bits(z_rest));
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 7u);
}

// --- Cut links --------------------------------------------------------------
//
// A reallocation floods only through links that were bound (residual
// within the margin of zero) before the change; any other link it
// reaches is cut. These fixtures pin each guard that keeps the cut
// exact: the post-fill check that re-floods when a cut link binds, the
// margin it binds at, the bits of the allocation before the change, and
// the joined flow's own entry.

TEST(FlowCutFixtures, JoinThatSaturatesASlackUplinkRefloods) {
  // server --U 3-- router --A0 2-- c0, --A1 2-- c1. Alone, f0 runs at
  // its access rate and leaves U one unit of slack, so U is cut. f1's
  // first fill pops U at the residual 1: U binds, the component is
  // re-flooded through it, and both flows settle at 3 / 2.
  Harness h;
  NodeId server = h.topo.add_node("server");
  NodeId router = h.topo.add_node("router");
  NodeId c0 = h.topo.add_node("c0");
  NodeId c1 = h.topo.add_node("c1");
  const LinkId u = h.topo.add_link(server, router, 3, 0.0);
  h.topo.add_link(router, c0, 2, 0.0);
  h.topo.add_link(router, c1, 2, 0.0);
  h.init();

  const FlowId f0 = h.start(server, c0, 1'000);
  ASSERT_TRUE(h.step());
  EXPECT_EQ(bits(h.flows->flow_rate(f0)), bits(2.0));
  EXPECT_TRUE(h.cuttable(u));
  EXPECT_EQ(h.refloods(), 1u);  // f0's access link was slack until now

  const FlowId f1 = h.start(server, c1, 1'000);
  ASSERT_TRUE(h.step());
  EXPECT_EQ(bits(h.flows->flow_rate(f0)), bits(1.5));
  EXPECT_EQ(bits(h.flows->flow_rate(f1)), bits(1.5));
  EXPECT_FALSE(h.cuttable(u));
  EXPECT_EQ(h.refloods(), 2u);
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 2u);
}

TEST(FlowCutFixtures, CoBottleneckDepartureRaisesTheFlowThatStays) {
  // server --U 2-- router --A0 5-- c0, --A1 5-- c1. f and g split U at 1
  // each, so U is bound. Once f is cancelled U has slack, but the bit
  // from before the change still floods through it to g, which must
  // rise to 2. A slack test made after the departure would cut U there.
  Harness h;
  NodeId server = h.topo.add_node("server");
  NodeId router = h.topo.add_node("router");
  NodeId c0 = h.topo.add_node("c0");
  NodeId c1 = h.topo.add_node("c1");
  const LinkId u = h.topo.add_link(server, router, 2, 0.0);
  h.topo.add_link(router, c0, 5, 0.0);
  h.topo.add_link(router, c1, 5, 0.0);
  h.init();

  const FlowId f = h.start(server, c0, 1'000);
  const FlowId g = h.start(server, c1, 1'000);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(h.step());  // t=0 activations
  EXPECT_EQ(bits(h.flows->flow_rate(f)), bits(1.0));
  EXPECT_EQ(bits(h.flows->flow_rate(g)), bits(1.0));
  EXPECT_FALSE(h.cuttable(u));

  ASSERT_TRUE(h.flows->cancel(f));
  h.expect_oracle("after cancel");
  EXPECT_EQ(bits(h.flows->flow_rate(g)), bits(2.0));
  EXPECT_FALSE(h.cuttable(u));
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 1u);
}

TEST(FlowCutFixtures, RefloodKeepsTheBitsFromBeforeTheChange) {
  // U 2 carries f (U, A0) and g (U, C, A1); C 3 also carries h
  // (S, C, A2), which A2 holds at 1.5. U splits at 1, so C carries 2.5
  // and is cut. Cancelling f floods U to g, whose rise to U's 2 binds C
  // at the residual 1.5: a re-flood. In that first fill U ends with
  // slack; had the failed fill already cleared U's bit, the re-flood
  // would cut U, g would fall out of the component and keep its old 1.
  Harness h;
  NodeId server = h.topo.add_node("server");
  NodeId router = h.topo.add_node("router");
  NodeId hub = h.topo.add_node("hub");
  NodeId src = h.topo.add_node("src");
  NodeId c0 = h.topo.add_node("c0");
  NodeId c1 = h.topo.add_node("c1");
  NodeId c2 = h.topo.add_node("c2");
  const LinkId u = h.topo.add_link(server, router, 2, 0.0);
  h.topo.add_link(router, c0, 5, 0.0);
  const LinkId c = h.topo.add_link(router, hub, 3, 0.0);
  h.topo.add_link(hub, c1, 5, 0.0);
  h.topo.add_link(hub, c2, 1.5, 0.0);
  h.topo.add_link(src, router, 100, 0.0);
  h.init();

  const FlowId f = h.start(server, c0, 1'000);
  const FlowId g = h.start(server, c1, 1'000);
  const FlowId via_c = h.start(src, c2, 1'000);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.step());  // t=0 activations
  EXPECT_EQ(bits(h.flows->flow_rate(g)), bits(1.0));
  EXPECT_EQ(bits(h.flows->flow_rate(via_c)), bits(1.5));
  EXPECT_FALSE(h.cuttable(u));
  EXPECT_TRUE(h.cuttable(c));

  const std::uint64_t before = h.refloods();
  ASSERT_TRUE(h.flows->cancel(f));
  h.expect_oracle("after cancel");
  EXPECT_EQ(h.refloods(), before + 1);
  EXPECT_EQ(bits(h.flows->flow_rate(g)), bits(1.5));
  EXPECT_EQ(bits(h.flows->flow_rate(via_c)), bits(1.5));
  EXPECT_FALSE(h.cuttable(c));
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 2u);
}

TEST(FlowCutFixtures, LoneFlowOnSlackLinksGetsItsAccessRate) {
  // Every link of a fresh flow has slack, so nothing floods to it: it
  // must enter its own component, and its access link binds at once.
  Harness h;
  NodeId server = h.topo.add_node("server");
  NodeId router = h.topo.add_node("router");
  NodeId client = h.topo.add_node("client");
  const LinkId u = h.topo.add_link(server, router, 10, 0.0);
  const LinkId a = h.topo.add_link(router, client, 2, 0.0);
  h.init();

  const FlowId f = h.start(server, client, 1'000);
  ASSERT_TRUE(h.step());
  EXPECT_EQ(bits(h.flows->flow_rate(f)), bits(2.0));
  EXPECT_EQ(h.refloods(), 1u);
  EXPECT_TRUE(h.cuttable(u));
  EXPECT_FALSE(h.cuttable(a));
  h.run_all();
  EXPECT_EQ(h.done.size(), 1u);
}

// router --A0 2-- c0, --A1 2-- c1, then server --U uplink-- router, so U
// has the highest id and loses every share tie to an access link.
struct TiedUplink {
  Harness h;
  NodeId server, c0, c1;
  LinkId u;

  explicit TiedUplink(double uplink_bps) {
    NodeId router = h.topo.add_node("router");
    c0 = h.topo.add_node("c0");
    c1 = h.topo.add_node("c1");
    server = h.topo.add_node("server");
    h.topo.add_link(router, c0, 2, 0.0);
    h.topo.add_link(router, c1, 2, 0.0);
    u = h.topo.add_link(server, router, uplink_bps, 0.0);
    h.init();
  }
};

TEST(FlowCutFixtures, UplinkEndingExactlyAtCapacityBinds) {
  // U 4 behind two access links of 2. f1 joins while U, with one flow
  // at 2, is cut at the residual 2: A1 wins the 2 == 2 tie by its lower
  // id, so U is never popped, yet it ends exactly full. The post-fill
  // check must bind it (a re-flood) or U would stay cuttable while
  // saturated.
  TiedUplink t(4);
  Harness& h = t.h;
  const FlowId f0 = h.start(t.server, t.c0, 1'000);
  ASSERT_TRUE(h.step());
  EXPECT_TRUE(h.cuttable(t.u));
  const FlowId f1 = h.start(t.server, t.c1, 1'000);
  ASSERT_TRUE(h.step());
  EXPECT_EQ(bits(h.flows->flow_rate(f0)), bits(2.0));
  EXPECT_EQ(bits(h.flows->flow_rate(f1)), bits(2.0));
  EXPECT_FALSE(h.cuttable(t.u));
  EXPECT_EQ(h.refloods(), 2u);

  // U bound: f0's departure floods through it to f1, whose access link
  // still holds it at 2, and U has slack again.
  ASSERT_TRUE(h.flows->cancel(f0));
  h.expect_oracle("after cancel");
  EXPECT_EQ(bits(h.flows->flow_rate(f1)), bits(2.0));
  EXPECT_TRUE(h.cuttable(t.u));
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 1u);
}

TEST(FlowCutFixtures, UplinkWithOneUlpOfSlackBinds) {
  // As above with U one ulp above 4: both flows still run at 2 and U
  // ends with one ulp of slack. That is rounding, not capacity, so the
  // margin binds U.
  const double uplink = std::nextafter(4.0, 8.0);
  ASSERT_GT(uplink - 2.0 - 2.0, 0.0);
  TiedUplink t(uplink);
  Harness& h = t.h;
  const FlowId f0 = h.start(t.server, t.c0, 1'000);
  const FlowId f1 = h.start(t.server, t.c1, 1'000);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(h.step());  // t=0 activations
  EXPECT_EQ(bits(h.flows->flow_rate(f0)), bits(2.0));
  EXPECT_EQ(bits(h.flows->flow_rate(f1)), bits(2.0));
  EXPECT_FALSE(h.cuttable(t.u));
  EXPECT_EQ(h.refloods(), 2u);
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 2u);
}

// --- Grid-level eviction-churn stress under the auditor -------------------

struct GridRecord {
  const char* scheduler;
  double makespan_s;
  std::uint64_t tasks_completed;
  std::uint64_t events_executed;
  std::uint64_t file_transfers;
  double bytes_transferred;
};

// %.17g round-trips a double, so equal renderings mean equal bits.
std::string render(const GridRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"%s\", %.17g, %lluu, %lluu, %lluu, %.17g}",
                r.scheduler, r.makespan_s,
                static_cast<unsigned long long>(r.tasks_completed),
                static_cast<unsigned long long>(r.events_executed),
                static_cast<unsigned long long>(r.file_transfers),
                r.bytes_transferred);
  return buf;
}

constexpr GridRecord kEvictionChurnRecords[] = {
    {"storage-affinity", 144064.96305575932, 200u, 10488u, 4355u, 108875000000},
    {"overlap", 80406.321574844857, 200u, 5480u, 2331u, 58275000000},
    {"rest", 84145.388235585895, 200u, 5834u, 2504u, 62600000000},
    {"combined", 89136.384536431637, 200u, 5882u, 2524u, 63100000000},
    {"rest.2", 84448.846331505396, 200u, 5834u, 2502u, 62550000000},
    {"combined.2", 84284.78342061727, 200u, 5652u, 2417u, 60425000000},
};

TEST(FlowDifferentialGrid, EvictionChurnRunsBitIdenticalUnderAudit) {
  // Full GridSimulation runs: small caches force eviction, worker crashes
  // force batch cancellation (flows aborted midstream), and the invariant
  // auditor sweeps every 500 events — including the `flow-rates` checker,
  // which recomputes every live rate from scratch and throws on any
  // bitwise difference. Each scheduler's totals must match the record.
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  cp.seed = 9;
  auto job = workload::generate_coadd(cp);

  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 4;
  c.capacity_files = 2500;  // tight: sustained eviction pressure
  c.churn = grid::GridConfig::ChurnParams{
      .mean_uptime_s = 20000.0, .mean_downtime_s = 2000.0, .seed = 17};
  c.audit = true;
  c.audit_interval_events = 500;

  const auto specs = sched::SchedulerSpec::paper_algorithms();
  ASSERT_EQ(specs.size(), std::size(kEvictionChurnRecords));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string name = specs[i].name();
    SCOPED_TRACE(name);
    const auto r = grid::run_once(c, job, specs[i], /*seed=*/5);
    const GridRecord actual{name.c_str(),
                            r.makespan_s,
                            r.tasks_completed,
                            r.events_executed,
                            r.total_file_transfers(),
                            r.total_bytes_transferred()};
    EXPECT_EQ(render(actual), render(kEvictionChurnRecords[i]));
  }
}

}  // namespace
}  // namespace wcs::net
