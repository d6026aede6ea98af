// Unit + property tests for net::Topology and the Tiers generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/tiers.h"
#include "net/topology.h"

namespace wcs::net {
namespace {

Topology line3(double bw = mbps(8), double lat = 0.01) {
  // a --l0-- b --l1-- c
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  t.add_link(a, b, bw, lat);
  t.add_link(b, c, bw, lat);
  return t;
}

TEST(Topology, AddNodesAndLinks) {
  Topology t = line3();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.node(NodeId(0)).name, "a");
  EXPECT_EQ(t.link(LinkId(1)).a, NodeId(1));
}

TEST(Topology, SelfLoopRejected) {
  Topology t;
  NodeId a = t.add_node("a");
  EXPECT_THROW(t.add_link(a, a, 1, 0), std::logic_error);
}

TEST(Topology, NonPositiveBandwidthRejected) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  EXPECT_THROW(t.add_link(a, b, 0, 0), std::logic_error);
}

TEST(Topology, RejectsNonFiniteLink) {
  // +inf satisfies `bandwidth > 0` and `latency >= 0`; NaN satisfies
  // neither comparison's negation. All three must be rejected.
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(t.add_link(a, b, inf, 0), std::logic_error);
  EXPECT_THROW(t.add_link(a, b, nan, 0), std::logic_error);
  EXPECT_THROW(t.add_link(a, b, 1e6, inf), std::logic_error);
  EXPECT_THROW(t.add_link(a, b, 1e6, nan), std::logic_error);
  EXPECT_EQ(t.num_links(), 0u);
}

TEST(Topology, RouteOnLine) {
  Topology t = line3();
  const Route& r = t.route(NodeId(0), NodeId(2));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], LinkId(0));
  EXPECT_EQ(r[1], LinkId(1));
}

TEST(Topology, RouteToSelfIsEmpty) {
  Topology t = line3();
  EXPECT_TRUE(t.route(NodeId(1), NodeId(1)).empty());
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId(1), NodeId(1)), 0.0);
}

TEST(Topology, RouteIsSymmetricInLinkSet) {
  Topology t = line3();
  Route fwd = t.route(NodeId(0), NodeId(2));
  Route rev = t.route(NodeId(2), NodeId(0));
  ASSERT_EQ(fwd.size(), rev.size());
  EXPECT_EQ(fwd[0], rev[1]);
  EXPECT_EQ(fwd[1], rev[0]);
}

TEST(Topology, PathLatencySumsLinks) {
  Topology t = line3(mbps(8), 0.01);
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId(0), NodeId(2)), 0.02);
}

TEST(Topology, PathBandwidthIsBottleneck) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  t.add_link(a, b, 100, 0.01);
  t.add_link(b, c, 10, 0.01);
  EXPECT_DOUBLE_EQ(t.path_bandwidth(a, c), 10.0);
}

TEST(Topology, PicksLowerLatencyPath) {
  // square: a-b-d (fast) vs a-c-d (slow)
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  NodeId d = t.add_node("d");
  t.add_link(a, b, 1e6, 0.001);
  t.add_link(b, d, 1e6, 0.001);
  t.add_link(a, c, 1e6, 0.1);
  t.add_link(c, d, 1e6, 0.1);
  EXPECT_DOUBLE_EQ(t.path_latency(a, d), 0.002);
}

TEST(Topology, UnreachableThrows) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  (void)b;
  Topology t2 = std::move(t);  // silence unused warnings simply
  EXPECT_THROW((void)t2.route(a, NodeId(1)), std::logic_error);
  EXPECT_FALSE(t2.connected());
}

TEST(Topology, ConnectedOnLine) { EXPECT_TRUE(line3().connected()); }

// --- Differential oracle -------------------------------------------------
//
// The router that route() replaced: one full Dijkstra per source, keyed
// by (latency, node index), strict improvement only. route() stops at dst
// and caches per pair; it must agree with this link for link, and
// path_latency() bit for bit, on every pair.

std::vector<LinkId> oracle_parents(const Topology& t, NodeId src) {
  const auto n = t.num_nodes();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<LinkId> parent(n, LinkId::invalid());
  using QEntry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  dist[src.value()] = 0;
  pq.emplace(0.0, src.value());
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (LinkId lid : t.node(NodeId(u)).links) {
      const Link& l = t.link(lid);
      const auto v = (l.a == NodeId(u) ? l.b : l.a).value();
      const double nd = d + l.latency_s;
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = lid;
        pq.emplace(nd, v);
      }
    }
  }
  return parent;
}

// nullopt when dst is unreachable from src.
std::optional<Route> oracle_route(const Topology& t,
                                  const std::vector<LinkId>& parent,
                                  NodeId src, NodeId dst) {
  Route r;
  for (NodeId cur = dst; cur != src;) {
    const LinkId pl = parent[cur.value()];
    if (!pl.valid()) return std::nullopt;
    r.push_back(pl);
    const Link& l = t.link(pl);
    cur = l.a == cur ? l.b : l.a;
  }
  std::reverse(r.begin(), r.end());
  return r;
}

// Queries every ordered pair in a seeded random order, so cached routes,
// fresh searches and unreachable throws interleave on one Topology.
void expect_routes_match_oracle(const Topology& t, std::uint64_t order_seed) {
  using U = NodeId::underlying_type;
  const auto n = static_cast<U>(t.num_nodes());
  std::vector<std::vector<LinkId>> parents;
  for (U s = 0; s < n; ++s) parents.push_back(oracle_parents(t, NodeId(s)));
  std::vector<std::pair<U, U>> pairs;
  for (U s = 0; s < n; ++s)
    for (U d = 0; d < n; ++d) pairs.emplace_back(s, d);
  Rng(order_seed).shuffle(pairs);
  for (auto [s, d] : pairs) {
    const NodeId src(s), dst(d);
    const std::optional<Route> want = oracle_route(t, parents[s], src, dst);
    if (!want) {
      EXPECT_THROW((void)t.route(src, dst), std::logic_error)
          << src << " -> " << dst;
      continue;
    }
    ASSERT_EQ(t.route(src, dst), *want) << src << " -> " << dst;
    SimTime latency = 0;
    for (LinkId lid : *want) latency += t.link(lid).latency_s;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(t.path_latency(src, dst)),
              std::bit_cast<std::uint64_t>(latency))
        << src << " -> " << dst;
  }
}

// A seeded random multigraph: a random spanning forest (one or two
// components) plus extra links that close cycles, some parallel to
// existing ones. Latencies come from a small palette with 0, so ties
// and zero-latency links are common.
Topology random_graph(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  constexpr double kPalette[] = {0.0, 0.001, 0.002, 0.003, 0.005};
  auto latency = [&] { return kPalette[rng.index(std::size(kPalette))]; };
  Topology t;
  for (std::size_t i = 0; i < n; ++i) (void)t.add_node("n");
  // Nodes [0, split) and [split, n) form the two components.
  const std::size_t split = rng.bernoulli(0.3) ? 1 + rng.index(n - 1) : n;
  auto id = [](std::size_t i) {
    return NodeId(static_cast<NodeId::underlying_type>(i));
  };
  for (std::size_t i = 1; i < n; ++i) {
    if (i == split) continue;
    const std::size_t base = i < split ? 0 : split;
    (void)t.add_link(id(i), id(base + rng.index(i - base)), 1e6, latency());
  }
  const auto extra = rng.uniform_int(0, static_cast<std::int64_t>(2 * n));
  for (std::int64_t k = 0; k < extra; ++k) {
    const std::size_t a = rng.index(n), b = rng.index(n);
    if (a != b && (a < split) == (b < split))
      (void)t.add_link(id(a), id(b), 1e6, latency());
  }
  return t;
}

TEST(RouteOracle, TiersRoutesMatchFullDijkstra) {
  struct Shape {
    int sites, workers;
  };
  for (Shape shape : {Shape{1, 1}, Shape{4, 3}, Shape{10, 1}, Shape{26, 2},
                      Shape{40, 2}}) {
    for (std::uint64_t seed : {1u, 2u, 7u}) {
      TiersParams p;
      p.num_sites = shape.sites;
      p.workers_per_site = shape.workers;
      p.seed = seed;
      SCOPED_TRACE(::testing::Message() << shape.sites << " sites x "
                                        << shape.workers << ", seed " << seed);
      GridTopology g = build_tiers_topology(p);
      expect_routes_match_oracle(g.topology, seed);
    }
  }
}

TEST(RouteOracle, RandomCyclicGraphsWithTiesMatchFullDijkstra) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "graph seed " << seed);
    expect_routes_match_oracle(random_graph(seed), seed + 1000);
  }
}

TEST(RouteOracle, AddLinkAndAddNodeInvalidateCachedRoutes) {
  Topology t = line3(mbps(8), 0.01);
  const NodeId a(0), c(2);
  ASSERT_EQ(t.route(a, c).size(), 2u);
  ASSERT_DOUBLE_EQ(t.path_latency(a, c), 0.02);
  const LinkId shortcut = t.add_link(a, c, mbps(8), 0.005);
  EXPECT_EQ(t.route(a, c), Route{shortcut});
  EXPECT_DOUBLE_EQ(t.path_latency(a, c), 0.005);
  const NodeId d = t.add_node("d");
  EXPECT_THROW((void)t.route(a, d), std::logic_error);
  const LinkId cd = t.add_link(c, d, mbps(8), 0.001);
  EXPECT_EQ(t.route(a, d), (Route{shortcut, cd}));
  expect_routes_match_oracle(t, 3);
}

TEST(RouteOracle, QueriesAfterAnUnreachableThrowStayCorrect) {
  // Component 1: diamond a-b-d / a-c-d with equal latency and a zero-
  // latency chord b-c. Component 2: the pair x-y.
  Topology t;
  const NodeId a = t.add_node("a"), b = t.add_node("b"),
               c = t.add_node("c"), d = t.add_node("d");
  const NodeId x = t.add_node("x"), y = t.add_node("y");
  const LinkId ab = t.add_link(a, b, 1e6, 0.002);
  const LinkId bd = t.add_link(b, d, 1e6, 0.002);
  (void)t.add_link(a, c, 1e6, 0.002);
  (void)t.add_link(c, d, 1e6, 0.002);
  (void)t.add_link(b, c, 1e6, 0.0);
  const LinkId xy = t.add_link(x, y, 1e6, 0.001);
  // The failed search from a settles its whole component before giving
  // up; the next searches must not see its distances or parents.
  EXPECT_THROW((void)t.route(a, x), std::logic_error);
  EXPECT_EQ(t.route(d, a), (Route{bd, ab}));
  EXPECT_EQ(t.route(y, x), Route{xy});
  EXPECT_THROW((void)t.route(x, d), std::logic_error);
  EXPECT_EQ(t.route(a, d), (Route{ab, bd}));
  expect_routes_match_oracle(t, 5);
}

// --- Tiers generator ----------------------------------------------------

TEST(Tiers, DefaultShape) {
  TiersParams p;  // 10 sites, 1 worker/site
  GridTopology g = build_tiers_topology(p);
  EXPECT_EQ(g.data_server_nodes.size(), 10u);
  EXPECT_EQ(g.worker_nodes.size(), 10u);
  for (const auto& site : g.worker_nodes) EXPECT_EQ(site.size(), 1u);
  EXPECT_EQ(g.site_uplinks.size(), 10u);
  EXPECT_TRUE(g.topology.connected());
}

TEST(Tiers, WorkerCountHonored) {
  TiersParams p;
  p.num_sites = 4;
  p.workers_per_site = 7;
  GridTopology g = build_tiers_topology(p);
  EXPECT_EQ(g.worker_nodes.size(), 4u);
  for (const auto& site : g.worker_nodes) EXPECT_EQ(site.size(), 7u);
}

TEST(Tiers, SiteHostsShareTheUplink) {
  TiersParams p;
  p.num_sites = 3;
  p.workers_per_site = 2;
  GridTopology g = build_tiers_topology(p);
  for (std::size_t s = 0; s < 3; ++s) {
    LinkId uplink = g.site_uplinks[s];
    auto crosses_uplink = [&](NodeId from) {
      const Route& r = g.topology.route(from, g.file_server_node);
      return std::find(r.begin(), r.end(), uplink) != r.end();
    };
    EXPECT_TRUE(crosses_uplink(g.data_server_nodes[s]));
    for (NodeId w : g.worker_nodes[s]) EXPECT_TRUE(crosses_uplink(w));
  }
}

TEST(Tiers, DifferentSitesUseDifferentUplinks) {
  TiersParams p;
  p.num_sites = 3;
  GridTopology g = build_tiers_topology(p);
  const Route& r0 =
      g.topology.route(g.data_server_nodes[0], g.file_server_node);
  EXPECT_EQ(std::find(r0.begin(), r0.end(), g.site_uplinks[1]), r0.end());
}

TEST(Tiers, SeedChangesLinkParameters) {
  TiersParams a, b;
  a.seed = 1;
  b.seed = 2;
  GridTopology ga = build_tiers_topology(a);
  GridTopology gb = build_tiers_topology(b);
  double bwa = ga.topology.link(ga.site_uplinks[0]).bandwidth_bps;
  double bwb = gb.topology.link(gb.site_uplinks[0]).bandwidth_bps;
  EXPECT_NE(bwa, bwb);
}

TEST(Tiers, SameSeedIsDeterministic) {
  TiersParams p;
  p.seed = 9;
  GridTopology a = build_tiers_topology(p);
  GridTopology b = build_tiers_topology(p);
  ASSERT_EQ(a.topology.num_links(), b.topology.num_links());
  for (LinkId::underlying_type l = 0; l < a.topology.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(a.topology.link(LinkId(l)).bandwidth_bps,
                     b.topology.link(LinkId(l)).bandwidth_bps);
    EXPECT_DOUBLE_EQ(a.topology.link(LinkId(l)).latency_s,
                     b.topology.link(LinkId(l)).latency_s);
  }
}

TEST(Tiers, JitterStaysWithinBounds) {
  TiersParams p;
  p.jitter = 0.25;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    p.seed = seed;
    GridTopology g = build_tiers_topology(p);
    for (LinkId uplink : g.site_uplinks) {
      double bw = g.topology.link(uplink).bandwidth_bps;
      EXPECT_GE(bw, p.uplink_bandwidth_bps * 0.75 - 1);
      EXPECT_LE(bw, p.uplink_bandwidth_bps * 1.25 + 1);
    }
  }
}

class TiersConnectivity : public ::testing::TestWithParam<int> {};

TEST_P(TiersConnectivity, AllSitesReachCoreHosts) {
  TiersParams p;
  p.num_sites = GetParam();
  p.workers_per_site = 2;
  p.seed = static_cast<std::uint64_t>(GetParam());
  GridTopology g = build_tiers_topology(p);
  EXPECT_TRUE(g.topology.connected());
  for (NodeId ds : g.data_server_nodes) {
    EXPECT_FALSE(g.topology.route(ds, g.file_server_node).empty());
    EXPECT_GT(g.topology.path_latency(ds, g.scheduler_node), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, TiersConnectivity,
                         ::testing::Values(1, 2, 4, 10, 16, 26, 90));

}  // namespace
}  // namespace wcs::net
