// Network topology: nodes, duplex links, and latency-shortest-path routing.
//
// The topology is static for the lifetime of a simulation. route(src, dst)
// runs Dijkstra from src (edge weight = latency, deterministic
// tie-breaking) only until dst is settled, and caches the route per
// (src, dst) pair: O(k log k) in the k nodes closer to src than dst, with
// no per-source tables.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace wcs::net {

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  double bandwidth_bps = 0;  // bytes per second
  SimTime latency_s = 0;
  std::string name;
};

struct Node {
  NodeId id;
  std::string name;
  std::vector<LinkId> links;  // incident links
};

// A route is the ordered list of links from src to dst.
using Route = std::vector<LinkId>;

class Topology {
 public:
  NodeId add_node(std::string name);
  LinkId add_link(NodeId a, NodeId b, double bandwidth_bps, SimTime latency_s,
                  std::string name = {});

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const {
    WCS_CHECK(id.valid() && id.value() < nodes_.size());
    return nodes_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    WCS_CHECK(id.valid() && id.value() < links_.size());
    return links_[id.value()];
  }

  // Route from src to dst. Returns an empty route when src == dst.
  // Throws if dst is unreachable. The reference stays valid until the
  // next add_node/add_link, which clears the route cache.
  [[nodiscard]] const Route& route(NodeId src, NodeId dst) const;

  // Sum of link latencies along route(src, dst), in route order.
  [[nodiscard]] SimTime path_latency(NodeId src, NodeId dst) const;

  // Minimum link bandwidth along route(src, dst); +inf when src == dst.
  [[nodiscard]] double path_bandwidth(NodeId src, NodeId dst) const;

  // True if every node can reach every other node.
  [[nodiscard]] bool connected() const;

 private:
  [[nodiscard]] NodeId other_end(const Link& l, NodeId from) const {
    return l.a == from ? l.b : l.a;
  }

  // Per-node search state; only touched_ entries differ from Label{}.
  struct Label {
    double dist = std::numeric_limits<double>::infinity();
    LinkId parent_link;
  };

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  mutable std::unordered_map<std::uint64_t, Route> routes_;  // src<<32|dst
  mutable std::vector<Label> scratch_;
  mutable std::vector<NodeId::underlying_type> touched_;
};

}  // namespace wcs::net
