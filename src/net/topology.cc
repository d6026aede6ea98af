#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace wcs::net {

NodeId Topology::add_node(std::string name) {
  NodeId id(static_cast<NodeId::underlying_type>(nodes_.size()));
  nodes_.push_back(Node{id, std::move(name), {}});
  routes_.clear();  // invalidate cached routes
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, double bandwidth_bps,
                          SimTime latency_s, std::string name) {
  WCS_CHECK(a.valid() && a.value() < nodes_.size());
  WCS_CHECK(b.valid() && b.value() < nodes_.size());
  WCS_CHECK_MSG(a != b, "self-loop link");
  // Finite values only: an infinite capacity makes the max-min fill's
  // `cap - share` an inf - inf NaN, which has no place in its ordering.
  WCS_CHECK_MSG(std::isfinite(bandwidth_bps) && bandwidth_bps > 0,
                "link bandwidth must be finite and positive: "
                    << bandwidth_bps);
  WCS_CHECK_MSG(std::isfinite(latency_s) && latency_s >= 0,
                "link latency must be finite and non-negative: " << latency_s);
  LinkId id(static_cast<LinkId::underlying_type>(links_.size()));
  links_.push_back(Link{id, a, b, bandwidth_bps, latency_s, std::move(name)});
  nodes_[a.value()].links.push_back(id);
  nodes_[b.value()].links.push_back(id);
  routes_.clear();
  return id;
}

const Route& Topology::route(NodeId src, NodeId dst) const {
  WCS_CHECK(src.valid() && src.value() < nodes_.size());
  WCS_CHECK(dst.valid() && dst.value() < nodes_.size());
  const std::uint64_t key = (std::uint64_t{src.value()} << 32) | dst.value();
  if (auto it = routes_.find(key); it != routes_.end()) return it->second;

  // Reset what the last search touched (it may have thrown), then grow the
  // scratch over nodes added since.
  for (auto i : touched_) scratch_[i] = Label{};
  touched_.assign(1, src.value());
  scratch_.resize(nodes_.size());

  // Dijkstra keyed by (latency, node index) — the node-index tiebreak makes
  // equal-latency route choices deterministic across runs and platforms.
  // It stops once dst is settled: settled nodes never change parent, so
  // the route is the one a full search from src would give.
  using QEntry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  scratch_[src.value()].dist = 0;
  pq.emplace(0.0, src.value());
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > scratch_[u].dist) continue;
    if (u == dst.value()) break;
    for (LinkId lid : nodes_[u].links) {
      const Link& l = links_[lid.value()];
      auto vi = other_end(l, NodeId(u)).value();
      Label& v = scratch_[vi];
      double nd = d + l.latency_s;
      // Strictly-better only. Equal-cost alternatives are resolved by the
      // deterministic visit order (pq keyed by (distance, node index),
      // links iterated in insertion order), so the tree is reproducible;
      // rewriting parents on ties can create cycles with zero-latency
      // links.
      if (nd < v.dist) {
        if (!v.parent_link.valid()) touched_.push_back(vi);
        v = Label{nd, lid};
        pq.emplace(nd, vi);
      }
    }
  }

  Route r;
  for (NodeId cur = dst; cur != src;) {
    LinkId pl = scratch_[cur.value()].parent_link;
    WCS_CHECK_MSG(pl.valid(), "node " << dst << " unreachable from " << src);
    r.push_back(pl);
    cur = other_end(links_[pl.value()], cur);
  }
  std::reverse(r.begin(), r.end());
  return routes_.emplace(key, std::move(r)).first->second;
}

SimTime Topology::path_latency(NodeId src, NodeId dst) const {
  SimTime total = 0;
  for (LinkId lid : route(src, dst)) total += links_[lid.value()].latency_s;
  return total;
}

double Topology::path_bandwidth(NodeId src, NodeId dst) const {
  double bw = std::numeric_limits<double>::infinity();
  for (LinkId lid : route(src, dst))
    bw = std::min(bw, links_[lid.value()].bandwidth_bps);
  return bw;
}

bool Topology::connected() const {
  if (nodes_.empty()) return true;
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeId> stack{NodeId(0)};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (LinkId lid : nodes_[u.value()].links) {
      NodeId v = other_end(links_[lid.value()], u);
      if (!seen[v.value()]) {
        seen[v.value()] = 1;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == nodes_.size();
}

}  // namespace wcs::net
