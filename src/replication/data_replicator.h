// Proactive data replication (the paper's Sec. 3.1/6 companion
// mechanism, after Ranganathan & Foster, "Decoupling Computation and Data
// Scheduling in Distributed Data-Intensive Applications", HPDC'02).
//
// The replicator watches global file popularity (every fetch from the
// external file server counts) and periodically pushes files whose
// popularity crossed a threshold to an additional site, chosen by one of
// four placements (random, least-loaded, hierarchical, network-cost).
// Replication traffic flows over the same links as demand fetches, so the
// bandwidth cost is modeled, not assumed away.
//
// Hot set. The replication-eligible files (count >= threshold, not yet
// replicated) are kept in one ordered set keyed by (count desc, id asc).
// on_file_fetched re-keys an eligible file when its count grows, and a
// scan pops the first max_replicas_per_round keys. Counts only grow and a
// file leaves the set only when it is replicated, so the set holds
// exactly the files a full walk of the counts would collect, in the order
// a full (count desc, id asc) sort would give them: every round picks the
// same files in the same order, draws the same RNG values and starts the
// same flows as that walk-and-sort, at O(log n) per fetch instead of
// O(files fetched) per scan.
//
// The paper argues replication is NECESSARY for task-centric scheduling
// (to dissolve hot spots) but merely ORTHOGONAL for worker-centric
// scheduling; bench_ext_replication quantifies both claims. The
// data_replication_policy scenario (R3) ablates the placement policies
// against each other across topologies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/flow_manager.h"
#include "obs/profiler.h"
#include "sim/simulator.h"
#include "storage/data_server.h"
#include "workload/job.h"

namespace wcs::replication {

enum class Placement {
  kRandom,       // Ranganathan's DataRandom
  kLeastLoaded,  // Ranganathan's DataLeastLoaded (shortest batch queue)
  // Place inside the MAN group whose sites generated the most demand for
  // the file ("The Impact of Data Replication on Job Scheduling
  // Performance in Hierarchical Data Grid": replicate down the tier the
  // requests came from). Ties: lowest group id; within the group, least
  // loaded then lowest site id.
  kHierarchicalParent,
  // DIANA-style network-cost-weighted source selection turned into
  // placement: minimize (missing bytes / uplink bandwidth + uplink
  // latency) * (1 + backlog) over candidate sites, so a replica lands
  // where it is cheapest to deliver AND cheapest to serve from.
  kNetworkCost,
};

[[nodiscard]] const char* to_string(Placement placement);

// Parses a CLI/scenario policy name ("random", "least-loaded",
// "hierarchical", "network-cost"). Returns false on unknown names.
[[nodiscard]] bool parse_placement(std::string_view name, Placement* out);

// Per-site network facts for the placement policies that price the grid
// hierarchy (one entry per site, site order).
struct SiteNetInfo {
  std::uint32_t man_group = 0;       // site's MAN router index
  double uplink_bandwidth_bps = 1;   // the site's shared uplink
  SimTime uplink_latency_s = 0;
};

struct DataReplicatorParams {
  // A file becomes replication-eligible once this many demand fetches
  // have been observed for it across all sites.
  std::size_t popularity_threshold = 8;
  Placement placement = Placement::kLeastLoaded;
  SimTime check_interval_s = 3600;       // popularity scan period
  std::size_t max_replicas_per_round = 25;  // throttle per scan
  std::uint64_t seed = 13;
};

class DataReplicator {
 public:
  struct Stats {
    std::uint64_t files_replicated = 0;
    double bytes_replicated = 0;
    std::uint64_t rounds = 0;
  };

  // `num_files` is the catalog size: every fetched FileId is below it.
  // `site_info` (site order) feeds the hierarchy-aware placements; when
  // empty, every site is priced identically in one group (the
  // random/least-loaded policies never read it).
  DataReplicator(const DataReplicatorParams& params, sim::Simulator& sim,
                 net::FlowManager& flows, NodeId file_server_node,
                 std::vector<storage::DataServer*> data_servers,
                 std::size_t num_files,
                 std::vector<SiteNetInfo> site_info = {});

  DataReplicator(const DataReplicator&) = delete;
  DataReplicator& operator=(const DataReplicator&) = delete;

  // Begin periodic scans (first scan after one interval).
  void start();

  // Cancel the periodic scan and all in-flight replication transfers.
  // Called by the engine once the job completes.
  void stop();

  // Demand-fetch observation hook; the engine wires every data server's
  // transfer listener here. `origin` is the fetching site — the
  // hierarchical placement aggregates demand per MAN group from it.
  void on_file_fetched(FileId file, SiteId origin = SiteId(0));

  // Times each scan (with its placements and flow starts) as the
  // `replication` phase; nullptr detaches.
  void set_profiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t popularity(FileId file) const {
    return popularity_.at(file.value());
  }

 private:
  void scan();
  // Site to receive a replica of `file`; invalid id if none is suitable
  // (every site already holds it).
  [[nodiscard]] SiteId pick_target(FileId file);

  // Bytes a replica of `file` at `target` would actually move: only the
  // blocks the target does not already cover.
  [[nodiscard]] Bytes replica_bytes(FileId file, std::size_t target) const;

  DataReplicatorParams params_;
  sim::Simulator& sim_;
  net::FlowManager& flows_;
  NodeId file_server_node_;
  std::vector<storage::DataServer*> data_servers_;
  std::vector<SiteNetInfo> site_info_;  // site order; same size as servers
  std::uint32_t num_groups_ = 1;
  Rng rng_;

  // Hot-set key; HotOrder sorts hottest first, ties toward the lowest id.
  struct HotKey {
    std::uint32_t count = 0;
    FileId file;
  };
  struct HotOrder {
    bool operator()(const HotKey& a, const HotKey& b) const {
      if (a.count != b.count) return a.count > b.count;
      return a.file < b.file;
    }
  };

  // Demand fetches per file (FileId-indexed).
  std::vector<std::uint32_t> popularity_;
  // Per-MAN-group demand counts, tracked only for the hierarchical
  // placement (file * num_groups_ + group -> fetches; empty otherwise).
  std::vector<std::uint32_t> group_demand_;
  // Files already pushed (or being pushed) this job; one proactive
  // replica per file keeps the mechanism bounded, as in the original
  // scheme's per-popularity-event replication.
  std::vector<bool> replicated_;
  // Eligible files: popularity_ >= threshold and not replicated_.
  std::set<HotKey, HotOrder> hot_;
  // Id-ordered so stop() cancels in a deterministic sequence.
  std::set<FlowId> in_flight_;
  obs::PhaseProfiler* profiler_ = nullptr;
  EventId next_scan_;
  bool stopped_ = false;
  Stats stats_;
};

}  // namespace wcs::replication
