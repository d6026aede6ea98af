// Data plane: everything a site's storage stack does for the engine.
//
// Owns the flow-level network, the per-site serial data servers, and the
// optional proactive replicator; serves batch file requests, manages
// cache pin/release, and answers the storage-side GridEngine queries
// (backlogs, cache views, uplink-bandwidth estimates). It knows nothing
// about workers, the scheduler, or churn — the control plane calls in
// with (site, task, worker) triples and a completion callback.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.h"
#include "grid/config.h"
#include "metrics/results.h"
#include "net/flow_manager.h"
#include "net/tiers.h"
#include "obs/observability.h"
#include "replication/data_replicator.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "storage/data_server.h"

namespace wcs::grid {

class DataPlane {
 public:
  // `topo`, `job`, and `sim` must outlive the plane.
  // `bandwidth_estimate_error` is the per-site multiplicative error of
  // the uplink-bandwidth estimates served to dynamic-information
  // baselines; empty means exact (see GridConfig::estimate_error).
  DataPlane(const GridConfig& config, const workload::Job& job,
            const net::GridTopology& topo, sim::Simulator& sim,
            std::vector<double> bandwidth_estimate_error);

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  // --- Batch service (control plane -> site data server) ---------------
  void request_batch(SiteId site, TaskId task, WorkerId worker,
                     std::span<const FileId> files,
                     storage::BatchCallback ready);
  [[nodiscard]] bool cancel_batch(SiteId site, TaskId task, WorkerId worker);
  void release(SiteId site, TaskId task, WorkerId worker);

  // --- Engine queries ---------------------------------------------------
  [[nodiscard]] std::size_t num_sites() const { return servers_.size(); }
  [[nodiscard]] const storage::FileCache& site_cache(SiteId site) const;
  void set_cache_listener(SiteId site, storage::CacheListener listener);
  [[nodiscard]] double estimated_uplink_bandwidth(SiteId site) const;
  [[nodiscard]] std::size_t backlog(SiteId site) const;

  // --- Introspection / composition-root wiring --------------------------
  [[nodiscard]] const storage::DataServer& server(SiteId site) const;
  [[nodiscard]] net::FlowManager& flows() { return *flows_; }
  [[nodiscard]] const net::FlowManager& flows() const { return *flows_; }
  [[nodiscard]] replication::DataReplicator* replicator() {
    return replicator_.get();
  }
  [[nodiscard]] const replication::DataReplicator* replicator() const {
    return replicator_.get();
  }

  // Start/stop the optional proactive replicator (no-ops when disabled).
  void start_replication();
  void stop_replication();

  // Attach observability to the flow manager and every site cache
  // (nullptr detaches the flow side).
  void set_observability(obs::Observability* obs, sim::Simulator& sim);

  // Per-site end-of-run accounting, in site order.
  [[nodiscard]] std::vector<metrics::SiteResult> site_results() const;

 private:
  const net::GridTopology& topo_;
  std::unique_ptr<net::FlowManager> flows_;
  // One immutable block layout, shared read-only by every site cache.
  std::unique_ptr<storage::BlockMap> block_map_;
  std::vector<std::unique_ptr<storage::DataServer>> servers_;
  std::unique_ptr<replication::DataReplicator> replicator_;
  std::vector<double> bandwidth_estimate_error_;  // per site; empty if exact
};

}  // namespace wcs::grid
