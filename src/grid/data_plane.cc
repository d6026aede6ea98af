#include "grid/data_plane.h"

namespace wcs::grid {

DataPlane::DataPlane(const GridConfig& config, const workload::Job& job,
                     const net::GridTopology& topo, sim::Simulator& sim,
                     std::vector<double> bandwidth_estimate_error)
    : topo_(topo),
      bandwidth_estimate_error_(std::move(bandwidth_estimate_error)) {
  flows_ = std::make_unique<net::FlowManager>(sim, topo_.topology);
  block_map_ =
      std::make_unique<storage::BlockMap>(job.catalog, *config.block_store);

  const auto num_sites = static_cast<std::size_t>(config.tiers.num_sites);
  servers_.reserve(num_sites);
  for (std::size_t s = 0; s < num_sites; ++s) {
    servers_.push_back(std::make_unique<storage::DataServer>(
        SiteId(static_cast<SiteId::underlying_type>(s)), sim, *flows_,
        topo_.data_server_nodes[s], topo_.file_server_node, *block_map_,
        config.capacity_files, config.eviction));
  }

  if (config.replication) {
    std::vector<storage::DataServer*> servers;
    servers.reserve(servers_.size());
    for (const auto& ds : servers_) servers.push_back(ds.get());
    // Network facts for the hierarchy-aware placements, in site order.
    std::vector<replication::SiteNetInfo> site_info;
    site_info.reserve(num_sites);
    const auto sites_per_man =
        static_cast<std::size_t>(config.tiers.sites_per_man);
    for (std::size_t s = 0; s < num_sites; ++s) {
      const net::Link& up = topo_.topology.link(topo_.site_uplinks[s]);
      replication::SiteNetInfo info;
      info.man_group = static_cast<std::uint32_t>(s / sites_per_man);
      info.uplink_bandwidth_bps = up.bandwidth_bps;
      info.uplink_latency_s = up.latency_s;
      site_info.push_back(info);
    }
    replicator_ = std::make_unique<replication::DataReplicator>(
        *config.replication, sim, *flows_, topo_.file_server_node,
        std::move(servers), job.catalog.num_files(), std::move(site_info));
    for (std::size_t s = 0; s < num_sites; ++s)
      servers_[s]->set_transfer_listener([this, s](FileId f) {
        replicator_->on_file_fetched(
            f, SiteId(static_cast<SiteId::underlying_type>(s)));
      });
  }
}

void DataPlane::request_batch(SiteId site, TaskId task, WorkerId worker,
                              std::span<const FileId> files,
                              storage::BatchCallback ready) {
  servers_[site.value()]->request_batch(task, worker, files,
                                        std::move(ready));
}

bool DataPlane::cancel_batch(SiteId site, TaskId task, WorkerId worker) {
  return servers_[site.value()]->cancel_batch(task, worker);
}

void DataPlane::release(SiteId site, TaskId task, WorkerId worker) {
  servers_[site.value()]->release(task, worker);
}

const storage::FileCache& DataPlane::site_cache(SiteId site) const {
  return servers_.at(site.value())->cache();
}

void DataPlane::set_cache_listener(SiteId site,
                                   storage::CacheListener listener) {
  servers_.at(site.value())->cache().set_listener(std::move(listener));
}

double DataPlane::estimated_uplink_bandwidth(SiteId site) const {
  double exact =
      topo_.topology.link(topo_.site_uplinks[site.value()]).bandwidth_bps;
  if (bandwidth_estimate_error_.empty()) return exact;
  return exact * bandwidth_estimate_error_[site.value()];
}

std::size_t DataPlane::backlog(SiteId site) const {
  const storage::DataServer& ds = *servers_[site.value()];
  return ds.queue_length() + (ds.busy() ? 1 : 0);
}

const storage::DataServer& DataPlane::server(SiteId site) const {
  return *servers_.at(site.value());
}

void DataPlane::start_replication() {
  if (replicator_) replicator_->start();
}

void DataPlane::stop_replication() {
  if (replicator_) replicator_->stop();
}

void DataPlane::set_observability(obs::Observability* obs,
                                  sim::Simulator& sim) {
  flows_->set_observability(obs);
  if (replicator_) replicator_->set_profiler(obs ? obs->profiler() : nullptr);
  if (obs == nullptr) return;
  for (const auto& ds : servers_)
    ds->cache().set_obs(obs->profiler(), obs->tracer(),
                        [&sim] { return sim.now(); }, ds->site().value());
}

std::vector<metrics::SiteResult> DataPlane::site_results() const {
  std::vector<metrics::SiteResult> out;
  out.reserve(servers_.size());
  for (const auto& ds : servers_) {
    const storage::DataServer::Stats& s = ds->stats();
    metrics::SiteResult site;
    site.batches_served = s.batches_served;
    site.batches_cancelled = s.batches_cancelled;
    site.waiting_s = s.waiting_s;
    site.transfer_s = s.transfer_s;
    site.file_transfers = s.file_transfers;
    site.bytes_transferred = s.bytes_transferred;
    site.bytes_saved = s.bytes_saved;
    site.cache_hits = s.cache_hits;
    site.evictions = ds->cache().evictions();
    out.push_back(site);
  }
  return out;
}

}  // namespace wcs::grid
