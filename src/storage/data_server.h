// Per-site data server.
//
// Implements assumptions 2–5 of the paper's system model (Sec. 2.2):
// one data server per site; it receives batch file requests from the
// site's workers and serves them ONE AT A TIME (serial service "is more
// efficient than simultaneous requests, given the bandwidth limits");
// missing files are fetched sequentially from the external file server
// over the site's shared uplink; a worker may start executing only when
// every file of its task is resident.
//
// The server records, per batch, the queue waiting time and the transfer
// (service) time — the two columns of the paper's Table 3 — plus transfer
// counts and bytes (Figure 5).
//
// Batch objects are recycled through a free pool (their file/pin vectors
// keep their capacity), and the pins of executing tasks stay inside the
// batch object, indexed by worker id in a flat table — the steady-state
// request/serve/release cycle performs no heap allocation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/flow_manager.h"
#include "sim/simulator.h"
#include "storage/file_cache.h"

namespace wcs::storage {

// Fires once every file of the batch is resident and pinned.
using BatchCallback = std::function<void()>;

class DataServer {
 public:
  struct Stats {
    std::uint64_t batches_served = 0;
    std::uint64_t batches_cancelled = 0;
    double waiting_s = 0;    // total time batches spent queued
    double transfer_s = 0;   // total time spent servicing batches
    std::uint64_t file_transfers = 0;  // fetches from the file server
    double bytes_transferred = 0;
    std::uint64_t cache_hits = 0;      // files already resident at service
    // Bytes a demand fetch did NOT move because blocks shared with
    // resident files were already on site (0 at content overlap 0).
    double bytes_saved = 0;
  };

  // `blocks` is the catalog's block layout; it must outlive the server.
  DataServer(SiteId site, sim::Simulator& simulator, net::FlowManager& flows,
             NodeId self_node, NodeId file_server_node, const BlockMap& blocks,
             std::size_t capacity_files, EvictionPolicy policy)
      : site_(site),
        sim_(simulator),
        flows_(flows),
        node_(self_node),
        file_server_node_(file_server_node),
        cache_(blocks, capacity_files, policy) {}

  DataServer(const DataServer&) = delete;
  DataServer& operator=(const DataServer&) = delete;

  ~DataServer();

  // Enqueue a batch request for all of `files` on behalf of (task, worker).
  // `done` fires when every file is resident and pinned for this batch.
  void request_batch(TaskId task, WorkerId worker,
                     std::span<const FileId> files, BatchCallback done);

  // Abort a queued or in-service batch (replica cancellation). Returns
  // false if no such batch is queued or in service (e.g. it already
  // completed — use release() for that). Files already fetched stay
  // cached; pins taken by the batch are dropped.
  bool cancel_batch(TaskId task, WorkerId worker);

  // Unpin the files of a completed batch after its task finished
  // executing.
  void release(TaskId task, WorkerId worker);

  // Observer of demand fetches (fires once per file transferred from the
  // file server, after the file is cached). Used by the proactive
  // replication subsystem to track global popularity.
  using TransferListener = std::function<void(FileId)>;
  void set_transfer_listener(TransferListener listener) {
    transfer_listener_ = std::move(listener);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const FileCache& cache() const { return cache_; }
  [[nodiscard]] FileCache& cache() { return cache_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return current_ != nullptr; }

  // Batch-pool accounting (audit/bench hook).
  [[nodiscard]] std::size_t pooled_batches() const { return pool_.size(); }

  // Batch-ledger soundness for the memory-layout audit checker: no batch
  // object may sit in two ledgers at once (queue / current / executing /
  // pool), and an executing batch must occupy the slot of its own worker.
  [[nodiscard]] std::vector<std::string> memory_defects() const;

 private:
  struct Batch {
    TaskId task;
    WorkerId worker;
    std::vector<FileId> files;
    BatchCallback done;
    SimTime enqueued = 0;
    SimTime service_start = 0;
    std::size_t next_index = 0;      // next file to ensure resident
    std::vector<FileId> pinned;      // pins taken so far
    FlowId in_flight = FlowId::invalid();
    double in_flight_bytes = 0;      // payload of the in-flight fetch
    double in_flight_saved = 0;      // dedup saving of that fetch
    Batch* next_exec = nullptr;      // executing-ledger chain
  };

  Batch* alloc_batch();
  void free_batch(Batch* b);

  void serve_next();
  void continue_batch();
  void on_file_arrived(FileId file);
  void drop_pins(const std::vector<FileId>& pins);

  SiteId site_;
  sim::Simulator& sim_;
  net::FlowManager& flows_;
  NodeId node_;
  NodeId file_server_node_;
  FileCache cache_;
  std::deque<Batch*> queue_;
  Batch* current_ = nullptr;
  // Completed batches stay alive (holding their pins) in a per-worker
  // table until release(); recycled batches wait in pool_. Each slot
  // chains through Batch::next_exec — a worker normally holds one
  // executing batch, but the API permits several (task, worker) batches
  // at once.
  std::vector<Batch*> executing_by_worker_;  // indexed by WorkerId
  std::vector<Batch*> pool_;
  TransferListener transfer_listener_;
  Stats stats_;
};

}  // namespace wcs::storage
