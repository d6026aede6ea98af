#include "storage/data_server.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace wcs::storage {

DataServer::~DataServer() {
  if (current_ != nullptr) delete current_;
  for (Batch* b : queue_) delete b;
  for (Batch* b : pool_) delete b;
  for (Batch* head : executing_by_worker_) {
    while (head != nullptr) {
      Batch* next = head->next_exec;
      delete head;
      head = next;
    }
  }
}

DataServer::Batch* DataServer::alloc_batch() {
  if (!pool_.empty()) {
    Batch* b = pool_.back();
    pool_.pop_back();
    return b;
  }
  return new Batch();
}

void DataServer::free_batch(Batch* b) {
  // Recycle: clear the payload but keep the vectors' capacity, so the
  // steady-state request/serve/release cycle stops allocating.
  b->files.clear();
  b->pinned.clear();
  b->done = nullptr;
  b->next_index = 0;
  b->in_flight = FlowId::invalid();
  b->in_flight_bytes = 0;
  b->in_flight_saved = 0;
  b->next_exec = nullptr;
  pool_.push_back(b);
}

void DataServer::request_batch(TaskId task, WorkerId worker,
                               std::span<const FileId> files,
                               BatchCallback done) {
  WCS_CHECK_MSG(!files.empty(), "empty batch for task " << task);
  WCS_CHECK_MSG(files.size() <= cache_.capacity(),
                "task " << task << " needs " << files.size()
                        << " files but the data server holds only "
                        << cache_.capacity());
  Batch* batch = alloc_batch();
  batch->task = task;
  batch->worker = worker;
  batch->files.assign(files.begin(), files.end());
  batch->done = std::move(done);
  batch->enqueued = sim_.now();
  batch->service_start = 0;
  queue_.push_back(batch);
  serve_next();
}

void DataServer::serve_next() {
  if (current_ != nullptr || queue_.empty()) return;
  current_ = queue_.front();
  queue_.pop_front();
  current_->service_start = sim_.now();
  stats_.waiting_s += sim_.now() - current_->enqueued;
  continue_batch();
}

void DataServer::continue_batch() {
  Batch& b = *current_;
  while (b.next_index < b.files.size()) {
    FileId f = b.files[b.next_index];
    if (cache_.contains(f)) {
      cache_.record_access(f);
      cache_.pin(f);
      b.pinned.push_back(f);
      ++b.next_index;
      ++stats_.cache_hits;
      continue;
    }
    // Miss: fetch from the external file server; the batch blocks until
    // the file lands (files within a batch are fetched sequentially, as
    // the serial data server implies). Only the blocks no resident file
    // already covers move over the wire — a fully covered extent still
    // flows (zero payload, path latency only), so service order does not
    // depend on how much content is shared.
    const Bytes want = cache_.missing_bytes(f);
    b.in_flight_saved = static_cast<double>(cache_.file_bytes(f) - want);
    b.in_flight_bytes = static_cast<double>(want);
    b.in_flight = flows_.start_flow(
        file_server_node_, node_, want,
        [this, f](FlowId) { on_file_arrived(f); });
    return;
  }

  // Batch complete: hand pins over to the executing-task ledger and
  // notify the worker.
  stats_.transfer_s += sim_.now() - b.service_start;
  ++stats_.batches_served;
  Batch* completed = current_;
  current_ = nullptr;
  BatchCallback done = std::move(completed->done);
  // The batch object itself is the ledger entry: it parks (with its
  // pins) in the per-worker chain until release().
  const std::size_t w = completed->worker.value();
  if (w >= executing_by_worker_.size())
    executing_by_worker_.resize(w + 1, nullptr);
  for (Batch* e = executing_by_worker_[w]; e != nullptr; e = e->next_exec)
    WCS_CHECK_MSG(e->task != completed->task,
                  "batch for task " << completed->task << " on worker "
                                    << completed->worker
                                    << " completed twice");
  completed->next_exec = executing_by_worker_[w];
  executing_by_worker_[w] = completed;
  if (done) done();
  serve_next();
}

void DataServer::on_file_arrived(FileId file) {
  WCS_CHECK(current_ != nullptr);
  Batch& b = *current_;
  WCS_CHECK_LT(b.next_index, b.files.size());
  WCS_CHECK_EQ(b.files[b.next_index], file);
  b.in_flight = FlowId::invalid();
  ++stats_.file_transfers;
  // Account what the flow actually carried (computed at fetch start, so
  // the ledger matches the flow manager byte for byte).
  stats_.bytes_transferred += b.in_flight_bytes;
  stats_.bytes_saved += b.in_flight_saved;
  b.in_flight_bytes = 0;
  b.in_flight_saved = 0;
  // A proactive replica may have landed the same file while our demand
  // fetch was in flight; the bytes still moved, but the insert is moot.
  if (!cache_.contains(file))
    cache_.insert(file);  // may evict unpinned residents
  cache_.record_access(file);
  cache_.pin(file);
  b.pinned.push_back(file);
  ++b.next_index;
  if (transfer_listener_) transfer_listener_(file);
  continue_batch();
}

void DataServer::drop_pins(const std::vector<FileId>& pins) {
  for (FileId f : pins) cache_.unpin(f);
}

bool DataServer::cancel_batch(TaskId task, WorkerId worker) {
  if (current_ != nullptr && current_->task == task &&
      current_->worker == worker) {
    if (current_->in_flight.valid()) flows_.cancel(current_->in_flight);
    drop_pins(current_->pinned);
    stats_.transfer_s += sim_.now() - current_->service_start;
    ++stats_.batches_cancelled;
    free_batch(current_);
    current_ = nullptr;
    serve_next();
    return true;
  }
  auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Batch* b) {
    return b->task == task && b->worker == worker;
  });
  if (it == queue_.end()) return false;
  free_batch(*it);
  queue_.erase(it);
  ++stats_.batches_cancelled;
  return true;
}

void DataServer::release(TaskId task, WorkerId worker) {
  const std::size_t w = worker.value();
  Batch** link =
      w < executing_by_worker_.size() ? &executing_by_worker_[w] : nullptr;
  while (link != nullptr && *link != nullptr && (*link)->task != task)
    link = &(*link)->next_exec;
  WCS_CHECK_MSG(link != nullptr && *link != nullptr,
                "release of unknown batch: task " << task << " worker "
                                                  << worker);
  Batch* b = *link;
  *link = b->next_exec;
  drop_pins(b->pinned);
  free_batch(b);
}

std::vector<std::string> DataServer::memory_defects() const {
  std::vector<std::string> defects;
  std::unordered_set<const Batch*> seen;
  auto claim = [&](const Batch* b, const char* where) {
    if (b == nullptr) return;
    if (!seen.insert(b).second) {
      std::ostringstream os;
      os << "batch object aliased into a second ledger (" << where << ")";
      defects.push_back(os.str());
    }
  };
  claim(current_, "current");
  for (const Batch* b : queue_) claim(b, "queue");
  for (const Batch* b : pool_) claim(b, "pool");
  for (std::size_t w = 0; w < executing_by_worker_.size(); ++w) {
    for (const Batch* b = executing_by_worker_[w]; b != nullptr;
         b = b->next_exec) {
      // claim() also breaks the walk on a chain cycle: the second visit
      // of an aliased batch is reported once and we stop.
      if (!seen.insert(b).second) {
        defects.push_back(
            "batch object aliased into a second ledger (executing)");
        break;
      }
      if (b->worker.value() != w) {
        std::ostringstream os;
        os << "executing batch of worker " << b->worker
           << " parked in slot " << w;
        defects.push_back(os.str());
      }
    }
  }
  return defects;
}

}  // namespace wcs::storage
