// Tests for storage::DataServer: serial batch service, queue/transfer
// accounting (Table 3's two columns), cancellation, pin handover.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "storage/data_server.h"
#include "uniform_block_map.h"

namespace wcs::storage {
namespace {

// One site (data server) connected to the file server by a 1 MB/s,
// zero-latency link; all files 1 MB, so each miss costs exactly 1 s.
struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  NodeId fs, ds_node;
  BlockMap blocks = uniform_block_map(100, megabytes(1));
  std::unique_ptr<net::FlowManager> flows;
  std::unique_ptr<DataServer> ds;

  explicit Fixture(std::size_t capacity = 50,
                   EvictionPolicy policy = EvictionPolicy::kLru) {
    fs = topo.add_node("fs");
    ds_node = topo.add_node("ds");
    topo.add_link(fs, ds_node, 1e6, 0.0);
    flows = std::make_unique<net::FlowManager>(sim, topo);
    ds = std::make_unique<DataServer>(SiteId(0), sim, *flows, ds_node, fs,
                                      blocks, capacity, policy);
  }

  static std::vector<FileId> files(std::initializer_list<unsigned> ids) {
    std::vector<FileId> out;
    for (unsigned i : ids) out.push_back(FileId(i));
    return out;
  }
};

TEST(DataServer, ColdBatchFetchesEverything) {
  Fixture f;
  auto batch = Fixture::files({1, 2, 3});
  double done_at = -1;
  f.ds->request_batch(TaskId(0), WorkerId(0), batch,
                      [&] { done_at = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(done_at, 3.0, 1e-9);  // 3 sequential 1 MB fetches at 1 MB/s
  EXPECT_EQ(f.ds->stats().file_transfers, 3u);
  EXPECT_EQ(f.ds->stats().cache_hits, 0u);
  EXPECT_EQ(f.ds->stats().batches_served, 1u);
  EXPECT_NEAR(f.ds->stats().bytes_transferred, 3e6, 1);
  for (unsigned i : {1u, 2u, 3u}) EXPECT_TRUE(f.ds->cache().contains(FileId(i)));
}

TEST(DataServer, WarmFilesAreHitsNotTransfers) {
  Fixture f;
  double t1 = -1;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}),
                      [&] { t1 = f.sim.now(); });
  f.sim.run();
  f.ds->release(TaskId(0), WorkerId(0));
  double t2 = -1;
  f.ds->request_batch(TaskId(1), WorkerId(0), Fixture::files({1, 2, 3}),
                      [&] { t2 = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 3.0, 1e-9);  // only file 3 transfers
  EXPECT_EQ(f.ds->stats().file_transfers, 3u);
  EXPECT_EQ(f.ds->stats().cache_hits, 2u);
}

TEST(DataServer, ServesBatchesOneAtATime) {
  Fixture f;
  std::vector<double> done;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}),
                      [&] { done.push_back(f.sim.now()); });
  f.ds->request_batch(TaskId(1), WorkerId(1), Fixture::files({3, 4}),
                      [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  // Serial service: batch 2 waits for batch 1 (paper Sec. 2.2 item 3).
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(DataServer, WaitingTimeMeasuresQueueDelay) {
  Fixture f;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}), [] {});
  f.ds->request_batch(TaskId(1), WorkerId(1), Fixture::files({3}), [] {});
  f.sim.run();
  // Batch 0 waits 0 s; batch 1 waits the 2 s service of batch 0.
  EXPECT_NEAR(f.ds->stats().waiting_s, 2.0, 1e-9);
  EXPECT_NEAR(f.ds->stats().transfer_s, 3.0, 1e-9);
}

TEST(DataServer, SecondBatchBenefitsFromFirstBatchFiles) {
  Fixture f;
  std::vector<double> done;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}),
                      [&] { done.push_back(f.sim.now()); });
  f.ds->request_batch(TaskId(1), WorkerId(1), Fixture::files({1, 2, 3}),
                      [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  EXPECT_NEAR(done[1], 3.0, 1e-9);  // files 1,2 already resident
  EXPECT_EQ(f.ds->stats().file_transfers, 3u);
  EXPECT_EQ(f.ds->stats().cache_hits, 2u);
}

TEST(DataServer, BatchFilesArePinnedUntilRelease) {
  Fixture f(3);  // tiny cache
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2, 3}), [] {});
  f.sim.run();
  for (unsigned i : {1u, 2u, 3u}) EXPECT_TRUE(f.ds->cache().pinned(FileId(i)));
  f.ds->release(TaskId(0), WorkerId(0));
  for (unsigned i : {1u, 2u, 3u}) EXPECT_FALSE(f.ds->cache().pinned(FileId(i)));
}

TEST(DataServer, ReleaseUnknownBatchThrows) {
  Fixture f;
  EXPECT_THROW(f.ds->release(TaskId(9), WorkerId(9)), std::logic_error);
}

TEST(DataServer, RefCountsIncrementOncePerBatch) {
  Fixture f;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1}), [] {});
  f.sim.run();
  f.ds->release(TaskId(0), WorkerId(0));
  f.ds->request_batch(TaskId(1), WorkerId(0), Fixture::files({1}), [] {});
  f.sim.run();
  EXPECT_EQ(f.ds->cache().ref_count(FileId(1)), 2u);
}

TEST(DataServer, EvictionUnderCapacityPressure) {
  Fixture f(4);
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2, 3}), [] {});
  f.sim.run();
  f.ds->release(TaskId(0), WorkerId(0));
  f.ds->request_batch(TaskId(1), WorkerId(0), Fixture::files({4, 5, 6}), [] {});
  f.sim.run();
  EXPECT_EQ(f.ds->cache().size(), 4u);
  EXPECT_GT(f.ds->cache().evictions(), 0u);
  // Re-requesting evicted files costs transfers again.
  f.ds->release(TaskId(1), WorkerId(0));
  auto before = f.ds->stats().file_transfers;
  f.ds->request_batch(TaskId(2), WorkerId(0), Fixture::files({1, 2}), [] {});
  f.sim.run();
  EXPECT_GT(f.ds->stats().file_transfers, before);
}

TEST(DataServer, OversizedBatchRejected) {
  Fixture f(2);
  EXPECT_THROW(
      f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2, 3}),
                          [] {}),
      std::logic_error);
}

TEST(DataServer, CancelQueuedBatch) {
  Fixture f;
  bool fired = false;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}), [] {});
  f.ds->request_batch(TaskId(1), WorkerId(1), Fixture::files({3}),
                      [&] { fired = true; });
  EXPECT_TRUE(f.ds->cancel_batch(TaskId(1), WorkerId(1)));
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.ds->stats().batches_cancelled, 1u);
  EXPECT_EQ(f.ds->stats().batches_served, 1u);
}

TEST(DataServer, CancelInServiceBatchAbortsFlowAndServesNext) {
  Fixture f;
  bool first_fired = false;
  double second_done = -1;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2, 3}),
                      [&] { first_fired = true; });
  f.ds->request_batch(TaskId(1), WorkerId(1), Fixture::files({4}),
                      [&] { second_done = f.sim.now(); });
  // Cancel mid-fetch of the first batch (at t=1.5 file 2 is in flight).
  f.sim.schedule_in(1.5, [&] {
    EXPECT_TRUE(f.ds->cancel_batch(TaskId(0), WorkerId(0)));
  });
  f.sim.run();
  EXPECT_FALSE(first_fired);
  // File 1 landed before the cancel and stays cached (bytes not wasted)...
  EXPECT_TRUE(f.ds->cache().contains(FileId(1)));
  // ...and unpinned.
  EXPECT_FALSE(f.ds->cache().pinned(FileId(1)));
  // The aborted file 2 never landed.
  EXPECT_FALSE(f.ds->cache().contains(FileId(2)));
  // Batch 2 starts right at the cancel: 1.5 + 1.0.
  EXPECT_NEAR(second_done, 2.5, 1e-9);
}

TEST(DataServer, CancelUnknownBatchReturnsFalse) {
  Fixture f;
  EXPECT_FALSE(f.ds->cancel_batch(TaskId(3), WorkerId(3)));
}

TEST(DataServer, EmptyBatchRejected) {
  Fixture f;
  std::vector<FileId> none;
  EXPECT_THROW(f.ds->request_batch(TaskId(0), WorkerId(0), none, [] {}),
               std::logic_error);
}

TEST(DataServer, ManyQueuedBatchesKeepFifoOrder) {
  Fixture f;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    f.ds->request_batch(TaskId(i), WorkerId(i),
                        Fixture::files({static_cast<unsigned>(10 + i)}),
                        [&order, i] { order.push_back(i); });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DataServer, ConcurrentExternalInsertOfInFlightFileIsTolerated) {
  // Regression: a proactive replica (or any external writer) lands the
  // same file while the demand fetch is mid-flight. The arrival must not
  // double-insert; the file stays cached and pinned for the batch.
  Fixture f;
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1}), [] {});
  f.sim.schedule_in(0.5, [&] {
    // Mid-transfer: the file appears via another path.
    f.ds->cache().insert(FileId(1));
  });
  f.sim.run();
  EXPECT_TRUE(f.ds->cache().contains(FileId(1)));
  EXPECT_TRUE(f.ds->cache().pinned(FileId(1)));
  EXPECT_EQ(f.ds->stats().file_transfers, 1u);  // bytes still moved
  f.ds->release(TaskId(0), WorkerId(0));
}

TEST(DataServer, TransferListenerFiresPerFetch) {
  Fixture f;
  std::vector<FileId> fetched;
  f.ds->set_transfer_listener([&](FileId file) { fetched.push_back(file); });
  f.ds->request_batch(TaskId(0), WorkerId(0), Fixture::files({1, 2}), [] {});
  f.sim.run();
  f.ds->release(TaskId(0), WorkerId(0));
  EXPECT_EQ(fetched, (std::vector<FileId>{FileId(1), FileId(2)}));
  // Cache hits do not fire the listener.
  f.ds->request_batch(TaskId(1), WorkerId(0), Fixture::files({1}), [] {});
  f.sim.run();
  EXPECT_EQ(fetched.size(), 2u);
}

TEST(DataServer, TransfersGoThroughSharedUplinkTopology) {
  // Data server behind an uplink: fs -- uplink -- gw -- lan -- ds.
  sim::Simulator sim;
  net::Topology topo;
  NodeId fs = topo.add_node("fs");
  NodeId gw = topo.add_node("gw");
  NodeId dsn = topo.add_node("ds");
  topo.add_link(fs, gw, 2e6, 0.0);
  LinkId uplink = topo.add_link(gw, dsn, 1e6, 0.0);
  const BlockMap blocks = uniform_block_map(10, megabytes(1));
  net::FlowManager flows(sim, topo);
  DataServer ds(SiteId(0), sim, flows, dsn, fs, blocks, 10,
                EvictionPolicy::kLru);
  double done = -1;
  std::vector<FileId> batch{FileId(0), FileId(1)};
  ds.request_batch(TaskId(0), WorkerId(0), batch, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 2.0, 1e-9);  // bottleneck 1 MB/s
  EXPECT_NEAR(flows.link_bytes(uplink), 2e6, 1);
}

}  // namespace
}  // namespace wcs::storage
