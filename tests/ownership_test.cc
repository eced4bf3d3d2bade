// Ownership validation and transfer (paper §5.3): virtual partitions,
// worker-local validation, checkpoint-boundary transfers, key migration,
// and transparent client re-routing.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>
#include "common/sync.h"

#include "common/clock.h"
#include "harness/cluster.h"

namespace dpr {
namespace {

ClusterOptions Opts() {
  ClusterOptions options;
  options.num_workers = 2;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 20000;
  options.finder_interval_us = 5000;
  return options;
}

uint32_t PartitionOnWorker(WorkerId worker, uint32_t num_workers) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    if (YcsbWorkload::DefaultOwner(vp, num_workers) == worker) return vp;
  }
  ADD_FAILURE() << "no partition on worker " << worker;
  return 0;
}

uint64_t KeyInPartition(uint32_t partition) {
  uint64_t key = 0;
  while (YcsbWorkload::PartitionOf(key) != partition) key++;
  return key;
}

TEST(OwnershipTest, WorkersValidateAgainstLocalView) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(0, 2);
  const uint64_t key = KeyInPartition(vp);
  EXPECT_TRUE(cluster.worker(0)->OwnsPartition(vp));
  EXPECT_FALSE(cluster.worker(1)->OwnsPartition(vp));

  // An op sent to the wrong worker is rejected per-op with kNotOwner.
  KvBatchRequest req;
  req.ops.push_back(KvOp{KvOp::Type::kUpsert, key, 1});
  KvBatchResponse resp;
  cluster.worker(1)->ExecuteBatch(req, &resp);
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].result, KvResult::kNotOwner);
}

TEST(OwnershipTest, TransferMigratesDataAndOwnership) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(0, 2);
  auto client = cluster.NewClient(4, 32);
  auto session = client->NewSession(1);
  // Write several keys of the partition.
  std::map<uint64_t, uint64_t> expected;
  uint64_t key = 0;
  while (expected.size() < 10) {
    if (YcsbWorkload::PartitionOf(key) == vp) {
      session->Upsert(key, key + 7);
      expected[key] = key + 7;
    }
    ++key;
  }
  ASSERT_TRUE(session->WaitForAll().ok());

  ASSERT_TRUE(cluster.MigratePartition(vp, 1).ok());
  EXPECT_EQ(cluster.OwnerOf(vp), 1u);
  EXPECT_FALSE(cluster.worker(0)->OwnsPartition(vp));
  EXPECT_TRUE(cluster.worker(1)->OwnsPartition(vp));

  // The data followed the partition; the client re-routes transparently.
  std::map<uint64_t, uint64_t> observed;
  Mutex mu;
  for (const auto& [k, v] : expected) {
    (void)v;
    session->Read(k, [&, k = k](KvResult r, uint64_t value) {
      MutexLock guard(mu);
      if (r == KvResult::kOk) observed[k] = value;
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(observed, expected);
}

TEST(OwnershipTest, TransferBackAndForth) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(0, 2);
  const uint64_t key = KeyInPartition(vp);
  auto client = cluster.NewClient(1, 8);
  auto session = client->NewSession(1);
  session->Upsert(key, 1);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_TRUE(cluster.MigratePartition(vp, 1).ok());
  session->Upsert(key, 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_TRUE(cluster.MigratePartition(vp, 0).ok());
  std::atomic<uint64_t> value{0};
  session->Read(key, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) value.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(value.load(), 2u);  // write at interim owner survived the moves
}

TEST(OwnershipTest, WritesDuringTransferAreNotLost) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(0, 2);
  const uint64_t key = KeyInPartition(vp);
  auto client = cluster.NewClient(1, 8);
  auto session = client->NewSession(1);
  session->Upsert(key, 1);
  ASSERT_TRUE(session->WaitForAll().ok());

  // Writer keeps updating while the transfer happens; every op must land
  // (possibly after re-route retries) and the last value must win.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> last_written{1};
  std::thread writer([&] {
    auto wclient = cluster.NewClient(1, 4);
    auto wsession = wclient->NewSession(2);
    for (uint64_t i = 2; !stop.load(); ++i) {
      std::atomic<bool> ok{false};
      wsession->Upsert(key, i, [&](KvResult r, uint64_t) {
        if (r == KvResult::kOk) ok.store(true);
      });
      (void)wsession->WaitForAll();
      if (ok.load()) last_written.store(i);
      SleepMicros(500);
    }
  });
  SleepMicros(5000);
  ASSERT_TRUE(cluster.MigratePartition(vp, 1).ok());
  SleepMicros(5000);
  stop.store(true);
  writer.join();

  std::atomic<uint64_t> value{0};
  session->Read(key, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) value.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  // The final read must see a value at least as new as the last
  // acknowledged write that happened strictly after the transfer.
  EXPECT_GE(value.load(), last_written.load());
}

// Upserts every key of `keys` (one full batch) and checks that every
// callback fired exactly once, with kOk.
void UpsertMixedBatch(DFasterClient::Session* session,
                      const std::vector<uint64_t>& keys, uint64_t round) {
  std::vector<std::atomic<int>> fired(keys.size());
  std::vector<std::atomic<int>> not_ok(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    session->Upsert(keys[i], round * 1000 + i,
                    [&fired, &not_ok, i](KvResult r, uint64_t) {
                      fired[i].fetch_add(1);
                      if (r != KvResult::kOk) not_ok[i].fetch_add(1);
                    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "round " << round << " op " << i;
    EXPECT_EQ(not_ok[i].load(), 0) << "round " << round << " op " << i;
  }
}

// A full batch mixes a partition that migrates with one that stays put. The
// migrating half comes back kNotOwner and is re-routed out of the batch the
// client completes in place; the stable half completes with it.
void MixedBatchAcrossMigration(bool colocated) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t moving = PartitionOnWorker(0, 2);
  uint32_t stable = moving + 1;
  while (YcsbWorkload::DefaultOwner(stable, 2) != 0) ++stable;
  std::vector<uint64_t> keys;
  uint64_t next[2] = {0, 0};
  for (size_t i = 0; i < 64; ++i) {
    const uint32_t vp = i % 2 == 0 ? moving : stable;
    uint64_t& k = next[i % 2];
    while (YcsbWorkload::PartitionOf(k) != vp) ++k;
    keys.push_back(k++);
  }
  auto client = colocated ? cluster.NewColocatedClient(0, 64, 256)
                          : cluster.NewClient(64, 256);
  auto session = client->NewSession(1);
  uint64_t round = 0;
  UpsertMixedBatch(session.get(), keys, ++round);

  // The client's routing table is now stale: the whole batch goes to
  // worker 0, which owns only the stable half.
  ASSERT_TRUE(cluster.MigratePartition(moving, 1).ok());
  UpsertMixedBatch(session.get(), keys, ++round);
  EXPECT_EQ(client->RouteOf(keys[0]), 1u);

  // Batches keep flowing while the partition moves back.
  std::atomic<bool> moved{false};
  std::thread mover([&] {
    EXPECT_TRUE(cluster.MigratePartition(moving, 0).ok());
    moved.store(true);
  });
  while (!moved.load()) UpsertMixedBatch(session.get(), keys, ++round);
  mover.join();
  UpsertMixedBatch(session.get(), keys, ++round);

  // Every re-routed write landed: a fresh client reads the last round.
  auto reader = cluster.NewClient(64, 256);
  auto rsession = reader->NewSession(2);
  std::vector<std::atomic<uint64_t>> seen(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    rsession->Read(keys[i], [&seen, i](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) seen[i].store(v);
    });
  }
  ASSERT_TRUE(rsession->WaitForAll().ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(seen[i].load(), round * 1000 + i) << "key " << keys[i];
  }
}

TEST(OwnershipTest, MixedBatchReroutesMigratingKeysExactlyOnce) {
  MixedBatchAcrossMigration(/*colocated=*/false);
}

TEST(OwnershipTest, ColocatedMixedBatchReroutesMigratingKeysExactlyOnce) {
  MixedBatchAcrossMigration(/*colocated=*/true);
}

TEST(OwnershipTest, CommitsContinueAfterTransfer) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(0, 2);
  ASSERT_TRUE(cluster.MigratePartition(vp, 1).ok());
  auto client = cluster.NewClient(4, 32);
  auto session = client->NewSession(1);
  const uint64_t key = KeyInPartition(vp);
  for (int i = 0; i < 20; ++i) session->Upsert(key, i);
  EXPECT_TRUE(session->WaitForCommit(20000).ok());
}

}  // namespace
}  // namespace dpr

namespace dpr {
namespace {

TEST(MembershipTest, ScaleOutThenDrainAndRemove) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());

  // Seed some data across the original two workers.
  {
    auto client = cluster.NewClient(8, 64);
    auto session = client->NewSession(1);
    for (uint64_t k = 0; k < 200; ++k) session->Upsert(k, k + 1);
    ASSERT_TRUE(session->WaitForAll().ok());
  }

  // Scale out: add an empty worker and move every partition of worker 0
  // onto it.
  WorkerId new_id = kInvalidWorker;
  ASSERT_TRUE(cluster.AddWorker(&new_id).ok());
  EXPECT_EQ(new_id, 2u);
  EXPECT_EQ(cluster.worker(new_id)->OwnedPartitionCount(), 0u);
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    if (cluster.OwnerOf(vp) == 0) {
      ASSERT_TRUE(cluster.MigratePartition(vp, new_id).ok());
    }
  }
  EXPECT_EQ(cluster.worker(0)->OwnedPartitionCount(), 0u);
  EXPECT_GT(cluster.worker(new_id)->OwnedPartitionCount(), 0u);

  // A fresh client reads everything back through the new topology and gets
  // commits that include the new worker.
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(2);
  std::atomic<uint64_t> sum{0};
  for (uint64_t k = 0; k < 200; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) sum.fetch_add(v);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(sum.load(), 200u * 201 / 2);
  for (uint64_t k = 0; k < 50; ++k) session->Upsert(k, k);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());

  // The drained worker is now empty and can leave the cluster.
  ASSERT_TRUE(cluster.DecommissionWorker(0).ok());
  // DPR progress continues without it.
  for (uint64_t k = 0; k < 50; ++k) session->Upsert(k, k * 2);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

}  // namespace
}  // namespace dpr
