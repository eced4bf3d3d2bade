// Elastic cluster plane (DESIGN.md §4i): the membership state machine over
// durable metadata rows, live shard migration through the phased driver,
// client re-routing (including lazy endpoint resolution for workers that
// joined after the client), and cut monotonicity across moves.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cut_monitor.h"
#include "cluster/membership.h"
#include "common/clock.h"
#include "common/sync.h"
#include "harness/cluster.h"
#include "metadata/metadata_store.h"

namespace dpr {
namespace {

// ------------------------------------------------------- membership machine

TEST(ClusterMembershipTest, LegalTransitionTable) {
  using MS = MemberState;
  // From absent, the only edge is a join (the `from` operand is ignored).
  EXPECT_TRUE(ClusterMembership::LegalTransition(false, MS::kActive,
                                                 MS::kJoining));
  EXPECT_FALSE(ClusterMembership::LegalTransition(false, MS::kJoining,
                                                  MS::kActive));
  EXPECT_FALSE(ClusterMembership::LegalTransition(false, MS::kJoining,
                                                  MS::kRemoved));
  // Forward edges.
  EXPECT_TRUE(ClusterMembership::LegalTransition(true, MS::kJoining,
                                                 MS::kActive));
  EXPECT_TRUE(ClusterMembership::LegalTransition(true, MS::kJoining,
                                                 MS::kRemoved));  // aborted
  EXPECT_TRUE(ClusterMembership::LegalTransition(true, MS::kActive,
                                                 MS::kDraining));
  EXPECT_TRUE(ClusterMembership::LegalTransition(true, MS::kDraining,
                                                 MS::kRemoved));
  // No going backwards, no skipping the drain, no leaving the tombstone.
  EXPECT_FALSE(ClusterMembership::LegalTransition(true, MS::kActive,
                                                  MS::kRemoved));
  EXPECT_FALSE(ClusterMembership::LegalTransition(true, MS::kDraining,
                                                  MS::kActive));
  EXPECT_FALSE(ClusterMembership::LegalTransition(true, MS::kJoining,
                                                  MS::kDraining));
  EXPECT_FALSE(ClusterMembership::LegalTransition(true, MS::kRemoved,
                                                  MS::kJoining));
  EXPECT_FALSE(ClusterMembership::LegalTransition(true, MS::kRemoved,
                                                  MS::kActive));
}

TEST(ClusterMembershipTest, TransitionsAreDurableAcrossCrash) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  ClusterMembership membership(&metadata);

  ASSERT_TRUE(membership.Transition(0, MemberState::kJoining).ok());
  ASSERT_TRUE(membership.Transition(0, MemberState::kActive).ok());
  ASSERT_TRUE(membership.Transition(1, MemberState::kJoining).ok());
  ASSERT_TRUE(membership.Transition(2, MemberState::kJoining).ok());
  ASSERT_TRUE(membership.Transition(2, MemberState::kActive).ok());
  ASSERT_TRUE(membership.Transition(2, MemberState::kDraining).ok());
  ASSERT_TRUE(membership.Transition(2, MemberState::kRemoved).ok());

  // Illegal edges are rejected without touching the durable rows.
  EXPECT_EQ(membership.Transition(0, MemberState::kJoining).code(),
            Status::Code::kInvalidArgument);  // re-join an active member
  EXPECT_EQ(membership.Transition(2, MemberState::kJoining).code(),
            Status::Code::kInvalidArgument);  // revive a tombstone
  EXPECT_EQ(membership.Transition(1, MemberState::kDraining).code(),
            Status::Code::kInvalidArgument);  // drain a joiner

  metadata.SimulateCrash();

  MemberState st;
  ASSERT_TRUE(membership.StateOf(0, &st).ok());
  EXPECT_EQ(st, MemberState::kActive);
  ASSERT_TRUE(membership.StateOf(1, &st).ok());
  EXPECT_EQ(st, MemberState::kJoining);
  ASSERT_TRUE(membership.StateOf(2, &st).ok());
  EXPECT_EQ(st, MemberState::kRemoved);
  EXPECT_EQ(membership.StateOf(9, nullptr).code(), Status::Code::kNotFound);
  // The tombstone is still a wall after the crash.
  EXPECT_EQ(membership.Transition(2, MemberState::kActive).code(),
            Status::Code::kInvalidArgument);
  // Only worker 0 is active (1 is joining, 2 tombstoned).
  EXPECT_EQ(membership.ActiveMembers(), std::vector<WorkerId>{0});
}

// ----------------------------------------------------------- cut monotonicity

TEST(CutMonotonicityCheckerTest, AcceptsGrowthAndMembershipChurn) {
  CutMonotonicityChecker checker;
  EXPECT_TRUE(checker.Observe({{0, 1}, {1, 2}}).ok());
  EXPECT_TRUE(checker.Observe({{0, 3}, {1, 2}}).ok());  // growth
  EXPECT_TRUE(checker.Observe({{0, 3}}).ok());          // worker 1 left: fine
  EXPECT_TRUE(checker.Observe({{0, 3}, {2, 1}}).ok());  // worker 2 joined
  EXPECT_EQ(checker.observed(), 4u);
  EXPECT_EQ(checker.high_water(), (DprCut{{0, 3}, {1, 2}, {2, 1}}));
}

TEST(CutMonotonicityCheckerTest, FlagsRegression) {
  CutMonotonicityChecker checker;
  ASSERT_TRUE(checker.Observe({{0, 5}}).ok());
  Status s = checker.Observe({{0, 4}});
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  // The high water is not polluted by the bad cut.
  EXPECT_EQ(checker.high_water(), (DprCut{{0, 5}}));
}

// ------------------------------------------------------------- cluster level

ClusterOptions Opts() {
  ClusterOptions options;
  options.num_workers = 2;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 20000;
  options.finder_interval_us = 5000;
  return options;
}

uint32_t PartitionOnWorker(const DFasterCluster& cluster, WorkerId worker) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    if (cluster.OwnerOf(vp) == worker) return vp;
  }
  ADD_FAILURE() << "no partition on worker " << worker;
  return 0;
}

uint64_t KeyInPartition(uint32_t partition) {
  uint64_t key = 0;
  while (YcsbWorkload::PartitionOf(key) != partition) key++;
  return key;
}

TEST(ClusterPlaneTest, FoundersAreSeededActive) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  auto states = cluster.MemberStates();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states.at(0), MemberState::kActive);
  EXPECT_EQ(states.at(1), MemberState::kActive);
}

TEST(ClusterPlaneTest, JoinActivateDecommissionLifecycle) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());

  // Seed data so the decommission below has real shards to drain.
  {
    auto client = cluster.NewClient(8, 64);
    auto session = client->NewSession(1);
    for (uint64_t k = 0; k < 100; ++k) session->Upsert(k, k + 1);
    ASSERT_TRUE(session->WaitForAll().ok());
  }

  WorkerId joiner = kInvalidWorker;
  ASSERT_TRUE(cluster.AddWorker(&joiner).ok());
  EXPECT_EQ(cluster.MemberStates().at(joiner), MemberState::kJoining);
  // A joiner owns nothing until shards are migrated onto it.
  EXPECT_EQ(cluster.worker(joiner)->OwnedPartitionCount(), 0u);

  const uint32_t vp = PartitionOnWorker(cluster, 0);
  ASSERT_TRUE(cluster.MigratePartition(vp, joiner).ok());
  EXPECT_EQ(cluster.OwnerOf(vp), joiner);
  // Dual-ownership window is closed: the durable migration row is gone.
  EXPECT_TRUE(cluster.metadata()->GetMigrations().empty());

  ASSERT_TRUE(cluster.ActivateWorker(joiner).ok());
  EXPECT_EQ(cluster.MemberStates().at(joiner), MemberState::kActive);

  // Decommission a founder: its shards drain to active members, the DPR row
  // drops, and the membership row lands on the tombstone.
  ASSERT_TRUE(cluster.DecommissionWorker(0).ok());
  EXPECT_EQ(cluster.MemberStates().at(0), MemberState::kRemoved);
  for (uint32_t p = 0; p < YcsbWorkload::kNumPartitions; ++p) {
    EXPECT_NE(cluster.OwnerOf(p), 0u) << "partition " << p << " not drained";
  }

  // Every pre-decommission write is still readable through the new topology.
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(2);
  std::atomic<uint64_t> sum{0};
  for (uint64_t k = 0; k < 100; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) sum.fetch_add(v);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(sum.load(), 100u * 101 / 2);
  // And DPR commits keep flowing without the removed founder.
  for (uint64_t k = 0; k < 20; ++k) session->Upsert(k, k);
  EXPECT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(ClusterPlaneTest, CommitResolvesAfterItsWorkerIsDecommissioned) {
  ClusterOptions options = Opts();
  // No timer checkpoints: only the decommission's migration barriers move
  // the cut, so the session's ops are still uncommitted when it starts.
  options.checkpoint_interval_us = 60'000'000;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(1);
  // The session's last ops land on worker 0, and no cut covers them yet.
  const uint64_t key = KeyInPartition(PartitionOnWorker(cluster, 0));
  for (uint64_t i = 0; i < 16; ++i) session->Upsert(key, i);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_LT(session->dpr().GetCommitPoint().prefix_end,
            session->dpr().next_seqno());

  ASSERT_TRUE(cluster.DecommissionWorker(0).ok());
  // Worker 0 is gone, but its final cut entry covers the ops; any surviving
  // worker's response carries it.
  EXPECT_TRUE(session->WaitForCommit(10000).ok());
}

TEST(ClusterPlaneTest, MigrationRejectsLeavingTarget) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(
      cluster.membership()->Transition(1, MemberState::kDraining).ok());
  const uint32_t vp = PartitionOnWorker(cluster, 0);
  EXPECT_EQ(cluster.MigratePartition(vp, 1).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(cluster.OwnerOf(vp), 0u);
}

TEST(ClusterPlaneTest, DecommissionRefusedWithoutDrainTarget) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  // Drain worker 1's shards onto 0 by hand, then tombstone it.
  ASSERT_TRUE(cluster.DecommissionWorker(1).ok());
  // Worker 0 is now the only active member: nobody can take its shards.
  EXPECT_EQ(cluster.DecommissionWorker(0).code(),
            Status::Code::kUnavailable);
  // The failed decommission leaves it draining (the paper's operator would
  // re-add capacity and retry); its shards are untouched.
  EXPECT_EQ(cluster.MemberStates().at(0), MemberState::kDraining);
  EXPECT_GT(cluster.worker(0)->OwnedPartitionCount(), 0u);
}

TEST(ClusterPlaneTest, LazyClientReachesWorkerJoinedAfterIt) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  // Client created while the cluster has two workers...
  auto client = cluster.NewClient(1, 8);
  auto session = client->NewSession(1);
  const uint32_t vp = PartitionOnWorker(cluster, 0);
  const uint64_t key = KeyInPartition(vp);
  session->Upsert(key, 41);
  ASSERT_TRUE(session->WaitForAll().ok());

  // ...then the partition moves to a worker the client has never heard of.
  WorkerId joiner = kInvalidWorker;
  ASSERT_TRUE(cluster.AddWorker(&joiner).ok());
  ASSERT_TRUE(cluster.MigratePartition(vp, joiner).ok());

  // The next ops hit kNotOwner at the old owner, refresh the ownership
  // cache, resolve the new endpoint lazily, and land on the joiner.
  session->Upsert(key, 42);
  ASSERT_TRUE(session->WaitForAll().ok());
  std::atomic<uint64_t> value{0};
  session->Read(key, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) value.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(value.load(), 42u);
  // WaitForCommit now spans the joiner too (KnownWorkers grew).
  EXPECT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(ClusterPlaneTest, RefreshOwnershipUnderConcurrentFlips) {
  DFasterCluster cluster(Opts());
  ASSERT_TRUE(cluster.Start().ok());
  const uint32_t vp = PartitionOnWorker(cluster, 0);
  const uint64_t key = KeyInPartition(vp);

  // A writer hammers one key while the partition bounces between owners.
  // Every acknowledged write must survive; no write may succeed against a
  // stale owner (the final read must see the last acknowledged value).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> last_acked{0};
  std::thread writer([&] {
    auto wclient = cluster.NewClient(1, 4);
    auto wsession = wclient->NewSession(7);
    for (uint64_t i = 1; !stop.load(); ++i) {
      std::atomic<bool> ok{false};
      wsession->Upsert(key, i, [&](KvResult r, uint64_t) {
        if (r == KvResult::kOk) ok.store(true);
      });
      (void)wsession->WaitForAll();
      if (ok.load()) last_acked.store(i);
      SleepMicros(200);
    }
  });

  CutMonotonicityChecker monitor;
  for (int flip = 0; flip < 6; ++flip) {
    ASSERT_TRUE(cluster.MigratePartition(vp, flip % 2 == 0 ? 1 : 0).ok());
    // The tracking plane's cut never regresses across flips (P5).
    DprCut cut;
    cluster.finder()->GetCut(nullptr, &cut);
    ASSERT_TRUE(monitor.Observe(cut).ok());
  }
  stop.store(true);
  writer.join();

  auto client = cluster.NewClient(1, 8);
  auto session = client->NewSession(8);
  std::atomic<uint64_t> value{0};
  session->Read(key, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) value.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_GE(value.load(), last_acked.load());
  EXPECT_GE(monitor.observed(), 6u);
}

}  // namespace
}  // namespace dpr
