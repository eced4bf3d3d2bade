#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <cstring>

#include "common/clock.h"
#include "harness/cluster.h"

namespace dpr {
namespace {

RedisClusterOptions SmallOptions(RedisDeployment deployment) {
  RedisClusterOptions options;
  options.num_shards = 2;
  options.deployment = deployment;
  options.checkpoint_interval_us = 20000;
  options.finder_interval_us = 5000;
  return options;
}

class DRedisDeploymentTest
    : public ::testing::TestWithParam<RedisDeployment> {};

TEST_P(DRedisDeploymentTest, SetGetAcrossShards) {
  DRedisCluster cluster(SmallOptions(GetParam()));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/4, /*window=*/64);
  auto session = client->NewSession(1);
  for (uint64_t k = 0; k < 100; ++k) session->Set(k, k * 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  std::atomic<uint64_t> sum{0};
  std::atomic<int> errors{0};
  for (uint64_t k = 0; k < 100; ++k) {
    session->Get(k, [&](Status s, Slice value) {
      if (s.ok() && value.size() == 8) {
        uint64_t v;
        memcpy(&v, value.data(), 8);
        sum.fetch_add(v);
      } else {
        errors.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(sum.load(), 2u * (99 * 100 / 2));
}

INSTANTIATE_TEST_SUITE_P(Deployments, DRedisDeploymentTest,
                         ::testing::Values(RedisDeployment::kDirect,
                                           RedisDeployment::kPassThrough,
                                           RedisDeployment::kDpr),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case RedisDeployment::kDirect:
                               return "Redis";
                             case RedisDeployment::kPassThrough:
                               return "RedisProxy";
                             case RedisDeployment::kDpr:
                               return "DRedis";
                           }
                           return "Unknown";
                         });

TEST(DRedisTest, CommitsAdvanceViaBgSave) {
  DRedisCluster cluster(SmallOptions(RedisDeployment::kDpr));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 64);
  auto session = client->NewSession(2);
  for (uint64_t k = 0; k < 50; ++k) session->Set(k, k);
  ASSERT_TRUE(session->WaitForAll().ok());
  const uint64_t target = session->dpr().next_seqno();
  // Checkpoints fire every 20 ms; the commit point must eventually cover
  // everything. Nudge with reads (every response can carry the cut).
  Stopwatch timer;
  for (;;) {
    const auto point = session->dpr().GetCommitPoint();
    if (point.prefix_end >= target && point.excluded.empty()) break;
    ASSERT_LT(timer.ElapsedMillis(), 20000u) << "commit never arrived";
    // Commit notifications piggyback on responses; either shard's carries
    // the whole cut, and touching both covers the D-Redis header path on
    // each proxy.
    for (uint64_t k = 0; k < 2; ++k) {
      uint64_t key = 0;
      while (DRedisClient::ShardOf(key, 2) != k) key++;
      session->Get(key, nullptr);
    }
    ASSERT_TRUE(session->WaitForAll().ok());
    SleepMicros(5000);
  }
  // Snapshots actually exist on the unmodified stores.
  EXPECT_GT(cluster.store(0)->LastSave(), 0u);
  EXPECT_GT(cluster.store(1)->LastSave(), 0u);
}

TEST(DRedisTest, UnmodifiedStoreNeverSeesDprHeaders) {
  // The store executes raw command batches: after a full DPR session the
  // store's key count matches exactly the keys written (no header bytes
  // leaked into the command stream).
  DRedisCluster cluster(SmallOptions(RedisDeployment::kDpr));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(3);
  for (uint64_t k = 0; k < 64; ++k) session->Set(k, 1);
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(cluster.store(0)->size() + cluster.store(1)->size(), 64u);
}

}  // namespace
}  // namespace dpr

namespace dpr {
namespace {

TEST(DRedisFailureTest, CrashRollsBackToSnapshotCut) {
  DRedisCluster cluster(SmallOptions(RedisDeployment::kDpr));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 64);
  auto session = client->NewSession(9);

  // Phase 1: write, then wait until everything is committed (covered by
  // durable BGSAVE snapshots on both shards).
  for (uint64_t k = 0; k < 40; ++k) session->Set(k, 1);
  ASSERT_TRUE(session->WaitForAll().ok());
  const uint64_t target = session->dpr().next_seqno();
  Stopwatch timer;
  for (;;) {
    const auto point = session->dpr().GetCommitPoint();
    if (point.prefix_end >= target && point.excluded.empty()) break;
    ASSERT_LT(timer.ElapsedMillis(), 20000u);
    for (uint64_t s = 0; s < 2; ++s) {
      uint64_t key = 0;
      while (DRedisClient::ShardOf(key, 2) != s) key++;
      session->Get(key, nullptr);
    }
    ASSERT_TRUE(session->WaitForAll().ok());
    SleepMicros(5000);
  }

  // Phase 2: more writes that may not be committed, then shard 0 crashes.
  for (uint64_t k = 0; k < 40; ++k) session->Set(k, 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());

  // The session learns of the world-line shift and recovers its prefix.
  timer.Reset();
  while (!session->dpr().needs_failure_handling()) {
    ASSERT_LT(timer.ElapsedMillis(), 10000u);
    for (uint64_t k = 0; k < 4; ++k) session->Get(k, nullptr);
    ASSERT_TRUE(session->WaitForAll().ok());
    SleepMicros(2000);
  }
  WorldLine wl;
  DprCut cut;
  cluster.cluster_manager()->GetRecoveryInfo(&wl, &cut);
  const auto survivors = session->dpr().HandleFailure(wl, cut);
  EXPECT_GE(survivors.prefix_end, target);  // phase 1 never reneged

  // Phase 3: the wrapped, unmodified store keeps serving on the new
  // world-line and commits again.
  for (uint64_t k = 0; k < 40; ++k) session->Set(k, 3);
  ASSERT_TRUE(session->WaitForAll().ok());
  std::atomic<int> threes{0};
  for (uint64_t k = 0; k < 40; ++k) {
    session->Get(k, [&](Status s, Slice value) {
      uint64_t v = 0;
      if (s.ok() && value.size() == 8) memcpy(&v, value.data(), 8);
      if (v == 3) threes.fetch_add(1);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(threes.load(), 40);
}

}  // namespace
}  // namespace dpr
