// Two-phase log compaction: GC strictly inside the DPR guarantee (the paper
// notes D-FASTER only garbage-collects log entries covered by the cut).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>

#include "common/random.h"
#include "faster/faster_store.h"

namespace dpr {
namespace {

std::unique_ptr<FasterStore> NewStore() {
  FasterOptions options;
  options.index_buckets = 512;
  options.page_bits = 14;  // 16 KiB pages so compaction spans several
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

Version Checkpoint(FasterStore* store) {
  Version token;
  EXPECT_TRUE(
      store->PerformCheckpoint(store->CurrentVersion() + 1, nullptr, &token, {})
          .ok());
  store->WaitForCheckpoints();
  return token;
}

TEST(CompactionTest, PreservesLiveDataAndReclaimsLog) {
  auto store = NewStore();
  auto session = store->NewSession();
  // Heavy overwrite churn: lots of garbage below the checkpoint.
  for (int round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + round).ok());
    }
    if (round % 5 == 4) Checkpoint(store.get());
  }
  const Version safe = Checkpoint(store.get());
  const LogAddress begin_before = store->begin_address();

  Version compaction_token;
  ASSERT_TRUE(store->StartCompaction(safe, &compaction_token).ok());
  // Premature finish is refused: the copies are not yet in the cut.
  EXPECT_TRUE(
      store->FinishCompaction(compaction_token, compaction_token - 1)
          .IsBusy());
  ASSERT_TRUE(
      store->FinishCompaction(compaction_token, compaction_token).ok());
  EXPECT_GT(store->begin_address(), begin_before);

  // All live data survives, served from above the new begin address.
  for (uint64_t k = 0; k < 200; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok()) << "key " << k;
    ASSERT_EQ(v, k + 19);
  }
}

TEST(CompactionTest, SurvivesCrashAfterCompaction) {
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(session->Upsert(k, k + 1).ok());
  }
  const Version safe = Checkpoint(store.get());
  Version compaction_token;
  ASSERT_TRUE(store->StartCompaction(safe, &compaction_token).ok());
  ASSERT_TRUE(
      store->FinishCompaction(compaction_token, compaction_token).ok());
  // More writes + one more durable checkpoint on the compacted log.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(session->Upsert(k + 1000, k).ok());
  }
  Checkpoint(store.get());

  session.reset();
  store->SimulateCrash();
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(~0ULL, &restored).ok());
  auto fresh = store->NewSession();
  for (uint64_t k = 0; k < 100; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(fresh->Read(k, &v).ok()) << "compacted key " << k;
    ASSERT_EQ(v, k + 1);
    ASSERT_TRUE(fresh->Read(k + 1000, &v).ok());
  }
}

TEST(CompactionTest, RollbackAfterStartKeepsOriginals) {
  // Copies are ordinary writes: when the compaction checkpoint is rolled
  // back before FinishCompaction, the originals (below the untouched begin)
  // still serve every key.
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Upsert(k, k + 5).ok());
  }
  const Version safe = Checkpoint(store.get());
  Version compaction_token;
  ASSERT_TRUE(store->StartCompaction(safe, &compaction_token).ok());
  // Disaster strikes: roll back to `safe` (the cut never covered the
  // compaction checkpoint). FinishCompaction must now be impossible.
  session.reset();
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(safe, &restored).ok());
  ASSERT_EQ(restored, safe);
  auto fresh = store->NewSession();
  for (uint64_t k = 0; k < 50; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(fresh->Read(k, &v).ok());
    ASSERT_EQ(v, k + 5);
  }
  EXPECT_EQ(store->begin_address(), LogAllocator::kBeginAddress);
}

TEST(CompactionTest, RejectsUnknownOrUndurableTokens) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  Version compaction_token;
  EXPECT_TRUE(store->StartCompaction(99, &compaction_token).IsNotFound());
  EXPECT_TRUE(store->FinishCompaction(99, 100).IsNotFound());
}

TEST(CompactionTest, RepeatedCompactionUnderChurn) {
  auto store = NewStore();
  auto session = store->NewSession();
  Random rng(9);
  std::map<uint64_t, uint64_t> model;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const uint64_t key = rng.Uniform(128);
      const uint64_t value = rng.Next();
      ASSERT_TRUE(session->Upsert(key, value).ok());
      model[key] = value;
    }
    const Version safe = Checkpoint(store.get());
    Version token;
    Status s = store->StartCompaction(safe, &token);
    if (s.ok()) {
      ASSERT_TRUE(store->FinishCompaction(token, token).ok());
    }
    for (const auto& [key, value] : model) {
      uint64_t v = 0;
      ASSERT_TRUE(session->Read(key, &v).ok());
      ASSERT_EQ(v, value);
    }
  }
}

}  // namespace
}  // namespace dpr

namespace dpr {
namespace {

TEST(CompactionTest, RollbackCancelsPendingCompaction) {
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Upsert(k, k).ok());
  }
  const Version safe = Checkpoint(store.get());
  Version token;
  ASSERT_TRUE(store->StartCompaction(safe, &token).ok());
  session.reset();
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(safe, &restored).ok());
  // The compaction checkpoint was rolled back: finishing it must fail even
  // with a large watermark, and the log begin must not move.
  EXPECT_TRUE(store->FinishCompaction(token, token + 100).IsNotFound());
  EXPECT_EQ(store->begin_address(), LogAllocator::kBeginAddress);
}

}  // namespace
}  // namespace dpr

#include "common/clock.h"
#include "harness/cluster.h"

namespace dpr {
namespace {

TEST(CompactionTest, WorkerAutoGcUnderChurnKeepsDataAndShrinksLog) {
  // End-to-end: a D-FASTER worker with watermark-driven GC compacts its log
  // during an overwrite-heavy workload without losing any data.
  ClusterOptions options;
  options.num_workers = 1;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 10000;
  options.finder_interval_us = 5000;
  DFasterCluster cluster(options);
  // The worker runs no GC thread of its own; drive the two-phase compaction
  // directly through the worker's DPR watermark.
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(16, 128);
  auto session = client->NewSession(1);
  for (int round = 0; round < 10; ++round) {
    for (uint64_t k = 0; k < 300; ++k) session->Upsert(k, k + round);
    ASSERT_TRUE(session->WaitForCommit(20000).ok());
  }
  FasterStore* store = cluster.worker(0)->store();
  const Version watermark = cluster.worker(0)->dpr_worker()->persisted_watermark();
  ASSERT_GT(watermark, 0u);
  // Largest durable token <= watermark is a valid safe point.
  Version safe = store->LargestDurableToken();
  if (safe > watermark) safe = watermark;
  Version token;
  Status s = store->StartCompaction(safe, &token);
  if (s.ok()) {
    // The compaction checkpoint commits via the normal DPR pipeline.
    Stopwatch timer;
    for (;;) {
      const Version wm = cluster.worker(0)->dpr_worker()->persisted_watermark();
      Status fin = store->FinishCompaction(token, wm);
      if (fin.ok()) break;
      ASSERT_TRUE(fin.IsBusy()) << fin.ToString();
      ASSERT_LT(timer.ElapsedMillis(), 20000u);
      SleepMicros(10000);
    }
    EXPECT_GT(store->begin_address(), LogAllocator::kBeginAddress);
  }
  // Every key still readable with its final value.
  std::atomic<int> mismatches{0};
  for (uint64_t k = 0; k < 300; ++k) {
    session->Read(k, [&, k](KvResult r, uint64_t v) {
      if (r != KvResult::kOk || v != k + 9) mismatches.fetch_add(1);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dpr
