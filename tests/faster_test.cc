#include "faster/faster_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "faster/hash_index.h"

namespace dpr {
namespace {

std::unique_ptr<FasterStore> NewStore(uint64_t buckets = 1 << 12) {
  FasterOptions options;
  options.index_buckets = buckets;
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

Version Checkpoint(FasterStore* store) {
  Version token = kInvalidVersion;
  std::atomic<bool> durable{false};
  Status s = store->PerformCheckpoint(
      store->CurrentVersion() + 1,
      [&](Version) { durable.store(true); }, &token, CheckpointHints{});
  EXPECT_TRUE(s.ok()) << s.ToString();
  store->WaitForCheckpoints();
  EXPECT_TRUE(durable.load());
  return token;
}

TEST(FasterStoreTest, UpsertReadRoundTrip) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(42, uint64_t{7}).ok());
  uint64_t value = 0;
  ASSERT_TRUE(session->Read(42, &value).ok());
  EXPECT_EQ(value, 7u);
  EXPECT_TRUE(session->Read(43, &value).IsNotFound());
}

TEST(FasterStoreTest, VariableLengthValues) {
  auto store = NewStore();
  auto session = store->NewSession();
  const std::string big(1000, 'x');
  ASSERT_TRUE(session->Upsert(1, big).ok());
  std::string value;
  ASSERT_TRUE(session->Read(1, &value).ok());
  EXPECT_EQ(value, big);
  // Overwrite with a different size (forces RCU).
  ASSERT_TRUE(session->Upsert(1, "short").ok());
  ASSERT_TRUE(session->Read(1, &value).ok());
  EXPECT_EQ(value, "short");
}

TEST(FasterStoreTest, RejectsOversizedValue) {
  auto store = NewStore();
  auto session = store->NewSession();
  const std::string huge(5000, 'x');
  EXPECT_EQ(session->Upsert(1, huge).code(),
            Status::Code::kInvalidArgument);
}

TEST(FasterStoreTest, DeleteHidesKey) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(5, uint64_t{1}).ok());
  ASSERT_TRUE(session->Delete(5).ok());
  uint64_t value;
  EXPECT_TRUE(session->Read(5, &value).IsNotFound());
  // Re-insert after delete.
  ASSERT_TRUE(session->Upsert(5, uint64_t{2}).ok());
  ASSERT_TRUE(session->Read(5, &value).ok());
  EXPECT_EQ(value, 2u);
}

TEST(FasterStoreTest, RmwInsertsAndAdds) {
  auto store = NewStore();
  auto session = store->NewSession();
  uint64_t result = 0;
  ASSERT_TRUE(session->Rmw(9, 5, &result).ok());
  EXPECT_EQ(result, 5u);
  ASSERT_TRUE(session->Rmw(9, 3, &result).ok());
  EXPECT_EQ(result, 8u);
}

TEST(FasterStoreTest, ManyKeysWithBucketCollisions) {
  // 16 buckets + 10k keys: every bucket chain carries many distinct keys.
  auto store = NewStore(/*buckets=*/16);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_TRUE(session->Upsert(k, k * 3).ok());
  }
  for (uint64_t k = 0; k < 10000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, k * 3);
  }
}

// Keys whose hash lands in one bucket of a `buckets`-bucket index; with
// `same_tag` every key also shares the first key's tag.
std::vector<uint64_t> KeysInOneBucket(uint64_t buckets, size_t n,
                                      bool same_tag) {
  HashIndex probe(buckets);
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> groups;
  for (uint64_t k = 1;; ++k) {
    const auto group = std::make_pair(
        probe.BucketFor(k), same_tag ? HashIndex::TagFor(k) : uint64_t{0});
    std::vector<uint64_t>& keys = groups[group];
    keys.push_back(k);
    if (keys.size() == n) return keys;
  }
}

TEST(FasterStoreTest, KeysSharingBucketAndTagKeepTheirOwnValues) {
  // Two keys with one bucket and one tag share an index entry and so one
  // record chain; each lookup must still pick out its own key's records.
  auto store = NewStore(/*buckets=*/16);
  const std::vector<uint64_t> keys =
      KeysInOneBucket(16, 2, /*same_tag=*/true);
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(keys[0], uint64_t{100}).ok());
  ASSERT_TRUE(session->Upsert(keys[1], uint64_t{200}).ok());
  Checkpoint(store.get());  // next writes append (RCU) onto the shared chain
  ASSERT_TRUE(session->Upsert(keys[0], uint64_t{101}).ok());
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(keys[0], &v).ok());
  EXPECT_EQ(v, 101u);
  ASSERT_TRUE(session->Read(keys[1], &v).ok());
  EXPECT_EQ(v, 200u);
  ASSERT_TRUE(session->Delete(keys[1]).ok());
  EXPECT_TRUE(session->Read(keys[1], &v).IsNotFound());
  ASSERT_TRUE(session->Read(keys[0], &v).ok());
  EXPECT_EQ(v, 101u);
}

TEST(FasterStoreTest, FullBucketSpillsIntoOverflowBuckets) {
  // Forty keys in one bucket need at least five overflow buckets past the
  // primary bucket's seven entries; all survive a crash and a scan rebuild.
  auto store = NewStore(/*buckets=*/16);
  const std::vector<uint64_t> keys =
      KeysInOneBucket(16, 40, /*same_tag=*/false);
  auto session = store->NewSession();
  for (uint64_t k : keys) ASSERT_TRUE(session->Upsert(k, k * 7).ok());
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, k * 7);
  }
  const Version token = Checkpoint(store.get());
  session.reset();
  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  auto reader = store->NewSession();
  for (uint64_t k : keys) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, k * 7);
  }
}

TEST(FasterStoreTest, RacingFirstInsertsLeaveOneEntryPerKey) {
  // Threads race the first insert of each key (the index's tentative-bit
  // protocol) with RMW increments. A second entry for a key would hide the
  // writes that landed in it, so every key must read back one increment
  // per thread, and Scan must emit it once with that value.
  auto store = NewStore(/*buckets=*/16);
  constexpr int kThreads = 6;
  constexpr uint64_t kKeys = 300;
  std::atomic<uint64_t> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = store->NewSession();
      for (uint64_t k = 0; k < kKeys; ++k) {
        // Start each key together: wait until every thread reached it.
        arrived.fetch_add(1);
        while (arrived.load() < (k + 1) * kThreads) std::this_thread::yield();
        EXPECT_TRUE(session->Rmw(k, 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::map<uint64_t, int> emitted;
  store->Scan([&](uint64_t key, Slice value) {
    ++emitted[key];
    uint64_t v = 0;
    ASSERT_EQ(value.size(), 8u);
    memcpy(&v, value.data(), 8);
    EXPECT_EQ(v, uint64_t{kThreads}) << "key " << key;
  });
  ASSERT_EQ(emitted.size(), kKeys);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(emitted[k], 1) << "key " << k;
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    EXPECT_EQ(v, uint64_t{kThreads}) << "key " << k;
    ASSERT_TRUE(session->Upsert(k, k + 5).ok());
    ASSERT_TRUE(session->Read(k, &v).ok());
    EXPECT_EQ(v, k + 5);
  }
}

TEST(FasterStoreTest, InPlaceUpdateInMutableRegion) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  const LogAddress tail_before = store->tail_address();
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  // Same 8-byte value in the mutable region: no new record appended.
  EXPECT_EQ(store->tail_address(), tail_before);
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST(FasterStoreTest, CheckpointForcesRcuForOldRecords) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  Checkpoint(store.get());  // record is now below the read-only boundary
  const LogAddress tail_before = store->tail_address();
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  EXPECT_GT(store->tail_address(), tail_before);  // fold-over forced RCU
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST(FasterStoreTest, ConcurrentUpsertsAndReads) {
  auto store = NewStore();
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = store->NewSession();
      Random rng(t);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = rng.Uniform(512);
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(session->Upsert(key, key * 2).ok());
        } else {
          uint64_t v;
          Status s = session->Read(key, &v);
          if (s.ok()) {
          ASSERT_EQ(v, key * 2);
        }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(FasterStoreTest, ConcurrentRmwIsLossless) {
  auto store = NewStore();
  constexpr int kThreads = 4;
  constexpr uint64_t kAddsPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = store->NewSession();
      for (uint64_t i = 0; i < kAddsPerThread; ++i) {
        ASSERT_TRUE(session->Rmw(7, 1).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto session = store->NewSession();
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(7, &v).ok());
  EXPECT_EQ(v, kThreads * kAddsPerThread);
}

TEST(FasterStoreTest, CheckpointTokenAndVersionAdvance) {
  auto store = NewStore();
  EXPECT_EQ(store->CurrentVersion(), 1u);
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  const Version token = Checkpoint(store.get());
  EXPECT_EQ(token, 1u);
  EXPECT_EQ(store->CurrentVersion(), 2u);
  EXPECT_EQ(store->LargestDurableToken(), 1u);
}

TEST(FasterStoreTest, CheckpointTargetsArbitraryHigherVersion) {
  auto store = NewStore();
  Version token;
  ASSERT_TRUE(store->PerformCheckpoint(7, nullptr, &token, {}).ok());
  EXPECT_EQ(token, 1u);
  EXPECT_EQ(store->CurrentVersion(), 7u);  // Vmax-style fast-forward
  store->WaitForCheckpoints();
}

TEST(FasterStoreTest, SecondCheckpointWhileFlushingIsBusy) {
  FasterOptions options;
  options.index_buckets = 1 << 10;
  // Slow device so the first flush is still running.
  options.log_device = std::make_unique<LatencyDevice>(
      std::make_unique<MemoryDevice>(), 50000, 0);
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  ASSERT_TRUE(store.PerformCheckpoint(2, nullptr, nullptr, {}).ok());
  EXPECT_TRUE(store.PerformCheckpoint(3, nullptr, nullptr, {}).IsBusy());
  store.WaitForCheckpoints();
}

TEST(FasterStoreTest, CrashRecoveryRestoresDurablePrefix) {
  auto store = NewStore();
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + 100).ok());
    }
  }
  const Version token = Checkpoint(store.get());
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + 999).ok());  // lost updates
    }
  }
  store->SimulateCrash();
  {
    auto session = store->NewSession();
    uint64_t v;
    EXPECT_TRUE(session->Read(1, &v).IsUnavailable());
  }
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  EXPECT_EQ(restored, token);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, k + 100) << "key " << k;
  }
  EXPECT_GT(store->CurrentVersion(), token);
}

TEST(FasterStoreTest, InMemoryRollbackDiscardsSuffixVersions) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{100}).ok());
  const Version token = Checkpoint(store.get());  // v1 durable
  ASSERT_TRUE(session->Upsert(1, uint64_t{200}).ok());  // v2, uncommitted
  ASSERT_TRUE(session->Upsert(2, uint64_t{300}).ok());  // v2, uncommitted
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  EXPECT_EQ(restored, token);
  uint64_t v = 0;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 100u);  // v2 update rolled back
  EXPECT_TRUE(session->Read(2, &v).IsNotFound());
  // Post-rollback writes land in a fresh version and stick.
  ASSERT_TRUE(session->Upsert(2, uint64_t{400}).ok());
  ASSERT_TRUE(session->Read(2, &v).ok());
  EXPECT_EQ(v, 400u);
}

TEST(FasterStoreTest, RollbackToMidTokenPicksLargestBelow) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  Checkpoint(store.get());  // token 1
  ASSERT_TRUE(session->Upsert(1, uint64_t{2}).ok());
  Checkpoint(store.get());  // token 2
  ASSERT_TRUE(session->Upsert(1, uint64_t{3}).ok());
  Checkpoint(store.get());  // token 3
  Version restored;
  // Approximate cuts may name non-token versions; restore rounds down.
  ASSERT_TRUE(store->RestoreCheckpoint(2, &restored).ok());
  EXPECT_EQ(restored, 2u);
  uint64_t v;
  ASSERT_TRUE(session->Read(1, &v).ok());
  EXPECT_EQ(v, 2u);
}

TEST(FasterStoreTest, RollbackThenCrashRecoveryAgrees) {
  // Regression test for durable invalid marks: records rolled back in
  // memory must not resurrect via a later crash recovery.
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{10}).ok());
  const Version t1 = Checkpoint(store.get());
  ASSERT_TRUE(session->Upsert(1, uint64_t{20}).ok());
  Checkpoint(store.get());  // t2 durable, then rolled back
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(t1, &restored).ok());
  ASSERT_EQ(restored, t1);
  ASSERT_TRUE(session->Upsert(2, uint64_t{30}).ok());
  Checkpoint(store.get());  // post-rollback durable state
  session.reset();
  store->SimulateCrash();
  ASSERT_TRUE(store->RestoreCheckpoint(~0ULL, &restored).ok());
  auto fresh = store->NewSession();
  uint64_t v = 0;
  ASSERT_TRUE(fresh->Read(1, &v).ok());
  EXPECT_EQ(v, 10u);  // the value from t2 must NOT come back
  ASSERT_TRUE(fresh->Read(2, &v).ok());
  EXPECT_EQ(v, 30u);
}

TEST(FasterStoreTest, NonBlockingRollbackWithConcurrentReaders) {
  auto store = NewStore();
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 256; ++k) {
      ASSERT_TRUE(session->Upsert(k, uint64_t{1}).ok());
    }
  }
  const Version token = Checkpoint(store.get());
  {
    auto session = store->NewSession();
    for (uint64_t k = 0; k < 256; ++k) {
      ASSERT_TRUE(session->Upsert(k, uint64_t{2}).ok());
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_bad_value{false};
  std::thread reader([&] {
    auto session = store->NewSession();
    Random rng(3);
    while (!stop.load()) {
      uint64_t v = 0;
      Status s = session->Read(rng.Uniform(256), &v);
      // Readers must only ever see v=1 (committed) or v=2 (pre-rollback) —
      // never torn/invalid data — and after rollback completes, only v=1.
      if (s.ok() && v != 1 && v != 2) saw_bad_value.store(true);
      session->Refresh();
    }
  });
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(token, &restored).ok());
  stop.store(true);
  reader.join();
  EXPECT_FALSE(saw_bad_value.load());
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 256; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, 1u);
  }
}

TEST(FasterStoreTest, RestoreToZeroEmptiesStore) {
  auto store = NewStore();
  auto session = store->NewSession();
  ASSERT_TRUE(session->Upsert(1, uint64_t{1}).ok());
  Version restored;
  ASSERT_TRUE(store->RestoreCheckpoint(0, &restored).ok());
  EXPECT_EQ(restored, kInvalidVersion);
  uint64_t v;
  EXPECT_TRUE(session->Read(1, &v).IsNotFound());
}

TEST(FasterStoreTest, PageSpanningAllocations) {
  // Values near the page size force pad records and page transitions.
  FasterOptions options;
  options.index_buckets = 1 << 8;
  options.page_bits = 12;  // 4 KiB pages
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  const std::string big(1500, 'y');
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(session->Upsert(k, big).ok());
  }
  for (uint64_t k = 0; k < 64; ++k) {
    std::string v;
    ASSERT_TRUE(session->Read(k, &v).ok());
    ASSERT_EQ(v, big);
  }
  // And survive a crash-recovery cycle across page boundaries.
  Version token;
  ASSERT_TRUE(store.PerformCheckpoint(2, nullptr, &token, {}).ok());
  store.WaitForCheckpoints();
  session.reset();
  store.SimulateCrash();
  Version restored;
  ASSERT_TRUE(store.RestoreCheckpoint(token, &restored).ok());
  auto fresh = store.NewSession();
  for (uint64_t k = 0; k < 64; ++k) {
    std::string v;
    ASSERT_TRUE(fresh->Read(k, &v).ok());
    ASSERT_EQ(v, big);
  }
}

// Prefetches `keys`, then runs one op on each (read, upsert, RMW or delete,
// rotating with `round`) and checks every result against `model`, which it
// keeps up to date; then reads every key back.
void PrefetchThenApply(FasterStore::Session* session,
                       const std::vector<uint64_t>& keys, uint64_t round,
                       std::map<uint64_t, uint64_t>* model) {
  session->Prefetch(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t k = keys[i];
    const auto it = model->find(k);
    const bool present = it != model->end();
    uint64_t v = 0;
    switch ((i + round) % 4) {
      case 0: {
        const Status s = session->Read(k, &v);
        if (!present) {
          ASSERT_TRUE(s.IsNotFound()) << "key " << k << ": " << s.ToString();
        } else {
          ASSERT_TRUE(s.ok()) << "key " << k << ": " << s.ToString();
          ASSERT_EQ(v, it->second) << "key " << k;
        }
        break;
      }
      case 1:
        ASSERT_TRUE(session->Upsert(k, round * 1000 + k).ok());
        (*model)[k] = round * 1000 + k;
        break;
      case 2: {
        const uint64_t base = present ? it->second : 0;
        ASSERT_TRUE(session->Rmw(k, 3, &v).ok());
        ASSERT_EQ(v, base + 3) << "key " << k;
        (*model)[k] = base + 3;
        break;
      }
      case 3:
        ASSERT_TRUE(session->Delete(k).ok());
        model->erase(k);
        break;
    }
  }
  for (const uint64_t k : keys) {
    uint64_t v = 0;
    const Status s = session->Read(k, &v);
    const auto it = model->find(k);
    if (it == model->end()) {
      ASSERT_TRUE(s.IsNotFound()) << "key " << k;
    } else {
      ASSERT_TRUE(s.ok()) << "key " << k;
      ASSERT_EQ(v, it->second) << "key " << k;
    }
  }
}

TEST(FasterStoreTest, PrefetchIsOnlyAHint) {
  FasterOptions options;
  options.index_buckets = 1 << 8;
  options.page_bits = 12;  // 4 KiB pages, so compaction frees some
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  std::map<uint64_t, uint64_t> model;
  {
    auto session = store.NewSession();
    for (uint64_t k = 0; k < 2000; ++k) {
      ASSERT_TRUE(session->Upsert(k, k + 1).ok());
      model[k] = k + 1;
    }
    // Deleted before the compaction: the tombstone is not copied forward,
    // so these keys' chains start below the new begin address.
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(session->Delete(k).ok());
      model.erase(k);
    }
  }
  const Version safe = Checkpoint(&store);
  Version compaction = kInvalidVersion;
  ASSERT_TRUE(store.StartCompaction(safe, &compaction).ok());
  ASSERT_TRUE(store.FinishCompaction(compaction, compaction).ok());
  ASSERT_GE(store.begin_address(), LogAddress{4} << 12);  // pages freed

  auto session = store.NewSession();
  for (uint64_t k = 100; k < 150; ++k) {  // deleted above the begin address
    ASSERT_TRUE(session->Delete(k).ok());
    model.erase(k);
  }
  // One batch of each kind of key, and batches that mix them.
  std::vector<uint64_t> absent = {5000, 5001, 5002, 5003, 5004, 5005};
  std::vector<uint64_t> deleted = {100, 101, 102, 103, 104, 105};
  std::vector<uint64_t> below_begin = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<uint64_t> live = {1000, 1001, 1002, 1003, 1004, 1005};
  std::vector<uint64_t> mixed;
  for (const std::vector<uint64_t>* kind :
       {&absent, &deleted, &below_begin, &live}) {
    mixed.insert(mixed.end(), kind->begin(), kind->end());
  }
  uint64_t round = 0;
  for (const std::vector<uint64_t>* keys :
       {&absent, &deleted, &below_begin, &live, &mixed}) {
    for (int i = 0; i < 4; ++i) {
      PrefetchThenApply(session.get(), *keys, ++round, &model);
    }
  }

  // On a crashed store Prefetch does nothing and every op still fails.
  const Version token = Checkpoint(&store);
  session.reset();
  store.SimulateCrash();
  {
    auto crashed = store.NewSession();
    crashed->Prefetch(mixed.data(), mixed.size());
    uint64_t v = 0;
    for (const uint64_t k : mixed) {
      ASSERT_TRUE(crashed->Read(k, &v).IsUnavailable()) << "key " << k;
      ASSERT_TRUE(crashed->Upsert(k, uint64_t{1}).IsUnavailable());
    }
  }
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store.RestoreCheckpoint(token, &restored).ok());
  ASSERT_EQ(restored, token);
  auto fresh = store.NewSession();
  for (int i = 0; i < 4; ++i) {
    PrefetchThenApply(fresh.get(), mixed, ++round, &model);
  }
}

}  // namespace
}  // namespace dpr
