// Unit tests for the HybridLog allocator, hash index, and record layout —
// the latch-free substrate under FasterStore.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "faster/hash_index.h"
#include "faster/log_allocator.h"
#include "faster/record.h"

namespace dpr {
namespace {

TEST(RecordHeaderTest, SizeIsAlignedAndIncludesValue) {
  EXPECT_EQ(RecordHeader::SizeWith(0), 24u);
  EXPECT_EQ(RecordHeader::SizeWith(1), 32u);
  EXPECT_EQ(RecordHeader::SizeWith(8), 32u);
  EXPECT_EQ(RecordHeader::SizeWith(9), 40u);
}

TEST(RecordHeaderTest, FlagsAreAtomicAndSticky) {
  RecordHeader rec;
  EXPECT_FALSE(rec.invalid());
  rec.SetFlag(RecordHeader::kTombstone);
  rec.SetFlag(RecordHeader::kInvalid);
  EXPECT_TRUE(rec.tombstone());
  EXPECT_TRUE(rec.invalid());
}

TEST(LogAllocatorTest, SequentialAllocationsAreContiguous) {
  LogAllocator log(/*page_bits=*/16);
  const LogAddress a = log.Allocate(32);
  const LogAddress b = log.Allocate(64);
  EXPECT_EQ(a, LogAllocator::kBeginAddress);
  EXPECT_EQ(b, a + 32);
  EXPECT_EQ(log.tail(), b + 64);
}

TEST(LogAllocatorTest, AllocationsAreZeroed) {
  LogAllocator log(/*page_bits=*/12);
  const LogAddress a = log.Allocate(256);
  const char* p = log.Resolve(a);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(p[i], 0);
}

TEST(LogAllocatorTest, RecordsNeverSpanPages) {
  LogAllocator log(/*page_bits=*/12);  // 4 KiB pages
  const uint64_t page = 4096;
  for (int i = 0; i < 200; ++i) {
    const uint64_t size = 24 + 8 * (i % 100);
    const LogAddress a = log.Allocate(size);
    EXPECT_EQ(a >> 12, (a + size - 1) >> 12)
        << "allocation spans a page boundary";
    (void)page;
  }
}

TEST(LogAllocatorTest, ConcurrentAllocationsDisjoint) {
  LogAllocator log(/*page_bits=*/14);
  constexpr int kThreads = 4;
  constexpr int kAllocsPerThread = 5000;
  std::vector<std::vector<std::pair<LogAddress, uint64_t>>> ranges(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t);
      for (int i = 0; i < kAllocsPerThread; ++i) {
        const uint64_t size = 24 + 8 * rng.Uniform(16);
        ranges[t].push_back({log.Allocate(size), size});
      }
    });
  }
  for (auto& t : threads) t.join();
  // No two allocations overlap.
  std::vector<std::pair<LogAddress, uint64_t>> all;
  for (auto& r : ranges) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_GE(all[i].first, all[i - 1].first + all[i - 1].second)
        << "overlapping allocations";
  }
}

TEST(LogAllocatorTest, RestoreToPositionsTail) {
  LogAllocator log(/*page_bits=*/12);
  log.Allocate(64);
  log.Clear();
  EXPECT_EQ(log.tail(), LogAllocator::kBeginAddress);
  log.RestoreTo(5000, 10000);
  EXPECT_EQ(log.tail(), 10000u);
  // Restored region is resolvable.
  EXPECT_NE(log.Resolve(9000), nullptr);
  // The bytes the caller does not load are zeroed: the pages below `from`
  // and the rest of the last page.
  for (uint64_t a = 0; a < 5000; ++a) {
    ASSERT_EQ(*log.Resolve(a), 0) << a;
  }
  for (uint64_t a = 10000; a < 3 * log.page_size(); ++a) {
    ASSERT_EQ(*log.Resolve(a), 0) << a;
  }
}

TEST(HashIndexTest, RoundsBucketsToPowerOfTwo) {
  HashIndex index(1000);
  EXPECT_EQ(index.bucket_count(), 1024u);
  HashIndex tiny(1);
  EXPECT_EQ(tiny.bucket_count(), 16u);
}

TEST(HashIndexTest, HeadsStartNull) {
  HashIndex index(64);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(index.Head(k), kNullAddress);
  }
}

TEST(HashIndexTest, CasInstallsAndDetectsRaces) {
  HashIndex index(64);
  LogAddress expected = kNullAddress;
  EXPECT_TRUE(index.CasHead(7, &expected, 100));
  EXPECT_EQ(index.Head(7), 100u);
  // Stale expected fails and reports the current head.
  expected = kNullAddress;
  EXPECT_FALSE(index.CasHead(7, &expected, 200));
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(index.CasHead(7, &expected, 200));
  EXPECT_EQ(index.Head(7), 200u);
}

TEST(HashIndexTest, ConcurrentCasOneWinnerPerRound) {
  HashIndex index(16);
  constexpr int kThreads = 4;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LogAddress expected = kNullAddress;
      if (index.CasHead(42, &expected, 1000 + t)) wins.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

// Distinct keys that all hash to `bucket` of a 16-bucket index, each with
// its own tag.
std::vector<uint64_t> DistinctTagsInBucket(uint64_t bucket, size_t n) {
  HashIndex probe(16);
  std::set<uint64_t> tags;
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if (probe.BucketFor(k) == bucket &&
        tags.insert(HashIndex::TagFor(k)).second) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(HashIndexTest, OverflowBucketsHoldEveryEntryAndImagesRestore) {
  HashIndex index(16);
  const std::vector<uint64_t> keys = DistinctTagsInBucket(3, 40);
  for (size_t i = 0; i < keys.size(); ++i) {
    LogAddress expected = kNullAddress;
    ASSERT_TRUE(index.CasHead(keys[i], &expected, 64 + 8 * i));
  }
  // 40 entries: 7 in the primary bucket, 33 across at least 5 overflows.
  EXPECT_GE(index.overflow_bucket_count(), 5u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Head(keys[i]), 64 + 8 * i);
  }
  // An image is (bucket, entry word) pairs; restoring it into an empty
  // index reproduces every head without knowing the keys.
  std::vector<std::pair<uint64_t, uint64_t>> image;
  index.ForEachEntry([&](uint64_t bucket, uint64_t word) {
    image.emplace_back(bucket, word);
  });
  ASSERT_EQ(image.size(), keys.size());
  HashIndex restored(16);
  for (const auto& [bucket, word] : image) restored.RestoreEntry(bucket, word);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(restored.Head(keys[i]), 64 + 8 * i);
  }
  index.Clear();
  EXPECT_EQ(index.overflow_bucket_count(), 0u);
  for (uint64_t k : keys) EXPECT_EQ(index.Head(k), kNullAddress);
}

TEST(HashIndexTest, RacingFirstInsertsCreateOneEntryPerTag) {
  HashIndex index(16);
  constexpr int kThreads = 6;
  constexpr uint64_t kKeys = 400;
  std::atomic<uint64_t> arrived{0};
  std::vector<std::atomic<int>> wins(kKeys);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t k = 0; k < kKeys; ++k) {
        arrived.fetch_add(1);
        while (arrived.load() < (k + 1) * kThreads) std::this_thread::yield();
        LogAddress expected = kNullAddress;
        if (index.CasHead(k, &expected, 64 + 8 * (k * kThreads + t))) {
          wins[k].fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Keys sharing a bucket and a tag share an entry: the first insert wins
  // for all of them.
  std::set<std::pair<uint64_t, uint64_t>> entries;
  int total_wins = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    entries.emplace(index.BucketFor(k), HashIndex::TagFor(k));
    total_wins += wins[k].load();
    EXPECT_LE(wins[k].load(), 1) << "key " << k;
    EXPECT_NE(index.Head(k), kNullAddress);
  }
  EXPECT_EQ(static_cast<size_t>(total_wins), entries.size());
  size_t visited = 0;
  index.ForEachEntry([&](uint64_t, uint64_t) { ++visited; });
  EXPECT_EQ(visited, entries.size());
}

}  // namespace
}  // namespace dpr
