// VersionDependencyTracker: the lock-striped worker-side ingest half of the
// tracking plane must be observationally equivalent to the single-map
// tracker it replaced — no recorded dependency may be lost or weakened, no
// matter how Record() and DrainUpTo() interleave across threads.
#include "dpr/dep_tracker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include "common/sync.h"
#include <thread>
#include <vector>

#include "dpr/types.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// The tracker counts only into the process-wide registry, so every test
// starts from a zeroed registry and reads its series from a snapshot.
class DepTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Default().ResetForTest(); }

  static uint64_t Count(const std::string& name) {
    return MetricsRegistry::Default().Snapshot().counters[name];
  }
  static int64_t LiveEntries() {
    return MetricsRegistry::Default()
        .Snapshot()
        .gauges["dpr.dep_tracker.live_entries"];
  }
};

TEST_F(DepTrackerTest, DrainMergesVersionsUpToToken) {
  VersionDependencyTracker tracker(4);
  tracker.Record(1, 5, {{1, 3}}, /*self=*/0);
  tracker.Record(2, 6, {{1, 7}, {2, 2}}, /*self=*/0);
  tracker.Record(3, 9, {{3, 1}}, /*self=*/0);

  DependencySet drained = tracker.DrainUpTo(6);
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1], 7u);
  EXPECT_EQ(drained[2], 2u);

  // Version 9 stays staged until a later checkpoint covers it.
  EXPECT_EQ(LiveEntries(), 1);
  drained = tracker.DrainUpTo(10);
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[3], 1u);
  EXPECT_EQ(LiveEntries(), 0);
}

TEST_F(DepTrackerTest, SelfDependenciesAreImplicit) {
  VersionDependencyTracker tracker(4);
  tracker.Record(1, 2, {{0, 9}, {1, 4}}, /*self=*/0);
  DependencySet drained = tracker.DrainUpTo(2);
  EXPECT_EQ(drained.count(0), 0u);
  EXPECT_EQ(drained[1], 4u);
}

TEST_F(DepTrackerTest, BatchesWithoutCrossWorkerDepsTakeLockFreePath) {
  VersionDependencyTracker tracker(4);
  tracker.Record(1, 2, {}, /*self=*/0);
  tracker.Record(1, 2, {{0, 1}}, /*self=*/0);  // self-only: nothing to merge
  EXPECT_EQ(Count("dpr.dep_tracker.empty_records"), 2u);
  EXPECT_EQ(Count("dpr.dep_tracker.records"), 0u);
  EXPECT_EQ(LiveEntries(), 0);
  EXPECT_TRUE(tracker.DrainUpTo(100).empty());
}

TEST_F(DepTrackerTest, ClearDiscardsEverything) {
  VersionDependencyTracker tracker(2);
  tracker.Record(1, 3, {{1, 1}}, /*self=*/0);
  tracker.Record(2, 4, {{2, 5}}, /*self=*/0);
  tracker.Clear();
  EXPECT_EQ(LiveEntries(), 0);
  EXPECT_TRUE(tracker.DrainUpTo(100).empty());
}

// Shard count rounds up to a power of two; 1 shard degenerates to the old
// single-map tracker and must still work.
TEST_F(DepTrackerTest, SingleShardStillCorrect) {
  VersionDependencyTracker tracker(1);
  EXPECT_EQ(tracker.shards(), 1u);
  tracker.Record(17, 1, {{1, 2}}, /*self=*/0);
  tracker.Record(99, 1, {{1, 5}}, /*self=*/0);
  DependencySet drained = tracker.DrainUpTo(1);
  EXPECT_EQ(drained[1], 5u);
}

// The equivalence check: N threads record random-ish dependency sets into
// both the striped tracker and a mutex-guarded reference map (the seed's
// data structure), while a drainer thread concurrently drains the tracker.
// Folding every drain together with a max-merge must yield exactly what the
// reference map folds to — dependencies can move between drains, but none
// may be lost or weakened.
TEST_F(DepTrackerTest, ConcurrentRecordAndDrainLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  constexpr Version kMaxVersion = 64;

  VersionDependencyTracker tracker(8);
  Mutex ref_mu;
  std::map<Version, DependencySet> reference;
  std::atomic<bool> done{false};

  DependencySet collected;
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      MergeDependencies(&collected, tracker.DrainUpTo(kMaxVersion));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      const uint64_t session = 0x9e3779b9ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const Version v = 1 + ((t * kPerThread + i) % kMaxVersion);
        DependencySet deps;
        if (i % 11 == 0) {
          deps[0] = static_cast<Version>(i + 1);  // self-only: lock-free path
        } else {
          deps[1 + (t % 3)] = static_cast<Version>((i % 97) + 1);
          if (i % 5 == 0) deps[7] = static_cast<Version>(i + 1);
        }
        tracker.Record(session + (i & 15), v, deps, /*self=*/0);
        {
          MutexLock guard(ref_mu);
          for (const auto& [dw, dv] : deps) {
            if (dw == 0) continue;
            MergeDependency(&reference[v], WorkerVersion{dw, dv});
          }
        }
      }
    });
  }
  for (auto& th : recorders) th.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  MergeDependencies(&collected, tracker.DrainUpTo(kMaxVersion));

  DependencySet expected;
  for (const auto& [v, deps] : reference) {
    (void)v;
    MergeDependencies(&expected, deps);
  }
  EXPECT_EQ(collected, expected);

  EXPECT_EQ(LiveEntries(), 0);
  EXPECT_GT(Count("dpr.dep_tracker.records"), 0u);
  EXPECT_GT(Count("dpr.dep_tracker.empty_records"), 0u);  // i % 11 batches
}

}  // namespace
}  // namespace dpr
