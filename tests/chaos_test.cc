// Chaos-harness tests (tier-1 `chaos` label):
//   - 200 seeded fault schedules run end to end with every checker green
//     (monotone commit points, dependency-closed cuts, no reneged
//     guarantees, bounded drain, value-level prefix consistency);
//   - the replay contract: ChaosSchedule::Generate is a pure function of
//     the seed, so any printed seed regenerates the identical schedule;
//   - a threaded probe stress for the TSan job (DPR_SANITIZE=thread).
#include "harness/chaos.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "fault/fault_plane.h"
#include "harness/cluster.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// Runs one seeded schedule and fails loudly with the replayable seed.
void RunSeed(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  ChaosReport report;
  const Status s = RunChaos(options, &report);
  ASSERT_TRUE(s.ok()) << report.violation;
  ASSERT_TRUE(report.violation.empty()) << report.violation;
  EXPECT_GT(report.ops, 0u) << "seed " << seed << " admitted no operations";
}

// Chain restores so far, split by anchor: a full image (one link
// installed) or a delta (two or more).
struct AnchorCounts {
  uint64_t full = 0;
  uint64_t delta = 0;
};

AnchorCounts ChainRestoresByAnchor() {
  const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  const auto it = snap.histograms.find("ckpt.chain_length");
  if (it == snap.histograms.end()) return {};
  const uint64_t full = it->second.bucket_count(Histogram::BucketFor(1));
  return {full, it->second.count() - full};
}

// Each shard's schedules crash workers whose newest image is a full image
// and workers anchored on a delta, so both restore paths run.
void RunSeedRange(uint64_t lo, uint64_t hi) {
  const AnchorCounts before = ChainRestoresByAnchor();
  for (uint64_t seed = lo; seed <= hi; ++seed) RunSeed(seed);
  const AnchorCounts after = ChainRestoresByAnchor();
  const uint64_t full = after.full - before.full;
  const uint64_t delta = after.delta - before.delta;
  printf("seeds %llu-%llu: %llu chain restores from a full anchor, %llu "
         "from a delta anchor\n",
         static_cast<unsigned long long>(lo),
         static_cast<unsigned long long>(hi),
         static_cast<unsigned long long>(full),
         static_cast<unsigned long long>(delta));
  EXPECT_GT(full, 0u);
  EXPECT_GT(delta, 0u);
}

// 200 seeds, sharded so a failure narrows the range (and each shard stays
// well under the ctest timeout).
TEST(ChaosQuickTest, Seeds1To50) { RunSeedRange(1, 50); }
TEST(ChaosQuickTest, Seeds51To100) { RunSeedRange(51, 100); }
TEST(ChaosQuickTest, Seeds101To150) { RunSeedRange(101, 150); }
TEST(ChaosQuickTest, Seeds151To200) { RunSeedRange(151, 200); }

TEST(ChaosReplayTest, GenerateIsAPureFunctionOfTheSeed) {
  for (const uint64_t seed :
       {1ull, 7ull, 42ull, 1234567ull, 0xdeadbeefull}) {
    ChaosOptions options;
    options.seed = seed;
    const std::string first = ChaosSchedule::Generate(options).ToString();
    const std::string second = ChaosSchedule::Generate(options).ToString();
    EXPECT_EQ(first, second) << "schedule for seed " << seed
                             << " is not replayable";
    EXPECT_NE(first.find("seed=" + std::to_string(seed)), std::string::npos);
  }
}

TEST(ChaosReplayTest, SeedsActuallyVaryTheSchedule) {
  std::set<std::string> distinct;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    ChaosOptions options;
    options.seed = seed;
    distinct.insert(ChaosSchedule::Generate(options).ToString());
  }
  // Schedules embed the seed so all 32 differ trivially; the event lists
  // themselves must vary too, which this bounds from below.
  EXPECT_EQ(distinct.size(), 32u);
}

TEST(ChaosReplayTest, RerunReproducesIdenticalFaultSchedule) {
  ChaosOptions options;
  options.seed = 99;
  ChaosReport first;
  ChaosReport second;
  ASSERT_TRUE(RunChaos(options, &first).ok()) << first.violation;
  ASSERT_TRUE(RunChaos(options, &second).ok()) << second.violation;
  EXPECT_EQ(first.schedule.ToString(), second.schedule.ToString());
}

// Threaded probe stress for TSan: client threads hammer a cluster while
// benign rules (delay, duplicate, slow fsync) fire concurrently on the
// transport and device probe paths. No invariant beyond "completes and
// stays race-free" — the seeded schedules above own the semantics.
TEST(ChaosThreadedTest, ProbesAreThreadSafeUnderLoad) {
  ScopedFaultPlane plane(5);
  ClusterOptions options;
  options.num_workers = 2;
  options.checkpoint_interval_us = 10000;
  options.finder_interval_us = 5000;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  FaultPlane::Instance().Arm(
      {.point = faults::kNetDelay, .probability = 0.05, .param = 200});
  FaultPlane::Instance().Arm(
      {.point = faults::kNetDuplicate, .probability = 0.02});
  FaultPlane::Instance().Arm(
      {.point = faults::kDevSlowFsync, .probability = 0.1, .param = 500});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto client = cluster.NewClient(4, 32);
      auto session = client->NewSession(200 + t);
      Random rng(t);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 32; ++i) {
          session->Upsert(rng.Uniform(512), rng.Next(),
                          [&](KvResult, uint64_t) {
                            completed.fetch_add(1, std::memory_order_relaxed);
                          });
        }
        if (!session->WaitForAll(20000).ok()) break;
        if (session->needs_failure_handling()) {
          DprSession::CommitPoint survivors;
          (void)session->RecoverFromFailure(&survivors);
        }
      }
      (void)session->WaitForAll(20000);
    });
  }
  SleepMicros(400 * 1000);
  stop.store(true);
  for (auto& t : clients) t.join();
  // Counters live on the armed rules: read them before disarming.
  const uint64_t delay_hits = FaultPlane::Instance().hits(faults::kNetDelay);
  FaultPlane::Instance().DisarmAll();
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GT(delay_hits, 0u) << "the transport probes never ran";
}

}  // namespace
}  // namespace dpr
