// Checkpoint plane (`ctest -L ckpt`): the cadence controller's decision
// logic, delta-checkpoint chains through crash/restore, covering restores
// over a chain gap, compaction interplay, and the flush-failure regression
// (a failed checkpoint flush must never wedge the pipeline).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/cadence.h"
#include "faster/faster_store.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// ------------------------------------------------------- cadence controller

constexpr uint64_t kBaseUs = 100000;

TEST(CkptCadenceTest, FixedIntervalNeverSkipsNeverAdapts) {
  CkptCadenceController c(CkptPolicy::FixedInterval(), kBaseUs);
  uint64_t now = 1000;
  for (int i = 0; i < 5; ++i) {
    // Idle and hot signals alike: always a full checkpoint at the base
    // interval — byte-compatible with the historical fixed timer.
    CkptSignals s;
    s.dirty_bytes = (i % 2 == 0) ? 0 : (64u << 20);
    const CkptDecision d = c.Decide(s, now);
    EXPECT_EQ(d.action, CkptAction::kFull);
    EXPECT_EQ(d.next_delay_us, 100000u);
    now += d.next_delay_us;
  }
}

TEST(CkptCadenceTest, FirstCheckpointIssuesEvenWhenIdle) {
  CkptCadenceController c(CkptPolicy{}, kBaseUs);
  // An idle shard still gets one initial checkpoint (the finder needs a
  // first reported version before the cut can ever cover this worker)...
  const CkptDecision first = c.Decide(CkptSignals{}, 1000);
  EXPECT_EQ(first.action, CkptAction::kFull);
  // ...and only then starts skipping, at the RPO ceiling.
  for (int i = 0; i < 3; ++i) {
    const CkptDecision d = c.Decide(CkptSignals{}, 1000 + (i + 1) * 100000);
    EXPECT_EQ(d.action, CkptAction::kSkip);
    EXPECT_EQ(d.next_delay_us, 100000u);
  }
}

TEST(CkptCadenceTest, FullEveryRotation) {
  constexpr CkptAction F = CkptAction::kFull;
  constexpr CkptAction D = CkptAction::kDelta;
  // full_every == 0 means "every checkpoint full", like 1.
  const std::map<uint32_t, std::vector<CkptAction>> cases = {
      {4, {F, D, D, D, F, D, D, D, F}}, {0, {F, F, F, F, F, F, F, F, F}}};
  for (const auto& [full_every, want] : cases) {
    CkptPolicy p;
    p.full_every = full_every;
    CkptCadenceController c(p, kBaseUs);
    uint64_t now = 1000;
    std::vector<CkptAction> actions;
    for (int i = 0; i < 9; ++i) {
      CkptSignals s;
      s.dirty_bytes = 4096;
      const CkptDecision d = c.Decide(s, now);
      actions.push_back(d.action);
      now += d.next_delay_us;
    }
    EXPECT_EQ(actions, want) << "full_every=" << full_every;
  }
}

TEST(CkptCadenceTest, HotShardClampsToMinInterval) {
  // base interval -> floor: a quarter of the base, at least 1ms; below
  // 1ms the ceiling is pulled up to the floor.
  const std::map<uint64_t, uint64_t> cases = {
      {100000, 25000}, {2000, 1000}, {500, 1000}};
  for (const auto& [base_us, floor_us] : cases) {
    CkptCadenceController c(CkptPolicy{}, base_us);
    uint64_t now = 1000000;
    CkptDecision d{};
    for (int i = 0; i < 30; ++i) {
      // 16 MiB of fresh log every 10ms: the rate-derived interval
      // (1 MiB target / ~1678 B/us) is far below the floor.
      CkptSignals s;
      s.dirty_bytes = 16u << 20;
      s.committed_watermark = static_cast<uint64_t>(i);  // cut keeps moving
      d = c.Decide(s, now);
      now += 10000;
    }
    EXPECT_EQ(d.next_delay_us, floor_us) << "base_us=" << base_us;
    EXPECT_NE(d.action, CkptAction::kSkip);
  }
}

TEST(CkptCadenceTest, TrickleIngestStretchesToRpoCeiling) {
  CkptCadenceController c(CkptPolicy{}, kBaseUs);
  uint64_t now = 1000000;
  CkptDecision d{};
  for (int i = 0; i < 10; ++i) {
    CkptSignals s;
    s.dirty_bytes = 16;  // a few bytes per 100ms: interval wants to be huge
    s.committed_watermark = static_cast<uint64_t>(i);
    d = c.Decide(s, now);
    now += 100000;
  }
  EXPECT_EQ(d.next_delay_us, 100000u) << "never stretches past the RPO";
}

TEST(CkptCadenceTest, ExceptionListPressureHalvesInterval) {
  CkptCadenceController c(CkptPolicy{}, kBaseUs);
  uint64_t now = 1000000;
  CkptDecision calm{};
  for (int i = 0; i < 40; ++i) {
    // Settle the rate-derived interval around 40ms, inside the clamps, so
    // the halving is observable (a ceiling-clamped interval stays clamped).
    CkptSignals s;
    s.dirty_bytes = 1u << 20;
    s.committed_watermark = static_cast<uint64_t>(i);
    calm = c.Decide(s, now);
    now += 40000;
  }
  ASSERT_GT(calm.next_delay_us, 25000u);
  ASSERT_LT(calm.next_delay_us, 100000u);
  CkptSignals pressured;
  pressured.dirty_bytes = 1u << 20;
  pressured.committed_watermark = 1000;
  pressured.exception_list_len = 65;  // above the default threshold of 64
  const CkptDecision d = c.Decide(pressured, now);
  EXPECT_LT(d.next_delay_us, calm.next_delay_us * 7 / 10);
}

TEST(CkptCadenceTest, StorageBacklogStretchesInterval) {
  CkptCadenceController c(CkptPolicy{}, kBaseUs);
  uint64_t now = 1000000;
  CkptDecision calm{};
  for (int i = 0; i < 40; ++i) {
    // ~26 B/us: the rate-derived interval settles around 40ms, between
    // the clamps, so both pressure directions are observable.
    CkptSignals s;
    s.dirty_bytes = 1u << 20;
    s.committed_watermark = static_cast<uint64_t>(i);
    calm = c.Decide(s, now);
    now += 40000;
  }
  ASSERT_GT(calm.next_delay_us, 25000u);
  ASSERT_LT(calm.next_delay_us, 100000u);
  CkptSignals congested;
  congested.dirty_bytes = 1u << 20;
  congested.committed_watermark = 1000;
  congested.storage_queue_depth = 17;  // above the default threshold of 16
  const CkptDecision d = c.Decide(congested, now);
  // A congested fsync scheduler doubles the interval (EWMA drift aside).
  EXPECT_GT(d.next_delay_us, calm.next_delay_us + calm.next_delay_us / 2);
}

TEST(CkptCadenceTest, StaleCutTightensCadence) {
  CkptCadenceController c(CkptPolicy{}, kBaseUs);
  uint64_t now = 1000000;
  CkptDecision calm{};
  for (int i = 0; i < 40; ++i) {
    CkptSignals s;
    s.dirty_bytes = 1u << 20;
    s.committed_watermark = static_cast<uint64_t>(i);  // cut keeps moving
    calm = c.Decide(s, now);
    now += 40000;
  }
  ASSERT_GT(calm.next_delay_us, 25000u);
  ASSERT_LT(calm.next_delay_us, 100000u);
  // Freeze the watermark and keep ticking: once it has been stale for more
  // than 4x the RPO ceiling (400ms), the controller halves the interval.
  CkptSignals stuck;
  stuck.dirty_bytes = 1u << 20;
  stuck.committed_watermark = 1000;
  CkptDecision d{};
  for (int i = 0; i < 12; ++i) {
    d = c.Decide(stuck, now);
    now += 40000;
  }
  EXPECT_LT(d.next_delay_us, calm.next_delay_us * 7 / 10);
}

// ------------------------------------------------------- delta-chain store

constexpr uint64_t kFaultScope = 77;

std::unique_ptr<FasterStore> NewStore(bool faulty_log = false,
                                      uint64_t buckets = 1 << 10) {
  FasterOptions options;
  options.index_buckets = buckets;
  if (faulty_log) {
    options.log_device = std::make_unique<FaultDevice>(
        std::make_unique<MemoryDevice>(), kFaultScope);
  } else {
    options.log_device = std::make_unique<MemoryDevice>();
  }
  options.meta_device = std::make_unique<MemoryDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

Version Checkpoint(FasterStore* store, bool image, bool delta,
                   bool expect_durable = true) {
  Version token = kInvalidVersion;
  std::atomic<bool> durable{false};
  Status s = store->PerformCheckpoint(
      store->CurrentVersion() + 1, [&](Version) { durable.store(true); },
      &token, CheckpointHints{.index_image = image, .delta = delta});
  EXPECT_TRUE(s.ok()) << s.ToString();
  store->WaitForCheckpoints();
  EXPECT_EQ(durable.load(), expect_durable);
  return token;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  const auto bit = before.counters.find(name);
  const auto ait = after.counters.find(name);
  const uint64_t b = bit == before.counters.end() ? 0 : bit->second;
  const uint64_t a = ait == after.counters.end() ? 0 : ait->second;
  return a - b;
}

TEST(DeltaCheckpointTest, ChainRestoreReproducesEveryVersion) {
  auto store = NewStore();
  auto session = store->NewSession();
  // v1: keys 0..99 = 1000+k, full image base.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(session->Upsert(k, 1000 + k).ok());
  }
  const Version t1 = Checkpoint(store.get(), /*image=*/true, /*delta=*/false);
  // v2: overwrite a subset, delta on t1.
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(session->Upsert(k, 2000 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true, true);
  // v3: another subset and some fresh keys, delta on t2.
  for (uint64_t k = 10; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 3000 + k).ok());
  }
  for (uint64_t k = 100; k < 110; ++k) {
    ASSERT_TRUE(session->Upsert(k, 3000 + k).ok());
  }
  const Version t3 = Checkpoint(store.get(), true, true);
  ASSERT_LT(t1, t2);
  ASSERT_LT(t2, t3);
  // Un-checkpointed writes that must vanish.
  ASSERT_TRUE(session->Upsert(0, uint64_t{9999}).ok());
  session.reset();

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t3, &restored).ok());
  EXPECT_EQ(restored, t3);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), 1u)
      << "a full delta chain must restore from images, not a log scan";
  EXPECT_EQ(CounterDelta(before, after, "ckpt.scan_restores"), 0u);

  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 110; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    uint64_t want = 1000 + k;
    if (k < 20) want = 2000 + k;
    if (k >= 10 && k < 30) want = 3000 + k;
    if (k >= 100) want = 3000 + k;
    EXPECT_EQ(v, want) << "key " << k;
  }
  // 100 v1 appends + 20 v2 + 30 v3 = 150 log records at the t3 stamp (the
  // counter tracks appended records, not live keys); the post-t3 write was
  // never stamped and must not be counted after the restore.
  EXPECT_EQ(store->approximate_record_count(), 150u)
      << "chain restore must reinstate the record counter from the image";
}

TEST(DeltaCheckpointTest, RestoreAtMidChainToken) {
  // Crash "between delta and base": the recovery cut lands on a delta in
  // the middle of the chain, so restore must walk back to the base and
  // NOT apply the newer delta above it.
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Upsert(k, 100 + k).ok());
  }
  Checkpoint(store.get(), true, false);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(session->Upsert(k, 200 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true, true);
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Upsert(k, 300 + k).ok());
  }
  Checkpoint(store.get(), true, true);
  session.reset();

  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t2, &restored).ok());
  EXPECT_EQ(restored, t2);
  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 50; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, k < 10 ? 200 + k : 100 + k) << "key " << k;
  }
}

TEST(DeltaCheckpointTest, CoveringRestoreOverChainGap) {
  // A mid-chain checkpoint whose flush failed leaves a token gap; restoring
  // into the gap must anchor on the next durable checkpoint's chain and
  // purge only the overshoot.
  ScopedFaultPlane plane(/*seed=*/7);
  auto store = NewStore(/*faulty_log=*/true);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 100 + k).ok());
  }
  Checkpoint(store.get(), true, false);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 200 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true, true);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 300 + k).ok());
  }
  // t3's log flush fails: the token never becomes durable.
  FaultPlane::Instance().Arm({.point = faults::kDevWriteFail,
                              .scope = kFaultScope,
                              .max_fires = 64});
  const Version t3 = Checkpoint(store.get(), true, true,
                                /*expect_durable=*/false);
  FaultPlane::Instance().Disarm(faults::kDevWriteFail);
  ASSERT_EQ(store->LargestDurableToken(), t2);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 400 + k).ok());
  }
  const Version t4 = Checkpoint(store.get(), true, true);
  ASSERT_EQ(store->LargestDurableToken(), t4);
  session.reset();

  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t3, &restored).ok());
  // Covering restore: t3 sits in the gap, t4's flushed prefix covers it.
  EXPECT_EQ(restored, t3);
  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 40; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, 300 + k) << "key " << k
                          << ": v3 writes survive, v4 overshoot purged";
  }
}

TEST(DeltaCheckpointTest, LegacyCheckpointsStillScanRestore) {
  // Image-less checkpoints (the historical record type) have no chain;
  // recovery must fall back to the full log scan and still be correct.
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 5 + k).ok());
  }
  const Version t1 = Checkpoint(store.get(), /*image=*/false,
                                /*delta=*/false);
  session.reset();

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t1, &restored).ok());
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "ckpt.scan_restores"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), 0u);
  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 30; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok());
    EXPECT_EQ(v, 5 + k);
  }
}

TEST(DeltaCheckpointTest, CrashBeforeFinishCompactionKeepsChainRestorable) {
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 10 + k).ok());
  }
  const Version t1 = Checkpoint(store.get(), true, false);
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 20 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true, true);
  // Compaction starts (copies live records, takes its forced-full
  // checkpoint) but the crash lands before FinishCompaction: nothing has
  // been reclaimed yet and every checkpoint must still restore.
  Version ct = kInvalidVersion;
  ASSERT_TRUE(store->StartCompaction(t1, &ct).ok());
  store->WaitForCheckpoints();
  session.reset();

  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t2, &restored).ok());
  EXPECT_EQ(restored, t2);
  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 60; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, 20 + k);
  }
}

TEST(DeltaCheckpointTest, ChainFromCompactionBaseAfterFinish) {
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 10 + k).ok());
  }
  const Version t1 = Checkpoint(store.get(), true, false);
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 20 + k).ok());
  }
  Checkpoint(store.get(), true, true);
  Version ct = kInvalidVersion;
  ASSERT_TRUE(store->StartCompaction(t1, &ct).ok());
  store->WaitForCheckpoints();
  ASSERT_TRUE(store->FinishCompaction(ct, ct).ok());
  // Post-compaction deltas chain off the compaction's forced-full image —
  // the older checkpoints below it are gone.
  for (uint64_t k = 30; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 30 + k).ok());
  }
  const Version t3 = Checkpoint(store.get(), true, true);
  session.reset();

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t3, &restored).ok());
  EXPECT_EQ(restored, t3);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), 1u);
  auto reader = store->NewSession();
  for (uint64_t k = 0; k < 60; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, k < 30 ? 20 + k : 30 + k) << "key " << k;
  }
}

// Copies the first `n` bytes of `src` into a fresh, fully synced device: the
// files a restarted process finds after a crash that tore the rest away.
std::unique_ptr<Device> DurablePrefix(Device* src, uint64_t n) {
  std::string bytes(n, '\0');
  EXPECT_TRUE(SyncIo::Read(src, 0, bytes.data(), n).ok());
  auto copy = std::make_unique<MemoryDevice>();
  EXPECT_TRUE(SyncIo::Write(copy.get(), 0, bytes.data(), n).ok());
  EXPECT_TRUE(SyncIo::Fsync(copy.get()).ok());
  return copy;
}

TEST(DeltaCheckpointTest, OverflowChainRestoresAtEveryWalTruncation) {
  // 16 buckets of 7 entries hold at most 112 entries, so 240 keys put much
  // of every image into overflow buckets, whose layout a chain restore
  // rebuilds from (bucket, entry word) pairs alone. Cutting the meta WAL at
  // every byte restarts from each durable chain prefix in turn, torn last
  // records included. Image-less checkpoints restore from the newest image
  // below them plus a walk of the log above its boundary.
  constexpr uint64_t kBuckets = 16;
  constexpr uint64_t kKeys = 240;
  MemoryDevice log;
  MemoryDevice meta;
  std::map<Version, std::map<uint64_t, uint64_t>> states;
  {
    FasterOptions options;
    options.index_buckets = kBuckets;
    options.page_bits = 12;
    options.log_device = std::make_unique<DeviceSlice>(&log, 0);
    options.meta_device = std::make_unique<DeviceSlice>(&meta, 0);
    FasterStore store(std::move(options));
    auto session = store.NewSession();
    std::map<uint64_t, uint64_t> live;
    auto write = [&](uint64_t lo, uint64_t hi, uint64_t round) {
      for (uint64_t k = lo; k < hi; ++k) {
        ASSERT_TRUE(session->Upsert(k, round * 1000 + k).ok());
        live[k] = round * 1000 + k;
      }
    };
    write(0, 200, 1);
    states[Checkpoint(&store, /*image=*/true, /*delta=*/false)] = live;
    write(0, 50, 2);
    states[Checkpoint(&store, true, true)] = live;
    write(200, kKeys, 3);
    write(100, 120, 3);
    states[Checkpoint(&store, true, true)] = live;
    write(120, 140, 4);
    states[Checkpoint(&store, /*image=*/false, false)] = live;
    write(0, 10, 5);
    states[Checkpoint(&store, true, true)] = live;
    write(150, 170, 6);
    states[Checkpoint(&store, false, false)] = live;
    write(0, kKeys, 7);  // never checkpointed
  }
  states[kInvalidVersion] = {};
  const uint64_t log_size = log.Size();
  const uint64_t meta_size = meta.Size();

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  uint64_t image_restores = 0;
  for (uint64_t cut = 0; cut <= meta_size; ++cut) {
    FasterOptions options;
    options.index_buckets = kBuckets;
    options.page_bits = 12;
    options.log_device = DurablePrefix(&log, log_size);
    options.meta_device = DurablePrefix(&meta, cut);
    FasterStore store(std::move(options));
    store.SimulateCrash();  // replays the meta WAL as a restart would
    const Version token = store.LargestDurableToken();
    if (token != kInvalidVersion) ++image_restores;
    Version restored = kInvalidVersion;
    ASSERT_TRUE(store.RestoreCheckpoint(token, &restored).ok())
        << "cut " << cut;
    ASSERT_EQ(restored, token);
    const std::map<uint64_t, uint64_t>& want = states.at(token);
    auto reader = store.NewSession();
    for (uint64_t k = 0; k < kKeys; ++k) {
      uint64_t v = 0;
      const auto it = want.find(k);
      if (it == want.end()) {
        ASSERT_TRUE(reader->Read(k, &v).IsNotFound())
            << "cut " << cut << " key " << k;
      } else {
        ASSERT_TRUE(reader->Read(k, &v).ok()) << "cut " << cut << " key " << k;
        ASSERT_EQ(v, it->second) << "cut " << cut << " key " << k;
      }
    }
  }
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_GT(image_restores, 0u);
  EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), image_restores)
      << "every restart with a durable image must restore from its chain";
}

// ------------------------------------------- flush-failure regression (bug)

TEST(FlushFailureTest, FailedFlushDoesNotWedgePipeline) {
  // Regression: a failed checkpoint flush must (a) not advance
  // flushed_until_ or register the token, (b) never fire the persistence
  // callback, (c) reset checkpoint_active_/flush_in_progress_ so the NEXT
  // checkpoint is admitted and becomes durable, and (d) leave
  // WaitForCheckpoints returning promptly.
  ScopedFaultPlane plane(/*seed=*/11);
  auto store = NewStore(/*faulty_log=*/true);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(session->Upsert(k, 7 + k).ok());
  }
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  FaultPlane::Instance().Arm({.point = faults::kDevWriteFail,
                              .scope = kFaultScope,
                              .max_fires = 64});
  std::atomic<int> calls{0};
  Version t1 = kInvalidVersion;
  ASSERT_TRUE(store
                  ->PerformCheckpoint(
                      store->CurrentVersion() + 1,
                      [&](Version) { calls.fetch_add(1); }, &t1,
                      CheckpointHints{.index_image = true, .delta = false})
                  .ok());
  store->WaitForCheckpoints();  // (d) must return despite the failure
  FaultPlane::Instance().Disarm(faults::kDevWriteFail);
  EXPECT_EQ(calls.load(), 0) << "failed flush must not report durability";
  EXPECT_EQ(store->LargestDurableToken(), kInvalidVersion);

  // (c) the pipeline is not wedged: the next checkpoint goes through.
  ASSERT_TRUE(session->Upsert(1, uint64_t{99}).ok());
  const Version t2 = Checkpoint(store.get(), true, false);
  EXPECT_GT(t2, t1);
  EXPECT_EQ(store->LargestDurableToken(), t2);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "faster.flush_failures"), 1u);
  // (satellite: gauge audit) the failure path must pop its queue entry.
  EXPECT_EQ(after.gauges.at("faster.flush_queue_depth"), 0);

  // And the durable state restores: the failed token's writes are covered
  // by t2's flush, so everything written before t2 survives.
  session.reset();
  store->SimulateCrash();
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store->RestoreCheckpoint(t2, &restored).ok());
  EXPECT_EQ(restored, t2);
  auto reader = store->NewSession();
  uint64_t v = 0;
  ASSERT_TRUE(reader->Read(1, &v).ok());
  EXPECT_EQ(v, 99u);
  for (uint64_t k = 2; k < 32; ++k) {
    ASSERT_TRUE(reader->Read(k, &v).ok());
    EXPECT_EQ(v, 7 + k);
  }
}

}  // namespace
}  // namespace dpr
