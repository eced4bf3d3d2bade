// Checkpoint plane (`ctest -L ckpt`): the cadence controller's decision
// logic, the tick loop's kick and Busy retry, the store's full/delta choice, delta-checkpoint chains through
// crash/restore, covering restores over a chain gap, compaction interplay,
// and the flush-failure regression (a failed checkpoint flush must never
// wedge the pipeline).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/cadence.h"
#include "common/clock.h"
#include "common/sync.h"
#include "faster/faster_store.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"
#include "storage/wal.h"

namespace dpr {
namespace {

// ------------------------------------------------------- cadence controller

constexpr uint64_t kBaseUs = 100000;

TEST(CkptCadenceTest, FirstCheckpointIssuesEvenWhenIdle) {
  CkptCadenceController c(kBaseUs);
  // An idle shard still gets one initial checkpoint (the finder needs a
  // first reported version before the cut can ever cover this worker)...
  const CkptDecision first = c.Decide(CkptSignals{}, 1000);
  EXPECT_EQ(first.action, CkptAction::kCheckpoint);
  // ...and only then starts skipping, at the RPO ceiling.
  for (int i = 0; i < 3; ++i) {
    const CkptDecision d = c.Decide(CkptSignals{}, 1000 + (i + 1) * 100000);
    EXPECT_EQ(d.action, CkptAction::kSkip);
    EXPECT_EQ(d.next_delay_us, 100000u);
  }
}

TEST(CkptCadenceTest, HotShardClampsToMinInterval) {
  // base interval -> floor: a quarter of the base, at least 1ms; below
  // 1ms the ceiling is pulled up to the floor.
  const std::map<uint64_t, uint64_t> cases = {
      {100000, 25000}, {2000, 1000}, {500, 1000}};
  for (const auto& [base_us, floor_us] : cases) {
    CkptCadenceController c(base_us);
    uint64_t now = 1000000;
    CkptDecision d{};
    for (int i = 0; i < 30; ++i) {
      // 16 MiB of fresh log every 10ms: the rate-derived interval
      // (1 MiB target / ~1678 B/us) is far below the floor.
      d = c.Decide(CkptSignals{.dirty_bytes = 16u << 20}, now);
      now += 10000;
    }
    EXPECT_EQ(d.next_delay_us, floor_us) << "base_us=" << base_us;
    EXPECT_EQ(d.action, CkptAction::kCheckpoint);
  }
}

TEST(CkptCadenceTest, TrickleIngestStretchesToRpoCeiling) {
  CkptCadenceController c(kBaseUs);
  uint64_t now = 1000000;
  CkptDecision d{};
  for (int i = 0; i < 10; ++i) {
    // A few bytes per 100ms: the interval wants to be huge.
    d = c.Decide(CkptSignals{.dirty_bytes = 16}, now);
    now += 100000;
  }
  EXPECT_EQ(d.next_delay_us, 100000u) << "never stretches past the RPO";
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

// An image checkpoint is a full or delta image at the store's choice.
Version Checkpoint(FasterStore* store, bool image,
                   bool expect_durable = true) {
  Version token = kInvalidVersion;
  std::atomic<bool> durable{false};
  Status s = store->PerformCheckpoint(
      store->CurrentVersion() + 1, [&](Version) { durable.store(true); },
      &token, CheckpointHints{.index_image = image});
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
  const Version t1 = Checkpoint(store.get(), /*image=*/true);
  // v2: overwrite a subset, delta on t1.
  for (uint64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(session->Upsert(k, 2000 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true);
  // v3: another subset and some fresh keys, delta on t2.
  for (uint64_t k = 10; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 3000 + k).ok());
  }
  for (uint64_t k = 100; k < 110; ++k) {
    ASSERT_TRUE(session->Upsert(k, 3000 + k).ok());
  }
  const Version t3 = Checkpoint(store.get(), true);
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
  Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(session->Upsert(k, 200 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(session->Upsert(k, 300 + k).ok());
  }
  Checkpoint(store.get(), true);
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
  Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 200 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 300 + k).ok());
  }
  // t3's log flush fails: the token never becomes durable.
  FaultPlane::Instance().Arm({.point = faults::kDevWriteFail,
                              .scope = kFaultScope,
                              .max_fires = 64});
  const Version t3 = Checkpoint(store.get(), true,
                                /*expect_durable=*/false);
  FaultPlane::Instance().Disarm(faults::kDevWriteFail);
  ASSERT_EQ(store->LargestDurableToken(), t2);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(session->Upsert(k, 400 + k).ok());
  }
  const Version t4 = Checkpoint(store.get(), true);
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
  const Version t1 = Checkpoint(store.get(), /*image=*/false);
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
  const Version t1 = Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 20 + k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true);
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
  const Version t1 = Checkpoint(store.get(), true);
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 20 + k).ok());
  }
  Checkpoint(store.get(), true);
  Version ct = kInvalidVersion;
  ASSERT_TRUE(store->StartCompaction(t1, &ct).ok());
  store->WaitForCheckpoints();
  ASSERT_TRUE(store->FinishCompaction(ct, ct).ok());
  // Post-compaction deltas chain off the compaction's forced-full image —
  // the older checkpoints below it are gone.
  for (uint64_t k = 30; k < 60; ++k) {
    ASSERT_TRUE(session->Upsert(k, 30 + k).ok());
  }
  const Version t3 = Checkpoint(store.get(), true);
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
    states[Checkpoint(&store, /*image=*/true)] = live;
    write(0, 50, 2);
    states[Checkpoint(&store, true)] = live;
    write(200, kKeys, 3);
    write(100, 120, 3);
    states[Checkpoint(&store, true)] = live;
    write(120, 140, 4);
    states[Checkpoint(&store, /*image=*/false)] = live;
    write(0, 10, 5);
    states[Checkpoint(&store, true)] = live;
    write(150, 170, 6);
    states[Checkpoint(&store, false)] = live;
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

TEST(DeltaCheckpointTest, StoreStartsAFreshFullImageEverySixteenLinks) {
  // Full or delta is the store's choice alone: 17 image checkpoints persist
  // as a full image, 15 deltas over it, then a fresh full image once the
  // chain has 16 links. A restart restores each token from its own chain.
  constexpr uint64_t kCheckpoints = 17;
  MemoryDevice log;
  MemoryDevice meta;
  std::vector<Version> tokens;
  std::map<Version, std::map<uint64_t, uint64_t>> states;
  {
    FasterOptions options;
    options.index_buckets = 1 << 10;
    options.log_device = std::make_unique<DeviceSlice>(&log, 0);
    options.meta_device = std::make_unique<DeviceSlice>(&meta, 0);
    FasterStore store(std::move(options));
    auto session = store.NewSession();
    std::map<uint64_t, uint64_t> live;
    std::string kinds;
    for (uint64_t i = 0; i < kCheckpoints; ++i) {
      // Overlapping key ranges: each checkpoint rewrites half of the last
      // one's keys and adds as many new ones.
      for (uint64_t k = 4 * i; k < 4 * i + 8; ++k) {
        ASSERT_TRUE(session->Upsert(k, 1000 * i + k).ok());
        live[k] = 1000 * i + k;
      }
      const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
      const Version t = Checkpoint(&store, /*image=*/true);
      const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
      const uint64_t full = CounterDelta(before, after, "ckpt.full");
      const uint64_t delta = CounterDelta(before, after, "ckpt.delta");
      ASSERT_EQ(full + delta, 1u) << "checkpoint " << i;
      kinds += full == 1 ? 'F' : 'D';
      tokens.push_back(t);
      states[t] = live;
    }
    EXPECT_EQ(kinds, "F" + std::string(15, 'D') + "F");
  }

  for (uint64_t i = 0; i < kCheckpoints; ++i) {
    const Version token = tokens[i];
    FasterOptions options;
    options.index_buckets = 1 << 10;
    options.log_device = DurablePrefix(&log, log.Size());
    options.meta_device = DurablePrefix(&meta, meta.Size());
    FasterStore store(std::move(options));
    store.SimulateCrash();  // replays the meta WAL as a restart would
    const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
    Version restored = kInvalidVersion;
    ASSERT_TRUE(store.RestoreCheckpoint(token, &restored).ok()) << i;
    ASSERT_EQ(restored, token);
    const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
    EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), 1u) << i;
    // The restore installs the chain up to its token: i + 1 images inside
    // the first chain, one for the fresh full image.
    const uint64_t links = i < 16 ? i + 1 : 1;
    EXPECT_EQ(after.histograms.at("ckpt.chain_length").sum() -
                  before.histograms.at("ckpt.chain_length").sum(),
              links)
        << i;
    auto reader = store.NewSession();
    for (uint64_t k = 0; k < 4 * kCheckpoints + 4; ++k) {
      uint64_t v = 0;
      const auto it = states.at(token).find(k);
      if (it == states.at(token).end()) {
        ASSERT_TRUE(reader->Read(k, &v).IsNotFound()) << i << " key " << k;
      } else {
        ASSERT_TRUE(reader->Read(k, &v).ok()) << i << " key " << k;
        ASSERT_EQ(v, it->second) << i << " key " << k;
      }
    }
  }
}

// Offset and length of every record in the meta WAL of `meta`, read from a
// durable copy so the counts below see none of these reads.
std::vector<std::pair<uint64_t, uint64_t>> WalRecords(Device* meta) {
  WriteAheadLog wal(DurablePrefix(meta, meta->Size()));
  std::vector<std::pair<uint64_t, uint64_t>> records;
  EXPECT_TRUE(wal.Replay([&](uint64_t offset, Slice rec) {
                   records.emplace_back(offset, rec.size());
                 }).ok());
  return records;
}

TEST(DeltaCheckpointTest, CorruptImageBodyFallsBackToAScanRestore) {
  // An image body is CRC-checked when a restore installs it, not when the
  // crash replays the meta WAL. A flipped byte in the chain's full image
  // must send the restore down the log scan, which still restores the
  // token exactly.
  MemoryDevice meta;
  FasterOptions options;
  options.index_buckets = 1 << 10;
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<DeviceSlice>(&meta, 0);
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  std::map<uint64_t, uint64_t> live;
  for (uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(session->Upsert(k, 100 + k).ok());
    live[k] = 100 + k;
  }
  Checkpoint(&store, /*image=*/true);
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(session->Upsert(k, 200 + k).ok());
    live[k] = 200 + k;
  }
  const Version t2 = Checkpoint(&store, true);
  ASSERT_TRUE(session->Upsert(0, uint64_t{9999}).ok());  // never stamped
  session.reset();

  // The longest record is the full image's body.
  const auto records = WalRecords(&meta);
  ASSERT_FALSE(records.empty());
  const auto body = *std::max_element(
      records.begin(), records.end(),
      [](const auto& x, const auto& y) { return x.second < y.second; });
  char byte;
  const uint64_t at = body.first + 8 + body.second / 2;
  ASSERT_TRUE(SyncIo::Read(&meta, at, &byte, 1).ok());
  byte ^= 0x5a;
  ASSERT_TRUE(SyncIo::Write(&meta, at, &byte, 1).ok());
  ASSERT_TRUE(SyncIo::Fsync(&meta).ok());

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  store.SimulateCrash();
  ASSERT_EQ(store.LargestDurableToken(), t2)
      << "the replay registers the descriptors without reading the bodies";
  Version restored = kInvalidVersion;
  ASSERT_TRUE(store.RestoreCheckpoint(t2, &restored).ok());
  EXPECT_EQ(restored, t2);
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "ckpt.scan_restores"), 1u);
  EXPECT_EQ(CounterDelta(before, after, "ckpt.chain_restores"), 0u);
  auto reader = store.NewSession();
  for (uint64_t k = 0; k < 300; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
    EXPECT_EQ(v, live.at(k)) << "key " << k;
  }
}

// A meta device that counts the bytes read through it.
class ReadCountingDevice : public Device {
 public:
  explicit ReadCountingDevice(Device* base) : base_(base) {}
  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override {
    base_->SubmitWrite(offset, data, n, std::move(done));
  }
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override {
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
    base_->SubmitRead(offset, buf, n, std::move(done));
  }
  // SyncIo::Fsync fsyncs the base's root directly.
  void SubmitFsync(IoCallback done) override { done(SyncIo::Fsync(base_)); }
  uint64_t Size() const override { return base_->Size(); }
  void SimulateCrash() override { base_->SimulateCrash(); }
  void Truncate(uint64_t new_size) override { base_->Truncate(new_size); }
  Device* SyncRoot() override { return base_->SyncRoot(); }
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 private:
  Device* base_;
  std::atomic<uint64_t> bytes_read_{0};
};

TEST(DeltaCheckpointTest, CrashReplayReadsNoImageBodies) {
  // The crash replay must cost a few dozen bytes a record, however large
  // the images are: it registers descriptors and skips image bodies.
  for (const uint64_t keys : {uint64_t{500}, uint64_t{5000}}) {
    MemoryDevice meta;
    FasterOptions options;
    options.index_buckets = 1 << 12;
    options.log_device = std::make_unique<MemoryDevice>();
    auto counting = std::make_unique<ReadCountingDevice>(&meta);
    ReadCountingDevice* counter = counting.get();
    options.meta_device = std::move(counting);
    FasterStore store(std::move(options));
    auto session = store.NewSession();
    Version last = kInvalidVersion;
    for (uint64_t round = 0; round < 6; ++round) {
      // Every round rewrites half the keys: one full image, then deltas,
      // with an image-less checkpoint in between.
      for (uint64_t k = round % 2; k < keys; k += round == 0 ? 1 : 2) {
        ASSERT_TRUE(session->Upsert(k, round * 100000 + k).ok());
      }
      last = Checkpoint(&store, /*image=*/round != 3);
    }
    session.reset();
    const uint64_t records = WalRecords(&meta).size();
    ASSERT_GE(records, 6u);

    const uint64_t read_before = counter->bytes_read();
    store.SimulateCrash();
    const uint64_t replay_bytes = counter->bytes_read() - read_before;
    EXPECT_LT(replay_bytes, 64 * records)
        << keys << " keys: the replay read " << replay_bytes << " of "
        << meta.Size() << " meta-WAL bytes";
    Version restored = kInvalidVersion;
    ASSERT_TRUE(store.RestoreCheckpoint(last, &restored).ok());
    EXPECT_EQ(restored, last);
    auto reader = store.NewSession();
    for (uint64_t k = 0; k < keys; ++k) {
      uint64_t v = 0;
      ASSERT_TRUE(reader->Read(k, &v).ok()) << "key " << k;
      EXPECT_EQ(v, (k % 2 == 1 ? 500000 : 400000) + k) << "key " << k;
    }
  }
}

uint64_t HistogramCountDelta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after,
                             const std::string& name) {
  const auto bit = before.histograms.find(name);
  const auto ait = after.histograms.find(name);
  const uint64_t b = bit == before.histograms.end() ? 0 : bit->second.count();
  const uint64_t a = ait == after.histograms.end() ? 0 : ait->second.count();
  return a - b;
}

TEST(DeltaCheckpointTest, ColdRestoreRecordsEachStageOnce) {
  auto store = NewStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(session->Upsert(k, k).ok());
  }
  Checkpoint(store.get(), /*image=*/true);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(session->Upsert(k, 2 * k).ok());
  }
  const Version t2 = Checkpoint(store.get(), true);
  session.reset();

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  store->SimulateCrash();
  ASSERT_TRUE(store->RestoreCheckpoint(t2, nullptr).ok());
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  for (const char* stage :
       {"faster.restore.meta_replay_us", "faster.restore.log_load_us",
        "faster.restore.image_install_us", "faster.restore.total_us"}) {
    EXPECT_EQ(HistogramCountDelta(before, after, stage), 1u) << stage;
  }
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
                      CheckpointHints{.index_image = true})
                  .ok());
  store->WaitForCheckpoints();  // (d) must return despite the failure
  FaultPlane::Instance().Disarm(faults::kDevWriteFail);
  EXPECT_EQ(calls.load(), 0) << "failed flush must not report durability";
  EXPECT_EQ(store->LargestDurableToken(), kInvalidVersion);

  // (c) the pipeline is not wedged: the next checkpoint goes through.
  ASSERT_TRUE(session->Upsert(1, uint64_t{99}).ok());
  const Version t2 = Checkpoint(store.get(), true);
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

// ---------------------------------------------------------------- tick loop

// A CkptLoop checkpoint that records when it ran, and answers Busy (a
// previous checkpoint still flushing) while `busy` is set.
class TickRecorder {
 public:
  Status Checkpoint() {
    if (busy.load()) {
      busy_answers.fetch_add(1);
      return Status::Busy("previous checkpoint still flushing");
    }
    MutexLock guard(mu_);
    at_us_.push_back(NowMicros());
    return Status::OK();
  }

  /// When the `n`th checkpoint ran, waiting up to `timeout_us` for it; 0 if
  /// it did not.
  uint64_t WaitFor(size_t n, uint64_t timeout_us) {
    const uint64_t deadline = NowMicros() + timeout_us;
    do {
      {
        MutexLock guard(mu_);
        if (at_us_.size() >= n) return at_us_[n - 1];
      }
      SleepMicros(200);
    } while (NowMicros() < deadline);
    return 0;
  }

  size_t count() {
    MutexLock guard(mu_);
    return at_us_.size();
  }

  std::atomic<bool> busy{false};
  std::atomic<int> busy_answers{0};

 private:
  Mutex mu_;
  std::vector<uint64_t> at_us_ GUARDED_BY(mu_);
};

// Polls `done` every 200 us for up to `timeout_us`; returns its last value.
template <typename Pred>
bool Eventually(Pred done, uint64_t timeout_us) {
  const uint64_t deadline = NowMicros() + timeout_us;
  while (!done() && NowMicros() < deadline) SleepMicros(200);
  return done();
}

TEST(CkptLoopTest, KickEndsTheSleepButAnIdleShardStillSkips) {
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  TickRecorder rec;
  std::atomic<int> samples{0};
  CkptLoop loop(
      /*interval_us=*/1000000,
      [&] {
        samples.fetch_add(1);
        return CkptSignals{};  // idle
      },
      [&] { return rec.Checkpoint(); });
  loop.Start();
  SleepMicros(20000);
  const uint64_t kick_us = NowMicros();
  loop.Kick();
  const uint64_t first = rec.WaitFor(1, 500000);
  ASSERT_NE(first, 0u) << "a kick must end the 1 s sleep";
  EXPECT_LT(first - kick_us, 50000u);
  // The controller's first decision always checkpoints; after it, an idle
  // shard skips even when kicked.
  loop.Kick();
  ASSERT_TRUE(Eventually([&] { return samples.load() >= 2; }, 500000));
  SleepMicros(20000);
  EXPECT_EQ(rec.count(), 1u);
  loop.Stop();
  EXPECT_EQ(CounterDelta(before, MetricsRegistry::Default().Snapshot(),
                         "ckpt.loop.kicks"),
            2u);
}

TEST(CkptLoopTest, WaitAfterAKickedTickIsAtMostTheFloor) {
  TickRecorder rec;
  // 400 ms interval, so a 100 ms floor. Unset signals read as always dirty,
  // which at one byte per tick keeps the cadence at the 400 ms ceiling.
  CkptLoop loop(/*interval_us=*/400000, nullptr,
                [&] { return rec.Checkpoint(); });
  loop.Start();
  loop.Kick();
  const uint64_t t1 = rec.WaitFor(1, 300000);
  const uint64_t t2 = rec.WaitFor(2, 600000);
  const uint64_t t3 = rec.WaitFor(3, 1000000);
  loop.Stop();
  ASSERT_NE(t1, 0u);
  ASSERT_NE(t2, 0u);
  ASSERT_NE(t3, 0u);
  EXPECT_LT(t2 - t1, 250000u) << "the tick after a kick waits the floor";
  EXPECT_GT(t3 - t2, 250000u) << "later ticks are back at the cadence";
}

TEST(CkptLoopTest, BusyCheckpointIsRetriedOnceTheFlushCompletes) {
  TickRecorder rec;
  rec.busy = true;
  CkptLoop loop(/*interval_us=*/400000, nullptr,
                [&] { return rec.Checkpoint(); });
  loop.Start();
  // The first tick (400 ms in) finds the previous checkpoint flushing.
  ASSERT_TRUE(Eventually([&] { return rec.busy_answers.load() > 0; },
                         1000000));
  SleepMicros(30000);
  const uint64_t flushed_us = NowMicros();
  rec.busy = false;
  const uint64_t t = rec.WaitFor(1, 1000000);
  loop.Stop();
  ASSERT_NE(t, 0u);
  EXPECT_LT(t - flushed_us, 100000u)
      << "retried once the flush completed, not a 400 ms tick later";
}

TEST(CkptLoopTest, StopWakesALongSleep) {
  TickRecorder rec;
  CkptLoop loop(/*interval_us=*/10000000, nullptr,
                [&] { return rec.Checkpoint(); });
  loop.Start();
  SleepMicros(10000);
  const uint64_t stop_us = NowMicros();
  loop.Stop();
  EXPECT_LT(NowMicros() - stop_us, 1000000u);
  EXPECT_EQ(rec.count(), 0u);
}

}  // namespace
}  // namespace dpr
