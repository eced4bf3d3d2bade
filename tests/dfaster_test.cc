#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/sync.h"
#include "dfaster/protocol.h"
#include "fault/fault_plane.h"
#include "harness/cluster.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

TEST(KvProtocolTest, BatchCodecRoundTrip) {
  KvBatchRequest req;
  req.header.session_id = 9;
  req.header.world_line = 2;
  req.header.version = 5;
  req.header.deps = {{0, 3}, {1, 4}};
  req.ops.push_back(KvOp{KvOp::Type::kUpsert, 11, 22});
  req.ops.push_back(KvOp{KvOp::Type::kRead, 33, 0});
  std::string encoded;
  req.EncodeTo(&encoded);
  KvBatchRequest decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded));
  EXPECT_EQ(decoded.header.session_id, 9u);
  EXPECT_EQ(decoded.header.deps, req.header.deps);
  ASSERT_EQ(decoded.ops.size(), 2u);
  EXPECT_EQ(decoded.ops[0].key, 11u);

  KvBatchResponse resp;
  resp.header.executed_version = 5;
  resp.results.push_back(KvOpResult{KvResult::kOk, 22});
  std::string out;
  resp.EncodeTo(&out);
  KvBatchResponse decoded_resp;
  ASSERT_TRUE(decoded_resp.DecodeFrom(out));
  EXPECT_EQ(decoded_resp.header.executed_version, 5u);
  ASSERT_EQ(decoded_resp.results.size(), 1u);
  EXPECT_EQ(decoded_resp.results[0].value, 22u);
}

TEST(KvProtocolTest, MalformedInputRejected) {
  KvBatchRequest req;
  EXPECT_FALSE(req.DecodeFrom("short"));
  KvBatchResponse resp;
  EXPECT_FALSE(resp.DecodeFrom(""));
}

ClusterOptions SmallCluster(uint32_t workers = 2) {
  ClusterOptions options;
  options.num_workers = workers;
  options.checkpoint_interval_us = 20000;
  options.finder_interval_us = 5000;
  // Real (memory-backed) durable devices: failure tests recover actual data.
  // (The null backend discards checkpoint bytes by design.)
  options.backend = StorageBackend::kLocal;
  return options;
}

TEST(DFasterClusterTest, BasicReadWriteAcrossShards) {
  DFasterCluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/8, /*window=*/64);
  auto session = client->NewSession(1);
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t k = 0; k < 200; ++k) {
    session->Upsert(k, k * 7);
    expected[k] = k * 7;
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  std::map<uint64_t, uint64_t> observed;
  Mutex mu;
  for (uint64_t k = 0; k < 200; ++k) {
    session->Read(k, [&, k](KvResult r, uint64_t v) {
      MutexLock guard(mu);
      if (r == KvResult::kOk) observed[k] = v;
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(observed, expected);
}

TEST(DFasterClusterTest, WaitForCommitDelivers) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 64);
  auto session = client->NewSession(2);
  for (uint64_t k = 0; k < 50; ++k) session->Upsert(k, k);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  const auto point = session->dpr().GetCommitPoint();
  EXPECT_GE(point.prefix_end, 50u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(DFasterClusterTest, CrossShardSessionCreatesDependencies) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/8);
  auto session = client->NewSession(3);
  // Alternate shards with batch=1 so every op is its own batch; versions
  // piggyback and the Lamport clock keeps the precedence graph monotone.
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;
  for (int i = 0; i < 20; ++i) {
    session->Upsert(key_on_0, i);
    session->Upsert(key_on_1, i);
  }
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(DFasterClusterTest, ColocatedClientLocalOps) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewColocatedClient(/*local=*/0, 4, 64);
  auto session = client->NewSession(4);
  YcsbWorkload workload({.num_keys = 1000, .seed = 3});
  for (int i = 0; i < 100; ++i) {
    session->Upsert(workload.NextKeyOnShard(0, 2), 42);  // all local
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(session->ops_failed(), 0u);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

TEST(DFasterClusterTest, EventualAndNoneModesServeOps) {
  for (RecoverabilityMode mode :
       {RecoverabilityMode::kNone, RecoverabilityMode::kEventual}) {
    ClusterOptions options = SmallCluster(2);
    options.mode = mode;
    DFasterCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    auto client = cluster.NewClient(4, 32);
    auto session = client->NewSession(5);
    for (uint64_t k = 0; k < 64; ++k) session->Upsert(k, k);
    ASSERT_TRUE(session->WaitForAll().ok());
    EXPECT_EQ(session->ops_failed(), 0u);
  }
}

TEST(DFasterClusterTest, IdleDprShardsKeepStampingIdleEventualShardsSkip) {
  // An idle kDpr shard never skips a tick: the approximate cut is the
  // minimum persisted version over all workers, so a row that stopped
  // advancing would pin every peer's commits. An idle kEventual shard has
  // nobody waiting on it, and skips after its first checkpoint.
  for (RecoverabilityMode mode :
       {RecoverabilityMode::kDpr, RecoverabilityMode::kEventual}) {
    ClusterOptions options = SmallCluster(2);
    options.mode = mode;
    DFasterCluster cluster(options);
    ASSERT_TRUE(cluster.Start().ok());
    SleepMicros(100000);  // past the first tick, which always checkpoints
    const Version before = cluster.worker(0)->store()->CurrentVersion();
    SleepMicros(200000);  // ten 20 ms intervals
    const Version after = cluster.worker(0)->store()->CurrentVersion();
    if (mode == RecoverabilityMode::kDpr) {
      EXPECT_GE(after, before + 3) << "an idle kDpr shard stopped stamping";
    } else {
      EXPECT_GE(before, 2u);
      EXPECT_EQ(after, before) << "an idle kEventual shard checkpointed";
    }
  }
}

TEST(DFasterClusterTest, EventualCheckpointsEveryMillisecondKeepBatchesOut) {
  // kEventual checkpoints tick every 1 ms while two threads stream batches
  // into 4 KiB log pages, so a page fills every ~100 upserts. Each
  // checkpoint draws its boundary under the exclusive batch latch: no batch
  // is mid-append, so every record below the boundary is complete and its
  // page exists when the flush thread copies it.
  DFasterWorkerConfig config;
  config.mode = RecoverabilityMode::kEventual;
  config.faster.page_bits = 12;
  config.faster.index_buckets = 1 << 10;
  config.dpr.checkpoint_interval_us = 1000;
  DFasterWorker worker(std::move(config));
  ASSERT_TRUE(worker.Start(nullptr).ok());
  constexpr uint64_t kKeysPerThread = 512;
  std::vector<std::map<uint64_t, uint64_t>> last(2);
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const Stopwatch timer;
      for (uint64_t round = 1; timer.ElapsedMillis() < 300; ++round) {
        KvBatchRequest request;
        for (uint64_t i = 0; i < 8; ++i) {
          const uint64_t key = t * kKeysPerThread + (round * 8 + i) %
                                                        kKeysPerThread;
          request.ops.push_back(KvOp{KvOp::Type::kUpsert, key, round});
          last[t][key] = round;
        }
        KvBatchResponse response;
        worker.ExecuteBatch(request, &response);
        for (const KvOpResult& r : response.results) {
          ASSERT_EQ(r.result, KvResult::kOk);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  worker.Stop();
  EXPECT_NE(worker.store()->LargestDurableToken(), kInvalidVersion);
  auto session = worker.store()->NewSession();
  for (const auto& keys : last) {
    for (const auto& [key, value] : keys) {
      uint64_t v = 0;
      ASSERT_TRUE(session->Read(key, &v).ok()) << key;
      EXPECT_EQ(v, value) << key;
    }
  }
}

TEST(DFasterClusterTest, TcpTransportEndToEnd) {
  ClusterOptions options = SmallCluster(2);
  options.transport = TransportKind::kTcp;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(8, 64);
  auto session = client->NewSession(6);
  for (uint64_t k = 0; k < 100; ++k) session->Upsert(k, k + 1);
  ASSERT_TRUE(session->WaitForAll().ok());
  std::atomic<uint64_t> sum{0};
  for (uint64_t k = 0; k < 100; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) sum.fetch_add(v);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(sum.load(), 100u * 101 / 2);
}

// ------------------------------------------------------------------ failures

TEST(DFasterFailureTest, FailureRollsBackToCutAndSessionsRecover) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/4, /*window=*/32);
  auto session = client->NewSession(7);

  // Phase 1: write and force commit.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 1);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());

  // Phase 2: more writes, not necessarily committed, then a failure.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());

  // The session learns of the failure on its next interaction.
  for (int i = 0; i < 100 && !session->needs_failure_handling(); ++i) {
    session->Read(i % 40, nullptr);
    Status s = session->WaitForAll();
    if (!s.ok()) break;
  }
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  // Everything committed in phase 1 must survive.
  EXPECT_GE(survivors.prefix_end, 40u);

  // Phase 3: the session continues in the new world-line.
  for (uint64_t k = 0; k < 40; ++k) session->Upsert(k, 3);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  std::atomic<int> threes{0};
  for (uint64_t k = 0; k < 40; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk && v == 3) threes.fetch_add(1);
    });
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_EQ(threes.load(), 40);
}

TEST(DFasterFailureTest, PrefixConsistencyAfterCrash) {
  // The recovered state must equal a replay of a per-session prefix: with a
  // single session doing sequential upserts of increasing values to one key
  // per shard, the recovered values must form a consistent prefix: if shard
  // 1's value survived at i, every shard's value must be >= the value it
  // had when the session wrote i there earlier... simplified: committed
  // prefix reported to the client must be durable.
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/4);
  auto session = client->NewSession(8);
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;

  // Interleaved writes: op 2i writes i to shard 0, op 2i+1 writes i to 1.
  for (uint64_t i = 1; i <= 60; ++i) {
    session->Upsert(key_on_0, i);
    session->Upsert(key_on_1, i);
    if (i == 30) {
      ASSERT_TRUE(session->WaitForCommit(20000).ok());
    }
  }
  ASSERT_TRUE(session->WaitForAll().ok());
  const auto before = session->dpr().GetCommitPoint();

  ASSERT_TRUE(cluster.InjectFailure({0, 1}).ok());
  session->Read(key_on_0, nullptr);
  session->Read(key_on_1, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  // Survivors must cover at least what was already reported committed.
  EXPECT_GE(survivors.prefix_end, before.prefix_end);

  // Read back both keys; values must correspond to a prefix of the session:
  // v0 == v1 or v0 == v1 + 1 (shard 0 written first in each round), and the
  // surviving prefix implies at least 30 rounds.
  std::atomic<uint64_t> v0{0};
  std::atomic<uint64_t> v1{0};
  session->Read(key_on_0, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) v0.store(v);
  });
  session->Read(key_on_1, [&](KvResult r, uint64_t v) {
    if (r == KvResult::kOk) v1.store(v);
  });
  ASSERT_TRUE(session->WaitForAll().ok());
  EXPECT_GE(v0.load(), 30u);
  EXPECT_GE(v1.load(), 30u);
  EXPECT_TRUE(v0.load() == v1.load() || v0.load() == v1.load() + 1)
      << "v0=" << v0.load() << " v1=" << v1.load();
}

TEST(DFasterFailureTest, FailureReportsSurvivorsIssuedPastAHeldBatch) {
  // A batch to worker 1 is held in the transport while the session writes
  // to worker 0, and both workers checkpoint in between. The held batch then
  // runs in a version no checkpoint covers, and both workers crash: the
  // later write to worker 0 survived behind the lost one, and the report
  // must say so, or a client replaying its "lost" writes applies it twice.
  // The 2 s interval keeps the tick loops out of the way; the test
  // checkpoints by hand.
  ClusterOptions options = SmallCluster(2);
  options.checkpoint_interval_us = 2000000;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/4);
  auto session = client->NewSession(12);
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;

  ScopedFaultPlane plane(/*seed=*/12);
  const std::string held = "worker1";
  FaultPlane::Instance().Arm({.point = faults::kNetDelay,
                              .scope = HashBytes(held.data(), held.size()),
                              .max_fires = 1,
                              .param = 300000});
  // Seqno 0: held for 300 ms. Seqno 1: runs at once.
  struct Write {
    uint64_t key;
    uint64_t value;
  };
  const std::vector<Write> writes = {{key_on_1, 1}, {key_on_0, 2}};
  std::atomic<bool> second_done{false};
  session->Upsert(writes[0].key, writes[0].value);
  session->Upsert(writes[1].key, writes[1].value,
                  [&](KvResult, uint64_t) { second_done.store(true); });
  const Stopwatch timer;
  while (!second_done.load() && timer.ElapsedMillis() < 5000) SleepMicros(100);
  ASSERT_TRUE(second_done.load());
  // Checkpoint both workers and wait for the cut to cover the tokens.
  for (WorkerId w = 0; w < 2; ++w) {
    Status s;
    do {
      s = cluster.worker(w)->dpr_worker()->TryCommit();
    } while (s.IsBusy());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  while (cluster.finder()->PublishedVersion(0) == kInvalidVersion ||
         cluster.finder()->PublishedVersion(1) == kInvalidVersion) {
    ASSERT_LT(timer.ElapsedMillis(), 5000u);
    SleepMicros(1000);
  }
  ASSERT_TRUE(session->WaitForAll().ok());  // the held batch ran too
  ASSERT_EQ(FaultPlane::Instance().fires(faults::kNetDelay), 1u);

  ASSERT_TRUE(cluster.InjectFailure({0, 1}).ok());
  session->Read(key_on_0, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  const auto survived = [&](uint64_t seqno) {
    return seqno < survivors.prefix_end &&
           std::find(survivors.excluded.begin(), survivors.excluded.end(),
                     seqno) == survivors.excluded.end();
  };
  EXPECT_FALSE(survived(0)) << "the held write ran after both checkpoints";
  EXPECT_TRUE(survived(1)) << "prefix_end=" << survivors.prefix_end;

  // Every key holds the last write among the reported survivors.
  std::map<uint64_t, uint64_t> expected;
  for (uint64_t seqno = 0; seqno < writes.size(); ++seqno) {
    if (survived(seqno)) expected[writes[seqno].key] = writes[seqno].value;
  }
  for (uint64_t key : {key_on_0, key_on_1}) {
    KvResult result = KvResult::kError;
    uint64_t value = 0;
    session->Read(key, [&](KvResult r, uint64_t v) {
      result = r;
      value = v;
    });
    ASSERT_TRUE(session->WaitForAll().ok());
    auto it = expected.find(key);
    if (it == expected.end()) {
      EXPECT_EQ(result, KvResult::kNotFound) << "key " << key << " = " << value;
    } else {
      EXPECT_EQ(result, KvResult::kOk) << "key " << key;
      EXPECT_EQ(value, it->second) << "key " << key;
    }
  }
}

TEST(DFasterFailureTest, CommitsResumeOneCheckpointAfterRecovery) {
  // With a 2 s interval every worker's next cadence tick is far off after
  // a failure. The first batch a worker admits on the new world-line kicks
  // its checkpoint loop, so commits resume within one checkpoint.
  ClusterOptions options = SmallCluster(2);
  options.checkpoint_interval_us = 2000000;
  DFasterCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(/*batch=*/1, /*window=*/4);
  auto session = client->NewSession(10);
  uint64_t key_on_0 = 0;
  while (YcsbWorkload::ShardOf(key_on_0, 2) != 0) key_on_0++;
  uint64_t key_on_1 = 0;
  while (YcsbWorkload::ShardOf(key_on_1, 2) != 1) key_on_1++;
  session->Upsert(key_on_0, 1);
  session->Upsert(key_on_1, 1);
  // Returns just after both workers' first ticks, 2 s in.
  ASSERT_TRUE(session->WaitForCommit(20000).ok());

  const auto stamps = [] {
    const MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
    const auto it = snap.histograms.find("dpr.worker.post_recovery_stamp_us");
    return it == snap.histograms.end() ? uint64_t{0} : it->second.count();
  };
  const uint64_t stamps_before = stamps();
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());
  session->Read(key_on_0, nullptr);
  session->Read(key_on_1, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  ASSERT_TRUE(session->RecoverFromFailure(nullptr).ok());
  // One shard after the other: if the crashed worker's kicked checkpoint
  // followed the survivor's, Vmax would jump it past the survivor's open
  // version, and the approximate finder's cut would wait for its next tick.
  session->Upsert(key_on_0, 2);
  ASSERT_TRUE(session->WaitForAll().ok());
  session->Upsert(key_on_1, 2);
  EXPECT_TRUE(session->WaitForCommit(400).ok());
  // Both workers rolled back and stamped a checkpoint since.
  EXPECT_EQ(stamps() - stamps_before, 2u);
}

TEST(DFasterFailureTest, NestedFailuresHandledAsSequences) {
  DFasterCluster cluster(SmallCluster(2));
  ASSERT_TRUE(cluster.Start().ok());
  auto client = cluster.NewClient(4, 32);
  auto session = client->NewSession(9);
  for (uint64_t k = 0; k < 30; ++k) session->Upsert(k, 1);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
  // Two failures in short succession (paper Fig. 16's nested scenario).
  ASSERT_TRUE(cluster.InjectFailure({0}).ok());
  ASSERT_TRUE(cluster.InjectFailure({1}).ok());
  session->Read(1, nullptr);
  (void)session->WaitForAll();
  ASSERT_TRUE(session->needs_failure_handling());
  DprSession::CommitPoint survivors;
  ASSERT_TRUE(session->RecoverFromFailure(&survivors).ok());
  EXPECT_GE(survivors.prefix_end, 30u);
  EXPECT_EQ(session->dpr().world_line(), kInitialWorldLine + 2);
  // Cluster still serves reads/writes.
  for (uint64_t k = 0; k < 30; ++k) session->Upsert(k, 2);
  ASSERT_TRUE(session->WaitForCommit(20000).ok());
}

}  // namespace
}  // namespace dpr
