// Observability plane: JSON writer/parser, metrics registry, timeline,
// histogram JSON round-trip, bench artifact schema, and the registry
// mirroring done by the tracking plane.
#include <string>
#include <vector>

#include "ckpt/cadence.h"
#include "dpr/dep_tracker.h"
#include "dpr/session.h"
#include "faster/faster_store.h"
#include "fault/fault_plane.h"
#include "gtest/gtest.h"
#include "net/tcp_net.h"
#include "obs/bench_artifact.h"
#include "obs/histogram_json.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// ------------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, NestedScopesAndCommas) {
  JsonWriter w;
  w.BeginObject()
      .Key("a")
      .Int(-3)
      .Key("b")
      .BeginArray()
      .UInt(1)
      .Double(2.5)
      .String("x")
      .Bool(true)
      .Null()
      .EndArray()
      .Key("c")
      .BeginObject()
      .EndObject()
      .EndObject();
  EXPECT_EQ(w.str(), "{\"a\":-3,\"b\":[1,2.5,\"x\",true,null],\"c\":{}}");
}

TEST(JsonWriterTest, EscapesControlAndQuote) {
  JsonWriter w;
  w.BeginObject().Key("k\"ey").String("a\nb\tc\\d").EndObject();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"a\\nb\\tc\\\\d\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray().Double(0.0 / 0.0).Double(1e308 * 10).EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// -------------------------------------------------------------- JsonValue

TEST(JsonValueTest, ParsesWriterOutput) {
  JsonWriter w;
  w.BeginObject()
      .Key("n")
      .UInt(18446744073709551615ull)
      .Key("s")
      .String("hi\n")
      .Key("arr")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .EndObject();
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &doc).ok());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("n")->uint_value(), 18446744073709551615ull);
  EXPECT_EQ(doc.Find("s")->string_value(), "hi\n");
  ASSERT_TRUE(doc.Find("arr")->is_array());
  EXPECT_EQ(doc.Find("arr")->array().size(), 2u);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedInput) {
  JsonValue doc;
  EXPECT_FALSE(JsonValue::Parse("{", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &doc).ok());
  EXPECT_FALSE(JsonValue::Parse("{}trailing", &doc).ok());
}

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  Counter* c = reg.counter("test.obs.counter");
  Gauge* g = reg.gauge("test.obs.gauge");
  ShardedHistogram* h = reg.histogram("test.obs.hist");
  // Same name -> same object (call sites cache the pointer).
  EXPECT_EQ(c, reg.counter("test.obs.counter"));
  c->Add(3);
  g->Set(-7);
  g->UpdateMax(-9);  // lower than current: no change
  EXPECT_EQ(g->value(), -7);
  g->UpdateMax(11);
  h->Record(100);
  h->Record(200);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test.obs.counter"), 3u);
  EXPECT_EQ(snap.gauges.at("test.obs.gauge"), 11);
  EXPECT_EQ(snap.histograms.at("test.obs.hist").count(), 2u);

  // Delta view: counters subtract, gauges stay absolute.
  c->Add(2);
  MetricsSnapshot later = reg.Snapshot();
  later.SubtractCounters(snap);
  EXPECT_EQ(later.counters.at("test.obs.counter"), 2u);
  EXPECT_EQ(later.gauges.at("test.obs.gauge"), 11);

  // Snapshot serializes to parseable JSON.
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(reg.Snapshot().ToJson(), &doc).ok());
  ASSERT_NE(doc.Find("counters"), nullptr);
  reg.ResetForTest();
  EXPECT_EQ(c->value(), 0u);
}

TEST(ShardedHistogramTest, SnapshotMatchesPlainHistogram) {
  ShardedHistogram sharded;
  Histogram plain;
  for (uint64_t v : {1ull, 5ull, 90ull, 1000ull, 123456ull}) {
    sharded.Record(v);
    plain.Record(v);
  }
  const Histogram snap = sharded.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.sum(), plain.sum());
  for (int p : {0, 50, 90, 99, 100}) {
    EXPECT_EQ(snap.Percentile(p), plain.Percentile(p)) << "p=" << p;
  }
}

// ----------------------------------------------------- Histogram JSON codec

TEST(HistogramJsonTest, RoundTripPreservesMergeAndPercentiles) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i * 7 % 5000);
  JsonWriter w;
  HistogramToJson(h, &w);
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &doc).ok());
  Histogram back;
  ASSERT_TRUE(HistogramFromJson(doc, &back).ok());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.sum(), h.sum());
  for (int p : {0, 50, 90, 99, 100}) {
    EXPECT_EQ(back.Percentile(p), h.Percentile(p)) << "p=" << p;
  }

  // Merging a reparsed histogram behaves like merging the original.
  Histogram extra;
  for (uint64_t i = 0; i < 100; ++i) extra.Record(1 << 20);
  Histogram merged_orig = extra;
  merged_orig.Merge(h);
  Histogram merged_back = extra;
  merged_back.Merge(back);
  EXPECT_EQ(merged_back.count(), merged_orig.count());
  for (int p : {0, 50, 99, 100}) {
    EXPECT_EQ(merged_back.Percentile(p), merged_orig.Percentile(p));
  }
}

TEST(HistogramJsonTest, EmptyAndCorruptInputs) {
  Histogram empty;
  JsonWriter w;
  HistogramToJson(empty, &w);
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &doc).ok());
  Histogram back;
  back.Record(42);  // must be reset by the decode
  ASSERT_TRUE(HistogramFromJson(doc, &back).ok());
  EXPECT_EQ(back.count(), 0u);

  JsonValue not_hist;
  ASSERT_TRUE(JsonValue::Parse("{\"count\":1}", &not_hist).ok());
  EXPECT_FALSE(HistogramFromJson(not_hist, &back).ok());
  JsonValue not_obj;
  ASSERT_TRUE(JsonValue::Parse("[1,2]", &not_obj).ok());
  EXPECT_FALSE(HistogramFromJson(not_obj, &back).ok());
}

// ------------------------------------------------------------ BenchArtifact

TEST(BenchArtifactTest, SchemaGolden) {
  MetricsRegistry::Default().ResetForTest();
  BenchArtifact artifact("unit");
  artifact.SetConfig("quick", true);
  artifact.SetConfig("threads", static_cast<uint64_t>(4));
  artifact.SetConfig("theta", 0.99);
  artifact.SetConfig("label", "ycsb-a");
  artifact.AddPoint("mops", 2, 1.5);
  artifact.AddPoint("mops", 4, 2.75, "note");
  Histogram lat;
  lat.Record(10);
  lat.Record(20);
  artifact.AddHistogram("op_latency_us", lat);
  artifact.AddCounter("custom.count", 7);
  artifact.AddGauge("custom.depth", -2);

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(artifact.ToJson(), &doc).ok());
  // The contract consumed by plotting/regression tooling:
  //   {bench, config{}, series[{name, points[{x, y, label?}]}],
  //    histograms{name: {count,...,buckets}}, counters{}, gauges{}}
  EXPECT_EQ(doc.Find("bench")->string_value(), "unit");
  const JsonValue* config = doc.Find("config");
  ASSERT_TRUE(config != nullptr && config->is_object());
  EXPECT_TRUE(config->Find("quick")->bool_value());
  EXPECT_EQ(config->Find("threads")->uint_value(), 4u);
  EXPECT_DOUBLE_EQ(config->Find("theta")->number(), 0.99);
  EXPECT_EQ(config->Find("label")->string_value(), "ycsb-a");

  const JsonValue* series = doc.Find("series");
  ASSERT_TRUE(series != nullptr && series->is_array());
  ASSERT_EQ(series->array().size(), 1u);
  const JsonValue& mops = series->array()[0];
  EXPECT_EQ(mops.Find("name")->string_value(), "mops");
  ASSERT_EQ(mops.Find("points")->array().size(), 2u);
  EXPECT_DOUBLE_EQ(mops.Find("points")->array()[0].Find("x")->number(), 2.0);
  EXPECT_DOUBLE_EQ(mops.Find("points")->array()[1].Find("y")->number(), 2.75);
  EXPECT_EQ(mops.Find("points")->array()[1].Find("label")->string_value(),
            "note");

  const JsonValue* hists = doc.Find("histograms");
  ASSERT_TRUE(hists != nullptr && hists->is_object());
  Histogram back;
  ASSERT_TRUE(
      HistogramFromJson(*hists->Find("op_latency_us"), &back).ok());
  EXPECT_EQ(back.count(), 2u);

  EXPECT_EQ(doc.Find("counters")->Find("custom.count")->uint_value(), 7u);
  EXPECT_EQ(doc.Find("gauges")->Find("custom.depth")->number(), -2.0);
}

TEST(BenchArtifactTest, SnapshotMergesNonZeroMetrics) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  reg.counter("t.live")->Add(5);
  reg.counter("t.zero");  // stays 0: dropped from the artifact
  reg.gauge("t.depth")->Set(3);
  reg.histogram("t.lat")->Record(17);
  reg.histogram("t.empty");

  BenchArtifact artifact("snap");
  artifact.AddSnapshot(reg.Snapshot());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(artifact.ToJson(), &doc).ok());
  EXPECT_EQ(doc.Find("counters")->Find("t.live")->uint_value(), 5u);
  EXPECT_EQ(doc.Find("counters")->Find("t.zero"), nullptr);
  EXPECT_EQ(doc.Find("gauges")->Find("t.depth")->number(), 3.0);
  EXPECT_NE(doc.Find("histograms")->Find("t.lat"), nullptr);
  EXPECT_EQ(doc.Find("histograms")->Find("t.empty"), nullptr);
  reg.ResetForTest();
}

// ------------------------------------- tracking plane -> registry mirroring

TEST(RegistryMirrorTest, DepTrackerPublishesToRegistry) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  VersionDependencyTracker tracker(16);
  DependencySet no_deps;
  DependencySet deps;
  deps[2] = 9;
  tracker.Record(1, 5, no_deps, /*self=*/0);
  tracker.Record(1, 5, deps, /*self=*/0);
  tracker.Record(2, 6, deps, /*self=*/0);
  (void)tracker.DrainUpTo(6);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("dpr.dep_tracker.records"), 2u);
  EXPECT_EQ(snap.counters.at("dpr.dep_tracker.empty_records"), 1u);
  EXPECT_EQ(snap.counters.at("dpr.dep_tracker.drains"), 1u);
  EXPECT_EQ(snap.gauges.at("dpr.dep_tracker.live_entries"), 0);
  EXPECT_EQ(snap.gauges.at("dpr.dep_tracker.live_entries_peak"), 2);
  reg.ResetForTest();
}

// The live-entries gauge is the only count of staged versions, so a tracker
// destroyed with versions still staged (a worker stopped mid-interval) must
// hand them back.
TEST(RegistryMirrorTest, DestroyedTrackerReturnsLiveEntries) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  {
    VersionDependencyTracker tracker(4);
    tracker.Record(1, 5, DependencySet{{2, 9}}, /*self=*/0);
    ASSERT_EQ(reg.Snapshot().gauges.at("dpr.dep_tracker.live_entries"), 1);
  }
  EXPECT_EQ(reg.Snapshot().gauges.at("dpr.dep_tracker.live_entries"), 0);
  reg.ResetForTest();
}

// The transport's event-loop rewrite publishes its health through the
// registry: epoll wakeups, frames coalesced per flush syscall, executor
// intake depth, and live-resource gauges that must return to zero once the
// server stops (loops joined, workers joined, connections closed).
TEST(RegistryMirrorTest, EventLoopTransportPublishesToRegistry) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();

  // Pinned to the epoll backend: this test asserts the epoll-plane series
  // (net.loop.*, net.tcp.writev_*), which the io_uring backend does not
  // emit. The uring-plane series are covered below.
  TcpServerOptions options;
  options.io_threads = 2;
  options.executor_threads = 2;
  options.backend = NetBackend::kEpoll;
  auto server = MakeTcpServer(0, options);
  ASSERT_TRUE(server
                  ->Start([](Slice request, std::string* response) {
                    response->assign(request.data(), request.size());
                  })
                  .ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(
      ConnectTcp(server->address(), TcpClientOptions{NetBackend::kEpoll},
                 &conn)
          .ok());
  constexpr int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) {
    std::string response;
    ASSERT_TRUE(conn->Call("ping" + std::to_string(i), &response).ok());
  }

  {
    const MetricsSnapshot snap = reg.Snapshot();
    // Event loop: the server woke at least once per served call batch, and
    // its fixed loop threads are live.
    EXPECT_GT(snap.counters.at("net.loop.wakeups"), 0u);
    EXPECT_EQ(snap.gauges.at("net.loop.threads"), 2);
    // Executor: one task per request ran; the intake drained back to empty.
    EXPECT_GE(snap.counters.at("net.executor.tasks"),
              static_cast<uint64_t>(kCalls));
    EXPECT_EQ(snap.gauges.at("net.executor.queue_depth"), 0);
    EXPECT_EQ(snap.gauges.at("net.executor.threads"), 2);
    // Coalescing flush: vectored syscalls happened, every server response
    // frame went through them, and syscalls never exceed frames.
    EXPECT_GT(snap.counters.at("net.tcp.writev_calls"), 0u);
    EXPECT_GE(snap.counters.at("net.tcp.writev_frames"),
              static_cast<uint64_t>(kCalls));
    EXPECT_LE(snap.counters.at("net.tcp.writev_calls"),
              snap.counters.at("net.tcp.writev_frames"));
    // Connection accounting.
    EXPECT_EQ(snap.counters.at("net.tcp.accepted"), 1u);
    EXPECT_EQ(snap.gauges.at("net.tcp.server_conns"), 1);
  }

  conn.reset();
  server->Stop();
  {
    const MetricsSnapshot snap = reg.Snapshot();
    // Every live-resource gauge returns to zero on clean shutdown.
    EXPECT_EQ(snap.gauges.at("net.loop.threads"), 0);
    EXPECT_EQ(snap.gauges.at("net.executor.threads"), 0);
    EXPECT_EQ(snap.gauges.at("net.tcp.server_conns"), 0);
    EXPECT_EQ(snap.gauges.at("net.tcp.output_queue_bytes"), 0);
  }
  reg.ResetForTest();
}

// The io_uring backend's ring-health series: SQE submit batches and CQE
// reaps move during traffic, and the shared framing counters (frames,
// accepted, conns gauge) behave identically to the epoll plane.
TEST(RegistryMirrorTest, UringTransportPublishesToRegistry) {
  if (!NetUringSupported()) {
    GTEST_SKIP() << "io_uring transport not supported on this kernel";
  }
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();

  TcpServerOptions options;
  options.io_threads = 2;
  options.executor_threads = 2;
  options.backend = NetBackend::kIoUring;
  auto server = MakeTcpServer(0, options);
  ASSERT_TRUE(server
                  ->Start([](Slice request, std::string* response) {
                    response->assign(request.data(), request.size());
                  })
                  .ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(
      ConnectTcp(server->address(), TcpClientOptions{NetBackend::kIoUring},
                 &conn)
          .ok());
  constexpr int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) {
    std::string response;
    ASSERT_TRUE(conn->Call("ping" + std::to_string(i), &response).ok());
  }

  {
    const MetricsSnapshot snap = reg.Snapshot();
    // Ring health: submissions were batched and completions reaped.
    EXPECT_GT(snap.counters.at("net.uring.sqe_batches"), 0u);
    EXPECT_GT(snap.counters.at("net.uring.cqe_reaped"), 0u);
    // No explicit-uring fallback happened (the kernel supports it here).
    EXPECT_EQ(snap.counters.at("net.uring.fallbacks"), 0u);
    // Shared framing counters move regardless of backend. Both directions
    // carry >= kCalls frames (requests client->server, responses back).
    EXPECT_GE(snap.counters.at("net.tcp.frames_sent"),
              static_cast<uint64_t>(kCalls));
    EXPECT_GE(snap.counters.at("net.tcp.frames_received"),
              static_cast<uint64_t>(kCalls));
    EXPECT_EQ(snap.counters.at("net.tcp.accepted"), 1u);
    EXPECT_EQ(snap.gauges.at("net.tcp.server_conns"), 1);
  }

  conn.reset();
  server->Stop();
  {
    const MetricsSnapshot snap = reg.Snapshot();
    EXPECT_EQ(snap.gauges.at("net.tcp.server_conns"), 0);
    EXPECT_EQ(snap.gauges.at("net.tcp.output_queue_bytes"), 0);
  }
  reg.ResetForTest();
}

// ----------------------------------- checkpoint plane gauges and counters

// Gauge-leak pins: point-in-time gauges on failure paths must re-zero, or
// dashboards show phantom backlog forever after one fault.

TEST(CkptGaugeTest, ExceptionListGaugeZeroAfterRollback) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  DprSession session(/*session_id=*/1, SessionOptions{});
  // One withheld (PENDING) op, then a resolved-and-committed one: the
  // commit point skips the pending op into the exception list.
  const uint64_t pending = session.IssuePending(/*worker=*/0, 1);
  (void)pending;
  DprResponseHeader ok;
  ok.executed_version = 1;
  ok.cut = {{0, 1}};
  session.ResolvePending(session.IssuePending(/*worker=*/0, 1), ok);
  const auto point = session.GetCommitPoint();
  ASSERT_EQ(point.excluded.size(), 1u);
  ASSERT_EQ(reg.Snapshot().gauges.at("dpr.session.exception_list"), 1);
  // Rollback discards every segment; the occupancy gauge must re-zero with
  // them instead of leaking the pre-rollback count.
  DprCut cut;
  cut[0] = 1;
  (void)session.HandleFailure(/*new_world_line=*/2, cut);
  EXPECT_EQ(reg.Snapshot().gauges.at("dpr.session.exception_list"), 0);
  reg.ResetForTest();
}

TEST(CkptGaugeTest, FlushQueueDepthZeroAfterFailedFlush) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  ScopedFaultPlane fault_plane(/*seed=*/3);
  constexpr uint64_t kScope = 91;
  FasterOptions options;
  options.index_buckets = 256;
  options.log_device = std::make_unique<FaultDevice>(
      std::make_unique<MemoryDevice>(), kScope);
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  {
    auto session = store.NewSession();
    for (uint64_t k = 0; k < 16; ++k) {
      ASSERT_TRUE(session->Upsert(k, k).ok());
    }
  }
  FaultPlane::Instance().Arm({.point = faults::kDevWriteFail,
                              .scope = kScope,
                              .max_fires = 64});
  ASSERT_TRUE(store
                  .PerformCheckpoint(
                      store.CurrentVersion() + 1, nullptr, nullptr,
                      CheckpointHints{.index_image = true})
                  .ok());
  store.WaitForCheckpoints();
  FaultPlane::Instance().DisarmAll();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("faster.flush_failures"), 1u);
  // The failed request left the queue; the depth gauge must not leak it.
  EXPECT_EQ(snap.gauges.at("faster.flush_queue_depth"), 0);
  reg.ResetForTest();
}

TEST(CkptGaugeTest, CheckpointCountersTrackImagesAndBytes) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  FasterOptions options;
  options.index_buckets = 256;
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  // The store picks the image: the first is full, the next two deltas.
  auto checkpoint = [&] {
    ASSERT_TRUE(store
                    .PerformCheckpoint(store.CurrentVersion() + 1, nullptr,
                                       nullptr,
                                       CheckpointHints{.index_image = true})
                    .ok());
    store.WaitForCheckpoints();
  };
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(session->Upsert(k, k).ok());
  }
  checkpoint();
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(session->Upsert(k, 100 + k).ok());
  }
  checkpoint();
  checkpoint();  // nothing dirtied: an empty delta, still valid

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("ckpt.full"), 1u);
  EXPECT_EQ(snap.counters.at("ckpt.delta"), 2u);
  EXPECT_EQ(snap.counters.at("faster.checkpoints_flushed"), 3u);
  // Every checkpoint persisted log bytes for its window plus a meta record;
  // the full image dominates the index-byte accounting.
  EXPECT_GT(snap.counters.at("ckpt.log_bytes_persisted"), 0u);
  EXPECT_GT(snap.counters.at("ckpt.index_bytes_persisted"), 0u);
  reg.ResetForTest();
}

TEST(CkptGaugeTest, CadenceControllerPublishesDecisions) {
  auto& reg = MetricsRegistry::Default();
  reg.ResetForTest();
  CkptCadenceController controller(100000);
  const CkptSignals dirty{.dirty_bytes = 4096};
  (void)controller.Decide(dirty, 1000);             // initial checkpoint
  (void)controller.Decide(CkptSignals{}, 101000);   // idle: skip
  (void)controller.Decide(dirty, 201000);           // checkpoint
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("ckpt.controller.decisions"), 3u);
  EXPECT_EQ(snap.counters.at("ckpt.controller.skips"), 1u);
  EXPECT_EQ(snap.gauges.at("ckpt.controller.dirty_bytes"), 4096);
  EXPECT_GT(snap.gauges.at("ckpt.controller.interval_us"), 0);
  reg.ResetForTest();
}

}  // namespace
}  // namespace dpr
