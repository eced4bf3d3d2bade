// The DPR finder RPC service: a RemoteDprFinder stub must behave exactly
// like the in-process finder it proxies (used by multi-process shards).
#include "dpr/finder_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "dpr/worker.h"
#include "net/inmemory_net.h"
#include "net/tcp_net.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

// `finder`'s committed cut entry for `worker`.
Version CutEntry(const DprFinder& finder, WorkerId worker) {
  DprCut cut;
  finder.GetCut(nullptr, &cut);
  return CutVersion(cut, worker);
}

class FinderServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The remote client counts only into the process-wide registry.
    MetricsRegistry::Default().ResetForTest();
    metadata_ =
        std::make_unique<MetadataStore>(std::make_unique<MemoryDevice>());
    ASSERT_TRUE(metadata_->Recover().ok());
    local_ = MakeDprFinder(
        {.kind = FinderKind::kApprox, .metadata = metadata_.get()});
    server_ = std::make_unique<DprFinderServer>(local_.get(),
                                                net_.CreateServer("finder"));
    ASSERT_TRUE(server_->Start().ok());
    remote_ = std::make_unique<RemoteDprFinder>(net_.Connect("finder"));
  }

  static uint64_t Count(const std::string& name) {
    return MetricsRegistry::Default().Snapshot().counters["dpr.remote." +
                                                          name];
  }
  static int64_t PendingDepth() {
    return MetricsRegistry::Default()
        .Snapshot()
        .gauges["dpr.remote.pending_depth"];
  }
  static uint64_t Retries() {
    return Count("retries_timeout") + Count("retries_transient") +
           Count("retries_other");
  }

  InMemoryNetwork net_;
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> local_;
  std::unique_ptr<DprFinderServer> server_;
  std::unique_ptr<RemoteDprFinder> remote_;
};

TEST_F(FinderServiceTest, AddReportComputeGetCut) {
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
  ASSERT_TRUE(remote_->AddWorker(1, 0).ok());
  ASSERT_TRUE(remote_
                  ->ReportPersistedVersion(kInitialWorldLine,
                                           WorkerVersion{0, 2}, {{1, 1}})
                  .ok());
  ASSERT_TRUE(remote_
                  ->ReportPersistedVersion(kInitialWorldLine,
                                           WorkerVersion{1, 2}, {})
                  .ok());
  ASSERT_TRUE(remote_->ComputeCut().ok());
  WorldLine wl = 0;
  DprCut cut;
  remote_->GetCut(&wl, &cut);
  EXPECT_EQ(wl, kInitialWorldLine);
  EXPECT_EQ(CutVersion(cut, 0), 2u);
  EXPECT_EQ(CutVersion(cut, 1), 2u);
  // The remote stub and the local finder agree.
  DprCut local_cut;
  local_->GetCut(nullptr, &local_cut);
  EXPECT_EQ(cut, local_cut);
}

TEST_F(FinderServiceTest, AggregatesAndWorldLine) {
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
  ASSERT_TRUE(remote_
                  ->ReportPersistedVersion(kInitialWorldLine,
                                           WorkerVersion{0, 9}, {})
                  .ok());
  EXPECT_EQ(remote_->MaxPersistedVersion(), 9u);
  EXPECT_EQ(remote_->CurrentWorldLine(), kInitialWorldLine);
}

TEST_F(FinderServiceTest, StaleReportStatusPropagates) {
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
  Status s = remote_->ReportPersistedVersion(kInitialWorldLine + 5,
                                             WorkerVersion{0, 1}, {});
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(Count("reports_stale"), 1u);
  EXPECT_EQ(Count("reports_enqueued"), 0u);
}

TEST_F(FinderServiceTest, RecoverySequenceOverRpc) {
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
  ASSERT_TRUE(remote_
                  ->ReportPersistedVersion(kInitialWorldLine,
                                           WorkerVersion{0, 3}, {})
                  .ok());
  ASSERT_TRUE(remote_->ComputeCut().ok());
  WorldLine new_wl = 0;
  DprCut recovery;
  ASSERT_TRUE(remote_->BeginRecovery(&new_wl, &recovery).ok());
  EXPECT_EQ(new_wl, kInitialWorldLine + 1);
  EXPECT_EQ(CutVersion(recovery, 0), 3u);
  ASSERT_TRUE(remote_->EndRecovery().ok());
  EXPECT_EQ(remote_->CurrentWorldLine(), new_wl);
}

TEST_F(FinderServiceTest, RemoveWorker) {
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
  ASSERT_TRUE(remote_->AddWorker(1, 0).ok());
  ASSERT_TRUE(remote_->RemoveWorker(1).ok());
  EXPECT_EQ(metadata_->GetPersistedVersions().size(), 1u);
}

// Checkpoints persist synchronously: the token is durable (and reported)
// before PerformCheckpoint returns.
class InstantStateObject : public StateObject {
 public:
  Status PerformCheckpoint(Version target, PersistCallback on_persistent,
                           Version* out_token,
                           const CheckpointHints& /*hints*/) override {
    const Version token = version_.exchange(target);
    if (out_token != nullptr) *out_token = token;
    on_persistent(token);
    return Status::OK();
  }
  Status RestoreCheckpoint(Version version, Version* restored) override {
    if (restored != nullptr) *restored = version;
    return Status::OK();
  }
  Version CurrentVersion() const override { return version_.load(); }
  void SimulateCrash() override {}

 private:
  std::atomic<Version> version_{1};
};

TEST_F(FinderServiceTest, CutAdvanceIsPushedThroughTheRemoteFinder) {
  InstantStateObject state;
  DprWorkerOptions options;
  options.worker_id = 0;
  options.finder = remote_.get();
  options.checkpoint_interval_us = 0;  // no timer thread
  DprWorker worker(&state, options);
  ASSERT_TRUE(worker.Start().ok());
  ASSERT_TRUE(worker.TryCommit().ok());  // reports v1
  EXPECT_EQ(worker.persisted_watermark(), 0u);
  ASSERT_TRUE(remote_->ComputeCut().ok());
  EXPECT_EQ(worker.persisted_watermark(), 1u);
  // The worker serves the server finder's epoch, so sessions that learned
  // the cut from the authoritative finder's workers get no entries here.
  DprRequestHeader request;
  request.cut_epoch = local_->LastPublished().epoch;
  DprResponseHeader resp;
  worker.FillResponse(request, 1, DprResponseHeader::BatchStatus::kOk, &resp);
  EXPECT_EQ(resp.cut_epoch, request.cut_epoch);
  EXPECT_TRUE(resp.cut.empty());
  worker.Stop();
}

// Wraps a real connection and fails the next N calls with a transport
// error before they reach the wire — the retry loop in SendBatch must ride
// through without dropping a report.
class FlakyConnection : public RpcConnection {
 public:
  explicit FlakyConnection(std::unique_ptr<RpcConnection> inner)
      : inner_(std::move(inner)) {}

  void FailNext(int n) { fail_remaining_.store(n); }
  int failures_injected() const { return failures_injected_.load(); }

  void CallAsync(std::string request, ResponseCallback callback) override {
    int remaining = fail_remaining_.load();
    while (remaining > 0 &&
           !fail_remaining_.compare_exchange_weak(remaining, remaining - 1)) {
    }
    if (remaining > 0) {
      failures_injected_.fetch_add(1);
      callback(Status::Unavailable("injected transport failure"), Slice());
      return;
    }
    inner_->CallAsync(std::move(request), std::move(callback));
  }

 private:
  std::unique_ptr<RpcConnection> inner_;
  std::atomic<int> fail_remaining_{0};
  std::atomic<int> failures_injected_{0};
};

// Forwards to the finder service at one address until Redirect moves it to
// another: the service coming back somewhere else.
class RedirectableConnection : public RpcConnection {
 public:
  explicit RedirectableConnection(std::unique_ptr<RpcConnection> first)
      : first_(std::move(first)), current_(first_.get()) {}

  void Redirect(std::unique_ptr<RpcConnection> second) {
    second_ = std::move(second);
    current_.store(second_.get());
  }

  void CallAsync(std::string request, ResponseCallback callback) override {
    current_.load()->CallAsync(std::move(request), std::move(callback));
  }

 private:
  std::unique_ptr<RpcConnection> first_;
  std::unique_ptr<RpcConnection> second_;
  std::atomic<RpcConnection*> current_;
};

TEST_F(FinderServiceTest, WorkersFollowARebuiltFinderWhoseEpochsRestartLower) {
  // The finder service comes back over a store whose cut count is below
  // the epochs this process already holds (a lost store, say).
  MetadataStore fresh(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(fresh.Recover().ok());
  std::unique_ptr<DprFinder> reborn =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &fresh});
  DprFinderServer reborn_server(reborn.get(),
                                net_.CreateServer("finder.reborn"));
  ASSERT_TRUE(reborn_server.Start().ok());

  InstantStateObject state;
  auto owned =
      std::make_unique<RedirectableConnection>(net_.Connect("finder"));
  RedirectableConnection* conn = owned.get();
  RemoteDprFinder remote(std::move(owned));
  DprWorkerOptions options;
  options.worker_id = 0;
  options.finder = &remote;
  options.checkpoint_interval_us = 0;  // no timer thread
  DprWorker worker(&state, options);
  ASSERT_TRUE(worker.Start().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(worker.TryCommit().ok());
    ASSERT_TRUE(remote.ComputeCut().ok());
  }
  const uint64_t old_epoch = remote.published_epoch();
  ASSERT_GE(worker.persisted_watermark(), 3u);

  ASSERT_TRUE(reborn->AddWorker(0, 0).ok());
  ASSERT_TRUE(reborn
                  ->ReportPersistedVersion(kInitialWorldLine,
                                           WorkerVersion{0, 9}, {})
                  .ok());
  ASSERT_TRUE(reborn->ComputeCut().ok());
  ASSERT_LT(reborn->published_epoch(), old_epoch);
  conn->Redirect(net_.Connect("finder.reborn"));
  ASSERT_TRUE(remote.ComputeCut().ok());
  EXPECT_EQ(remote.published_epoch(), reborn->published_epoch());
  EXPECT_EQ(worker.persisted_watermark(), 9u);
  worker.Stop();
}

TEST_F(FinderServiceTest, BatchedReportsSurviveTransportFailure) {
  remote_.reset();  // only the client under test publishes dpr.remote.*
  auto owned = std::make_unique<FlakyConnection>(net_.Connect("finder"));
  FlakyConnection* flaky = owned.get();
  RemoteDprFinderOptions options;
  options.flush_interval_us = 10 * 1000 * 1000;  // manual Flush only
  options.retry_backoff_us = 50;
  options.max_send_attempts = 8;
  RemoteDprFinder remote(std::move(owned), options);
  ASSERT_TRUE(remote.AddWorker(0, 0).ok());
  ASSERT_TRUE(remote.AddWorker(1, 0).ok());
  for (Version v = 1; v <= 6; ++v) {
    ASSERT_TRUE(remote
                    .ReportPersistedVersion(kInitialWorldLine,
                                            WorkerVersion{0, v}, {})
                    .ok());
    ASSERT_TRUE(remote
                    .ReportPersistedVersion(kInitialWorldLine,
                                            WorkerVersion{1, v}, {})
                    .ok());
  }
  flaky->FailNext(3);
  ASSERT_TRUE(remote.Flush().ok());
  EXPECT_EQ(flaky->failures_injected(), 3);

  EXPECT_GE(Retries(), 3u);
  EXPECT_EQ(Count("reports_enqueued"), 12u);
  EXPECT_EQ(Count("reports_sent"), 12u);
  EXPECT_EQ(Count("reports_rejected"), 0u);
  EXPECT_EQ(PendingDepth(), 0);
  // The 12 reports coalesced rather than going one RPC each.
  ASSERT_GT(Count("batches_sent"), 0u);
  EXPECT_GT(static_cast<double>(Count("reports_sent")) /
                static_cast<double>(Count("batches_sent")),
            1.0);

  // Every WorkerVersion arrived: the finder's cut reaches v=6 on both rows.
  ASSERT_TRUE(local_->ComputeCut().ok());
  DprCut cut;
  local_->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 6u);
  EXPECT_EQ(CutVersion(cut, 1), 6u);
}

TEST_F(FinderServiceTest, ExhaustedRetriesRequeueWithoutLoss) {
  remote_.reset();  // only the client under test publishes dpr.remote.*
  auto owned = std::make_unique<FlakyConnection>(net_.Connect("finder"));
  FlakyConnection* flaky = owned.get();
  RemoteDprFinderOptions options;
  options.flush_interval_us = 10 * 1000 * 1000;
  options.retry_backoff_us = 50;
  options.max_send_attempts = 2;
  RemoteDprFinder remote(std::move(owned), options);
  ASSERT_TRUE(remote.AddWorker(0, 0).ok());
  for (Version v = 1; v <= 5; ++v) {
    ASSERT_TRUE(remote
                    .ReportPersistedVersion(kInitialWorldLine,
                                            WorkerVersion{0, v}, {})
                    .ok());
  }
  // More consecutive failures than one flush's attempt budget: the flush
  // reports Unavailable but re-queues everything instead of dropping it.
  flaky->FailNext(4);
  Status s = remote.Flush();
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  EXPECT_EQ(PendingDepth(), 5);
  s = remote.Flush();
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  // Transport healed: the next flush delivers the full backlog.
  ASSERT_TRUE(remote.Flush().ok());
  EXPECT_EQ(PendingDepth(), 0);
  EXPECT_EQ(Count("reports_sent"), 5u);
  ASSERT_TRUE(local_->ComputeCut().ok());
  DprCut cut;
  local_->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 5u);
}

TEST_F(FinderServiceTest, SnapshotInvalidatedWhenRetriedFlushLands) {
  remote_.reset();  // only the client under test publishes dpr.remote.*
  auto owned = std::make_unique<FlakyConnection>(net_.Connect("finder"));
  FlakyConnection* flaky = owned.get();
  RemoteDprFinderOptions options;
  options.flush_interval_us = 10 * 1000 * 1000;  // manual Flush only
  options.snapshot_ttl_us = 10 * 1000 * 1000;    // cache never expires
  options.retry_backoff_us = 50;
  options.max_send_attempts = 8;
  RemoteDprFinder remote(std::move(owned), options);
  ASSERT_TRUE(remote.AddWorker(0, 0).ok());
  ASSERT_TRUE(remote
                  .ReportPersistedVersion(kInitialWorldLine,
                                          WorkerVersion{0, 1}, {})
                  .ok());
  ASSERT_TRUE(remote.Flush().ok());
  ASSERT_TRUE(local_->ComputeCut().ok());
  // Warm the snapshot: within the TTL, reads serve v=1 from cache.
  EXPECT_EQ(CutEntry(remote, 0), 1u);

  // Report v=2; the flush rides out injected transport failures and lands.
  ASSERT_TRUE(remote
                  .ReportPersistedVersion(kInitialWorldLine,
                                          WorkerVersion{0, 2}, {})
                  .ok());
  flaky->FailNext(3);
  ASSERT_TRUE(remote.Flush().ok());
  EXPECT_EQ(flaky->failures_injected(), 3);
  ASSERT_TRUE(local_->ComputeCut().ok());
  // The retried-but-successful send must invalidate the cached snapshot
  // even though its TTL has not expired: a client must never read its own
  // report as not-yet-persisted (stale read after own report).
  EXPECT_EQ(CutEntry(remote, 0), 2u);
}

TEST_F(FinderServiceTest, EmptyAndRetiredRequestsAreRejected) {
  auto conn = net_.Connect("finder");
  auto status_of = [&conn](Slice request) {
    std::string response;
    EXPECT_TRUE(conn->Call(request, &response).ok());
    EXPECT_EQ(response.size(), 1u);
    return response.empty() ? Status::Code::kOk
                            : static_cast<Status::Code>(response[0]);
  };
  // An empty frame has no method byte; it must not be decoded.
  EXPECT_EQ(status_of(Slice()), Status::Code::kInvalidArgument);
  // The retired single-report and single-read methods are unknown now.
  for (const char method : {'\x03', '\x05', '\x06', '\x07'}) {
    EXPECT_EQ(status_of(Slice(&method, 1)), Status::Code::kInvalidArgument)
        << "method " << static_cast<int>(method);
  }
  // The service still answers afterwards.
  ASSERT_TRUE(remote_->AddWorker(0, 0).ok());
}

TEST(FinderServiceTcpTest, WorksOverRealSockets) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto local =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  DprFinderServer server(local.get(), MakeTcpServer(0));
  ASSERT_TRUE(server.Start().ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(ConnectTcp(server.address(), &conn).ok());
  RemoteDprFinder remote(std::move(conn));
  ASSERT_TRUE(remote.AddWorker(0, 0).ok());
  ASSERT_TRUE(remote
                  .ReportPersistedVersion(kInitialWorldLine,
                                          WorkerVersion{0, 1}, {})
                  .ok());
  ASSERT_TRUE(remote.ComputeCut().ok());
  EXPECT_EQ(CutEntry(remote, 0), 1u);
}

}  // namespace
}  // namespace dpr
