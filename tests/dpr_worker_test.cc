#include "dpr/worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <memory>
#include "common/sync.h"

#include "dpr/finder.h"

namespace dpr {
namespace {

/// Deterministic StateObject for protocol tests: versioned counter with
/// manually-released checkpoints.
class FakeStateObject : public StateObject {
 public:
  Status PerformCheckpoint(Version target, PersistCallback cb,
                           Version* out_token,
                           const CheckpointHints& /*hints*/) override {
    MutexLock guard(mu_);
    if (pending_.has_value()) return Status::Busy("in flight");
    const Version token = version_;
    if (target <= token) return Status::InvalidArgument("bad target");
    version_ = target;
    pending_ = std::make_pair(token, std::move(cb));
    if (out_token != nullptr) *out_token = token;
    return Status::OK();
  }

  /// Makes the in-flight checkpoint durable.
  void ReleaseCheckpoint() {
    std::pair<Version, PersistCallback> job;
    {
      MutexLock guard(mu_);
      if (!pending_.has_value()) return;
      job = std::move(*pending_);
      pending_.reset();
      durable_ = job.first;
    }
    if (job.second) job.second(job.first);
  }

  Status RestoreCheckpoint(Version version, Version* restored) override {
    // Note: an in-flight checkpoint is deliberately left pending so tests
    // can exercise stale persistence callbacks that land after a rollback.
    MutexLock guard(mu_);
    restored_to_ = std::min(version, durable_);
    version_ = version_ + 1;
    if (restored != nullptr) *restored = restored_to_;
    return Status::OK();
  }

  Version CurrentVersion() const override {
    MutexLock guard(mu_);
    return version_;
  }

  void SimulateCrash() override {
    MutexLock guard(mu_);
    crashed_ = true;
  }

  Version restored_to() const {
    MutexLock guard(mu_);
    return restored_to_;
  }
  bool crashed() const {
    MutexLock guard(mu_);
    return crashed_;
  }

 private:
  mutable Mutex mu_;
  Version version_ = 1;
  Version durable_ = 0;
  Version restored_to_ = 0;
  bool crashed_ = false;
  std::optional<std::pair<Version, PersistCallback>> pending_;
};

class DprWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metadata_ =
        std::make_unique<MetadataStore>(std::make_unique<MemoryDevice>());
    ASSERT_TRUE(metadata_->Recover().ok());
    finder_ = MakeDprFinder(
        {.kind = FinderKind::kExact, .metadata = metadata_.get()});
    DprWorkerOptions options;
    options.worker_id = 0;
    options.finder = finder_.get();
    options.checkpoint_interval_us = 0;  // manual commits
    worker_ = std::make_unique<DprWorker>(&state_, options);
    ASSERT_TRUE(worker_->Start().ok());
  }

  DprRequestHeader Header(WorldLine wl = kInitialWorldLine,
                          Version version = 0, DependencySet deps = {}) {
    DprRequestHeader h;
    h.session_id = 1;
    h.world_line = wl;
    h.version = version;
    h.deps = std::move(deps);
    return h;
  }

  FakeStateObject state_;
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> finder_;
  std::unique_ptr<DprWorker> worker_;
};

TEST_F(DprWorkerTest, BatchExecutesInCurrentVersion) {
  Version v;
  ASSERT_TRUE(worker_->BeginBatch(Header(), &v).ok());
  EXPECT_EQ(v, 1u);
  worker_->EndBatch();
}

TEST_F(DprWorkerTest, FastForwardsToClientVersion) {
  // Progress rule (§3.2): a client that has seen v5 forces this worker to
  // commit up to v5 before executing.
  Version v;
  ASSERT_TRUE(worker_->BeginBatch(Header(kInitialWorldLine, 5), &v).ok());
  EXPECT_GE(v, 5u);
  worker_->EndBatch();
  state_.ReleaseCheckpoint();  // token 1 becomes durable
  EXPECT_EQ(finder_->MaxPersistedVersion(), 1u);
}

TEST_F(DprWorkerTest, CommitReportsVersionAndDeps) {
  Version v;
  ASSERT_TRUE(
      worker_->BeginBatch(Header(kInitialWorldLine, 0, {{2, 3}}), &v).ok());
  worker_->EndBatch();
  ASSERT_TRUE(worker_->TryCommit().ok());
  state_.ReleaseCheckpoint();
  // The dependency on worker 2's v3 must be in the durable graph.
  const auto graph = metadata_->GetGraph();
  ASSERT_TRUE(graph.count(WorkerVersion{0, 1}));
  EXPECT_EQ(graph.at(WorkerVersion{0, 1}).at(2), 3u);
}

TEST_F(DprWorkerTest, CutAdvanceReachesTheWorkerAtOnce) {
  // No timer thread (checkpoint_interval_us = 0) and no polling: the
  // watermark moves as soon as ComputeCut publishes the advance.
  Version v;
  ASSERT_TRUE(worker_->BeginBatch(Header(), &v).ok());
  worker_->EndBatch();
  ASSERT_TRUE(worker_->TryCommit().ok());
  state_.ReleaseCheckpoint();
  EXPECT_EQ(worker_->persisted_watermark(), 0u);
  ASSERT_TRUE(finder_->ComputeCut().ok());
  EXPECT_EQ(worker_->persisted_watermark(), 1u);
  // A session holding an older epoch gets the cut's entries...
  DprResponseHeader resp;
  worker_->FillResponse(Header(), 2, DprResponseHeader::BatchStatus::kOk,
                        &resp);
  EXPECT_EQ(resp.executed_version, 2u);
  EXPECT_EQ(resp.cut_epoch, finder_->LastPublished().epoch);
  EXPECT_EQ(resp.cut, (DprCut{{0, 1}}));
  // ...and one that holds the worker's epoch gets the epoch alone.
  DprRequestHeader current = Header();
  current.cut_epoch = resp.cut_epoch;
  worker_->FillResponse(current, 2, DprResponseHeader::BatchStatus::kOk,
                        &resp);
  EXPECT_EQ(resp.cut_epoch, current.cut_epoch);
  EXPECT_TRUE(resp.cut.empty());
}

TEST_F(DprWorkerTest, StaleWorldLineBatchAborted) {
  ASSERT_TRUE(worker_->Rollback(2, 0).ok());
  Version v;
  Status s = worker_->BeginBatch(Header(/*wl=*/1), &v);
  EXPECT_TRUE(s.IsAborted());
}

TEST_F(DprWorkerTest, FutureWorldLineBatchDelayed) {
  Version v;
  Status s = worker_->BeginBatch(Header(/*wl=*/3), &v);
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
}

TEST_F(DprWorkerTest, RollbackRestoresAndAdvancesWorldLine) {
  Version v;
  ASSERT_TRUE(worker_->BeginBatch(Header(), &v).ok());
  worker_->EndBatch();
  ASSERT_TRUE(worker_->TryCommit().ok());
  state_.ReleaseCheckpoint();
  ASSERT_TRUE(worker_->Rollback(2, 1).ok());
  EXPECT_EQ(worker_->world_line(), 2u);
  EXPECT_EQ(state_.restored_to(), 1u);
  // Post-rollback batches on the new world-line are admitted.
  ASSERT_TRUE(worker_->BeginBatch(Header(/*wl=*/2), &v).ok());
  worker_->EndBatch();
}

TEST_F(DprWorkerTest, CrashAndRestoreDropsVolatileState) {
  ASSERT_TRUE(worker_->CrashAndRestore(2, 0).ok());
  EXPECT_TRUE(state_.crashed());
  EXPECT_EQ(worker_->world_line(), 2u);
}

TEST_F(DprWorkerTest, CommitWhileCheckpointInFlightIsBusy) {
  ASSERT_TRUE(worker_->TryCommit().ok());
  EXPECT_TRUE(worker_->TryCommit().IsBusy());
  state_.ReleaseCheckpoint();
  EXPECT_TRUE(worker_->TryCommit().ok());
  state_.ReleaseCheckpoint();
}

TEST_F(DprWorkerTest, StaleCheckpointReportRejectedAfterRollback) {
  // Checkpoint starts pre-failure, persists post-rollback: its report must
  // be ignored by the finder (it carries the old world-line).
  ASSERT_TRUE(worker_->TryCommit().ok());
  WorldLine new_wl;
  DprCut cut;
  ASSERT_TRUE(finder_->BeginRecovery(&new_wl, &cut).ok());
  ASSERT_TRUE(finder_->EndRecovery().ok());
  ASSERT_TRUE(worker_->Rollback(new_wl, 0).ok());
  state_.ReleaseCheckpoint();  // fires the stale persistence callback
  EXPECT_EQ(finder_->MaxPersistedVersion(), 0u);
}

// Version worker 0 checkpoints to on TryCommit(0) while peer worker 1 has
// persisted `peer_version`, under a finder built with `serve_vmax`.
Version CommitTargetWithPeerAt(Version peer_version, bool serve_vmax) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  EXPECT_TRUE(metadata.Recover().ok());
  auto finder = MakeDprFinder({.kind = FinderKind::kApprox,
                               .metadata = &metadata,
                               .vmax_fastforward = serve_vmax});
  EXPECT_TRUE(finder->AddWorker(1, 0).ok());
  EXPECT_TRUE(finder
                  ->ReportPersistedVersion(finder->CurrentWorldLine(),
                                           WorkerVersion{1, peer_version}, {})
                  .ok());
  FakeStateObject state;
  DprWorkerOptions options;
  options.worker_id = 0;
  options.finder = finder.get();
  options.checkpoint_interval_us = 0;  // manual commits
  DprWorker worker(&state, options);
  EXPECT_TRUE(worker.Start().ok());
  EXPECT_TRUE(worker.TryCommit().ok());
  return state.CurrentVersion();
}

TEST(DprWorkerVmaxTest, FinderSwitchSelectsFastForward) {
  // Vmax fast-forward (§3.4): a lagging worker at v1 jumps past the
  // cluster's largest persisted version...
  EXPECT_EQ(CommitTargetWithPeerAt(9, /*serve_vmax=*/true), 10u);
  // ...unless the finder does not serve Vmax; then it targets cur + 1.
  EXPECT_EQ(CommitTargetWithPeerAt(9, /*serve_vmax=*/false), 2u);
}

}  // namespace
}  // namespace dpr
