#include "dpr/worker.h"

#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

struct WorkerMetrics {
  Counter* batches;
  Counter* admission_retries;
  Counter* admission_timeouts;
  Counter* checkpoints;
  Counter* rollbacks;
  Gauge* vmax_lag;
  ShardedHistogram* post_recovery_stamp_us;
};

const WorkerMetrics& Metrics() {
  static const WorkerMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return WorkerMetrics{r.counter("dpr.worker.batches"),
                         r.counter("dpr.worker.admission_retries"),
                         r.counter("dpr.worker.admission_timeouts"),
                         r.counter("dpr.worker.checkpoints"),
                         r.counter("dpr.worker.rollbacks"),
                         r.gauge("dpr.worker.vmax_lag"),
                         r.histogram("dpr.worker.post_recovery_stamp_us")};
  }();
  return m;
}

/// Admission-control retry policy for BeginBatch. Attempts are consumed by
/// benign races (a checkpoint or rollback slipping in between the world-line
/// check and the latch) and by version fast-forwards; the first few retries
/// just yield, after which the wait backs off exponentially so a worker
/// stuck mid-recovery is not hammered by a busy loop.
constexpr int kAdmissionMaxAttempts = 256;
constexpr int kAdmissionYieldAttempts = 16;
constexpr uint64_t kAdmissionBackoffInitialUs = 10;
constexpr uint64_t kAdmissionBackoffMaxUs = 1000;

void AdmissionBackoff(int attempt) {
  if (attempt < kAdmissionYieldAttempts) {
    std::this_thread::yield();
    return;
  }
  uint64_t delay = kAdmissionBackoffInitialUs;
  for (int i = kAdmissionYieldAttempts; i < attempt; ++i) {
    delay *= 2;
    if (delay >= kAdmissionBackoffMaxUs) {
      delay = kAdmissionBackoffMaxUs;
      break;
    }
  }
  SleepMicros(delay);
}

}  // namespace

DprWorker::DprWorker(StateObject* state_object,
                     const DprWorkerOptions& options)
    : state_object_(state_object),
      options_(options),
      ckpt_loop_(options_.checkpoint_interval_us, options_.ckpt_signals,
                 [this] {
                   return TryCommit(0, CheckpointHints{.index_image = true});
                 }) {
  DPR_CHECK(state_object_ != nullptr);
  DPR_CHECK(options_.finder != nullptr);
  DPR_CHECK(options_.worker_id != kInvalidWorker);
}

DprWorker::~DprWorker() { Stop(); }

Status DprWorker::Start() {
  world_line_.store(options_.finder->CurrentWorldLine(),
                    std::memory_order_release);
  DPR_RETURN_NOT_OK(options_.finder->AddWorker(options_.worker_id, 0));
  ckpt_loop_.Start();
  return Status::OK();
}

void DprWorker::Stop() { ckpt_loop_.Stop(); }

Status DprWorker::BeginBatch(const DprRequestHeader& header,
                             Version* out_version, bool has_ops) {
  for (int attempt = 0; attempt < kAdmissionMaxAttempts; ++attempt) {
    const WorldLine my_wl = world_line_.load(std::memory_order_acquire);
    if (header.world_line < my_wl) {
      // Client is on a pre-failure world-line; it must compute its surviving
      // prefix before operating in the new world (paper §4.2).
      return Status::Aborted("stale client world-line");
    }
    if (header.world_line > my_wl || in_recovery_.load()) {
      // This worker has not rolled back yet; make the client retry instead
      // of mixing world-lines.
      return Status::Transient("worker behind client world-line");
    }
    version_latch_.LockShared();
    if (in_recovery_.load(std::memory_order_acquire) ||
        world_line_.load(std::memory_order_acquire) != my_wl) {
      version_latch_.UnlockShared();
      Metrics().admission_retries->Add();
      AdmissionBackoff(attempt);
      continue;
    }
    const Version v = state_object_->CurrentVersion();
    if (v < header.version) {
      // Progress rule (§3.2): execute only in a version >= the client's Vs;
      // fast-forward by committing up to it.
      version_latch_.UnlockShared();
      Status s = TryCommit(header.version);
      if (!s.ok() && !s.IsBusy()) return s;
      Metrics().admission_retries->Add();
      AdmissionBackoff(attempt);
      continue;
    }
    // Record the batch's cross-worker dependencies against the version it
    // executes in. Striped by session — no global mutex on the hot path.
    deps_.Record(header.session_id, v, header.deps, options_.worker_id);
    // Still under the shared latch: kCkptLoop ranks below it.
    if (has_ops && kick_pending_.load(std::memory_order_relaxed) &&
        kick_pending_.exchange(false, std::memory_order_relaxed)) {
      ckpt_loop_.Kick();
    }
    *out_version = v;
    Metrics().batches->Add();
    return Status::OK();  // caller executes the batch, then EndBatch()
  }
  Metrics().admission_timeouts->Add();
  if (in_recovery_.load(std::memory_order_acquire)) {
    return Status::TimedOut("batch admission timed out during recovery");
  }
  return Status::TimedOut("batch admission timed out");
}

void DprWorker::EndBatch() { version_latch_.UnlockShared(); }

void DprWorker::FillResponse(const DprRequestHeader& request,
                             Version executed_version,
                             DprResponseHeader::BatchStatus status,
                             DprResponseHeader* resp) const {
  resp->status = status;
  resp->world_line = world_line_.load(std::memory_order_acquire);
  resp->executed_version = executed_version;
  resp->cut_epoch = options_.finder->published_epoch();
  resp->cut.clear();
  if (resp->cut_epoch == request.cut_epoch) return;  // session is current
  PublishedCut published = options_.finder->LastPublished();
  resp->cut_epoch = published.epoch;
  resp->cut = std::move(published.cut);
}

Status DprWorker::TryCommit(Version target_version,
                            const CheckpointHints& hints) {
  if (in_recovery_.load(std::memory_order_acquire)) {
    return Status::Unavailable("mid-recovery");
  }
  version_latch_.LockExclusive();
  const Version cur = state_object_->CurrentVersion();
  Version target = target_version;
  if (target == 0) {
    target = cur + 1;
    // Vmax fast-forward (§3.4): target at least the cluster's largest
    // persisted version so a lagging worker catches up. A finder built with
    // vmax_fastforward=false serves kInvalidVersion, leaving cur + 1.
    const Version vmax = options_.finder->MaxPersistedVersion();
    // How far this worker trails the cluster's fastest checkpointer — the
    // quantity Vmax fast-forward exists to bound (§5.2).
    Metrics().vmax_lag->Set(vmax > cur ? static_cast<int64_t>(vmax - cur)
                                       : 0);
    if (vmax + 1 > target) target = vmax + 1;  // catch up to the cluster
  }
  if (target <= cur) {
    version_latch_.UnlockExclusive();
    return Status::OK();  // someone already advanced past the target
  }
  const WorldLine wl = world_line_.load(std::memory_order_acquire);
  Version token = kInvalidVersion;
  Status s = state_object_->PerformCheckpoint(
      target, [this, wl](Version t) { OnCheckpointPersistent(wl, t); },
      &token, hints);
  if (s.ok() && recovered_at_us_ != 0) {
    Metrics().post_recovery_stamp_us->Record(NowMicros() - recovered_at_us_);
    recovered_at_us_ = 0;
  }
  version_latch_.UnlockExclusive();
  return s;
}

void DprWorker::OnCheckpointPersistent(WorldLine world_line, Version token) {
  Metrics().checkpoints->Add();
  // The report covers every version up to `token` not yet reported; fold
  // their dependency sets together (versions are cumulative prefixes).
  DependencySet deps = deps_.DrainUpTo(token);
  Status s = options_.finder->ReportPersistedVersion(
      world_line, WorkerVersion{options_.worker_id, token}, deps);
  if (!s.ok() && !s.IsAborted()) {
    DPR_WARN("worker %u report v%llu: %s", options_.worker_id,
             static_cast<unsigned long long>(token), s.ToString().c_str());
    // The report never reached the tracking plane, and the drained set was
    // the only record of what those versions depend on. Re-stage it
    // at `token` so the next successful report folds it back in — dropping
    // it here lets a later report advance the cut past `token` without its
    // dependencies, breaking dependency closure (P2). Skipped when a
    // rollback intervened (Aborted above, or the world-line check here):
    // the tracker was cleared and these deps describe an erased world-line.
    if (!deps.empty() &&
        world_line_.load(std::memory_order_acquire) == world_line) {
      deps_.Record(/*session_id=*/0, token, deps, options_.worker_id);
    }
  }
}

Status DprWorker::Rollback(WorldLine new_world_line, Version safe_version) {
  return RollbackInternal(new_world_line, safe_version, /*crash=*/false);
}

Status DprWorker::CrashAndRestore(WorldLine new_world_line,
                                  Version safe_version) {
  return RollbackInternal(new_world_line, safe_version, /*crash=*/true);
}

Status DprWorker::RollbackInternal(WorldLine new_world_line,
                                   Version safe_version, bool crash) {
  Metrics().rollbacks->Add();
  in_recovery_.store(true, std::memory_order_release);
  // Quiesce in-flight batches before touching store state: a simulated
  // crash drops the volatile log, which no concurrently-executing batch may
  // still be reading.
  version_latch_.LockExclusive();
  if (crash) state_object_->SimulateCrash();
  Version restored = kInvalidVersion;
  Status s = state_object_->RestoreCheckpoint(safe_version, &restored);
  if (s.ok()) {
    // Tracked dependencies belong to the rolled-back world-line.
    deps_.Clear();
    world_line_.store(new_world_line, std::memory_order_release);
    kick_pending_.store(true, std::memory_order_relaxed);
    recovered_at_us_ = NowMicros();
  }
  version_latch_.UnlockExclusive();
  in_recovery_.store(false, std::memory_order_release);
  return s;
}

}  // namespace dpr
