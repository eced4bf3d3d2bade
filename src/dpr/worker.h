#ifndef DPR_DPR_WORKER_H_
#define DPR_DPR_WORKER_H_

#include <atomic>
#include <functional>

#include "ckpt/cadence.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/sync.h"
#include "dpr/dep_tracker.h"
#include "dpr/finder.h"
#include "dpr/header.h"
#include "dpr/state_object.h"
#include "dpr/types.h"

namespace dpr {

struct DprWorkerOptions {
  WorkerId worker_id = kInvalidWorker;
  DprFinder* finder = nullptr;
  /// RPO ceiling of the checkpoint tick loop (src/ckpt/); 0 disables the
  /// loop (manual TryCommit only, as tests prefer).
  uint64_t checkpoint_interval_us = 100000;
  /// Dirty-byte sampler polled before every cadence decision. Unset: the
  /// controller assumes the store is always dirty — no idle skips, cadence
  /// at the RPO ceiling — so signal-less workers keep checkpointing.
  std::function<CkptSignals()> ckpt_signals;
};

/// Server-side libDPR (paper §6): wraps any StateObject with the DPR
/// protocol. Request batches pass through BeginBatch()/EndBatch(), which
///  * validate the client's world-line against the worker's,
///  * fast-forward the worker's version when the client has seen a larger
///    one (the progress guarantee of §3.2),
///  * merge the batch's dependency set into the version it executes in, and
///  * hold the shared version latch so an entire batch lands in one version
///    (checkpoints take it exclusively, briefly, to draw the boundary).
/// The checkpoint tick loop (CkptLoop) commits periodically, each tick with
/// an index image; persistence callbacks report (version, deps) to the
/// DprFinder off the critical path. Responses
/// carry the finder's latest published cut to sessions whose last-seen
/// epoch differs, so a commit reaches sessions as soon as the cut advances.
///
/// Dependency bookkeeping is sharded (VersionDependencyTracker): BeginBatch
/// records into a lock-striped structure keyed by session hash and takes no
/// process-global mutex; the stripes are merged only when a checkpoint
/// persists and the folded set is reported to the finder.
class DprWorker {
 public:
  DprWorker(StateObject* state_object, const DprWorkerOptions& options);
  ~DprWorker();

  DprWorker(const DprWorker&) = delete;
  DprWorker& operator=(const DprWorker&) = delete;

  /// Registers with the finder and starts the commit timer (if configured).
  Status Start();
  void Stop();

  /// Admission control for one request batch. On OK, `*out_version` is the
  /// version every operation of the batch executes in, and the caller must
  /// execute the batch and then call EndBatch(). Failure modes:
  ///  * Aborted   — client world-line is stale; respond kWorldLineShift.
  ///  * Transient — worker mid-recovery or behind the client's world-line;
  ///                respond kRetryLater.
  /// `has_ops` is false for an empty batch (a session's commit ping). The
  /// first batch with ops admitted after a recovery kicks the checkpoint
  /// loop: every session's commit waits on this worker's first
  /// post-recovery checkpoint, so it should not wait out the cadence.
  Status BeginBatch(const DprRequestHeader& header, Version* out_version,
                    bool has_ops = true);
  void EndBatch();

  /// Fills the response header for `request`'s batch, which executed in
  /// `executed_version` (or was rejected, with the status mapped from
  /// BeginBatch()). The header carries the finder's published cut epoch,
  /// plus the cut's entries when the request's epoch differs from it.
  void FillResponse(const DprRequestHeader& request, Version executed_version,
                    DprResponseHeader::BatchStatus status,
                    DprResponseHeader* resp) const;

  /// Triggers a commit now. target 0 means current+1 (with Vmax
  /// fast-forward when enabled). Returns Busy if the store is already
  /// checkpointing; that is benign (the tick loop will retry). `hints` are
  /// forwarded to the store; the default is an image-less barrier
  /// checkpoint, and only the tick loop asks for an index image.
  Status TryCommit(Version target_version = 0,
                   const CheckpointHints& hints = CheckpointHints{});

  /// Rolls the store back to `safe_version` on world-line `new_world_line`
  /// (invoked by the cluster manager during recovery, §4).
  Status Rollback(WorldLine new_world_line, Version safe_version);

  /// Marks this worker as failed-and-restarted: volatile state is dropped,
  /// then the store is restored like any other rollback.
  Status CrashAndRestore(WorldLine new_world_line, Version safe_version);

  WorkerId id() const { return options_.worker_id; }
  StateObject* state_object() { return state_object_; }
  WorldLine world_line() const {
    return world_line_.load(std::memory_order_acquire);
  }
  /// This worker's entry in the finder's latest published cut.
  Version persisted_watermark() const {
    return options_.finder->PublishedVersion(options_.worker_id);
  }

 private:
  Status RollbackInternal(WorldLine new_world_line, Version safe_version,
                          bool crash);
  void OnCheckpointPersistent(WorldLine world_line, Version token);

  StateObject* state_object_;
  DprWorkerOptions options_;

  /// Batches hold this shared for their whole execution (BeginBatch →
  /// EndBatch, same thread); checkpoints and rollbacks take it exclusively.
  /// Ranked above every store/finder lock acquired underneath it.
  SharedSpinLatch version_latch_{LockRank::kWorkerVersionLatch,
                                 "worker.version_latch"};
  /// Recovery state read on every batch admission. release on store /
  /// acquire on load: a batch that observes the new world line (or the
  /// recovery flag) must also observe the rollback it announces.
  std::atomic<uint64_t> world_line_{kInitialWorldLine};
  std::atomic<bool> in_recovery_{false};
  /// Set by a successful rollback; the first batch with ops admitted after
  /// it clears the flag and kicks ckpt_loop_. Relaxed: set under the
  /// exclusive version latch and read under the shared one, which orders
  /// them; the exchange lets only one concurrent batch kick.
  std::atomic<bool> kick_pending_{false};
  /// When the last rollback finished (0 once a checkpoint has been stamped
  /// since), for dpr.worker.post_recovery_stamp_us.
  uint64_t recovered_at_us_ GUARDED_BY(version_latch_) = 0;

  /// Dependency sets accumulated per (uncommitted) version, striped by
  /// session; merged only at checkpoint-persist time.
  VersionDependencyTracker deps_;

  /// Periodic image checkpoints (started by Start(), stopped by Stop()).
  CkptLoop ckpt_loop_;
};

}  // namespace dpr

#endif  // DPR_DPR_WORKER_H_
