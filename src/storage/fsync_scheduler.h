#ifndef DPR_STORAGE_FSYNC_SCHEDULER_H_
#define DPR_STORAGE_FSYNC_SCHEDULER_H_

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "storage/device.h"

namespace dpr {

/// Per-box group-commit fsync scheduler.
///
/// Every durability point in the repro (WAL sync, FASTER checkpoint flush,
/// checkpoint blob seal, metadata mutation) used to issue its own fsync —
/// one per phase per shard. The scheduler instead registers each caller as a
/// *durability waiter* on the device's SyncRoot() and issues one fsync per
/// device per dispatch round: all waiters that arrived while the previous
/// fsync was in flight are absorbed by the next one.
///
/// Invariants (pinned by the storage tests):
///  - A waiter's callback fires only after a device fsync that was
///    *submitted at-or-after* RequestSync was called has completed. Waiters
///    that register while a group's fsync is already in flight join the
///    NEXT group — an in-flight fsync cannot vouch for writes it predates.
///  - One in-flight fsync per sync root at a time; groups on distinct
///    devices proceed independently, so one stalled device (slow-fsync
///    fault, cloud latency) delays only its own waiters.
///  - Callbacks are invoked with no scheduler locks held and may re-enter
///    RequestSync.
///
/// Fsyncs issued and waiters absorbed into an already-pending group (fsyncs
/// saved vs. the one-per-waiter world) are counted process-wide, across
/// scheduler instances, as `storage.sched.fsyncs` / `storage.sched.coalesced`.
///
/// Lock rank: kStorageSched (52) — below the consumers that call in while
/// holding kStorageWal (55) or kMetadata (70), above the devices (50) the
/// dispatcher submits to.
class GroupCommitScheduler {
 public:
  GroupCommitScheduler();
  ~GroupCommitScheduler();

  GroupCommitScheduler(const GroupCommitScheduler&) = delete;
  GroupCommitScheduler& operator=(const GroupCommitScheduler&) = delete;

  /// Registers `done` as a durability waiter on `dev`'s sync root. `dev`
  /// must outlive the callback's invocation.
  void RequestSync(Device* dev, IoCallback done);

  /// Blocking form of RequestSync: the sync path of the WAL, checkpoint
  /// files, the FASTER log and the RESP store's AOF.
  Status SyncNow(Device* dev);

 private:
  struct DeviceState {
    std::vector<IoCallback> pending;
    bool fsync_in_flight = false;
    bool queued = false;  // sitting in ready_
    uint64_t oldest_request_us = 0;
  };

  void DispatchLoop();
  void OnFsyncDone(Device* root, std::vector<IoCallback> batch, Status s);

  mutable Mutex mu_{LockRank::kStorageSched, "storage.sched"};
  CondVar cv_;
  std::unordered_map<Device*, DeviceState> devices_ GUARDED_BY(mu_);
  std::deque<Device*> ready_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t inflight_fsyncs_ GUARDED_BY(mu_) = 0;

  std::thread dispatcher_;
};

}  // namespace dpr

#endif  // DPR_STORAGE_FSYNC_SCHEDULER_H_
