#ifndef DPR_STORAGE_WAL_H_
#define DPR_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/device.h"

namespace dpr {

class GroupCommitScheduler;

/// Append-only write-ahead log over a Device. Records are length-prefixed and
/// CRC32C-checksummed; replay stops cleanly at the first torn or missing
/// record, so a crash mid-append loses at most the unsynced suffix.
///
/// Thread-safe: appends are serialized internally. Group commit is the
/// caller's policy — batch appends, then call Sync() once. When constructed
/// with a GroupCommitScheduler, Sync()/SyncAsync() register durability
/// waiters there instead of issuing a private fsync, so logs sharing a
/// device (or a DeviceSlice of one) coalesce into one fsync per group.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::unique_ptr<Device> device,
                         GroupCommitScheduler* scheduler = nullptr);

  /// Appends one record; returns its starting offset. Durable after the next
  /// successful Sync().
  Status Append(Slice record, uint64_t* offset = nullptr);

  /// Makes all appended records durable.
  Status Sync();

  /// Async variant: `done` fires once all records appended before this call
  /// are durable (via the scheduler's next fsync group when attached).
  void SyncAsync(IoCallback done);

  /// Invokes `visitor(offset, record)` for each intact record in order.
  /// Returns OK even if the log ends in a torn record (that suffix is
  /// silently dropped, as crash recovery requires).
  Status Replay(
      const std::function<void(uint64_t offset, Slice record)>& visitor);

  /// Reads the one record starting at `offset` (as returned by Append or
  /// passed to a Replay visitor). Corruption when it is torn, runs past the
  /// end of the log, or fails its checksum.
  Status ReadRecord(uint64_t offset, std::string* record);

  /// Discards the entire log (e.g. after a compacting checkpoint).
  Status Reset();

  uint64_t SizeBytes() const { return device_->Size(); }
  Device* device() { return device_.get(); }

 private:
  std::unique_ptr<Device> device_;
  GroupCommitScheduler* scheduler_;  // optional, not owned
  Mutex mu_{LockRank::kStorageWal, "storage.wal"};
  uint64_t tail_ GUARDED_BY(mu_) = 0;
};

}  // namespace dpr

#endif  // DPR_STORAGE_WAL_H_
