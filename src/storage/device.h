#ifndef DPR_STORAGE_DEVICE_H_
#define DPR_STORAGE_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "storage/async_io.h"

namespace dpr {

/// Abstraction over a durable byte-addressable device backing a HybridLog
/// segment, a WAL, or a checkpoint file.
///
/// The device API is asynchronous: SubmitWrite/SubmitRead/SubmitFsync enqueue
/// the operation and invoke a completion callback exactly once — inline on
/// the submitting thread for memory-backed devices and immediate failures, or
/// on an I/O engine completion thread for file-backed ones. Completions may
/// arrive out of order; callers must not submit concurrent overlapping writes
/// to the same range. Implementations invoke callbacks with no device or
/// engine locks held, so a callback may re-enter the storage plane (e.g.
/// SyncIo::Fsync's completion takes the root's group-commit lock).
///
/// There is deliberately no blocking member API: a call site that needs to
/// wait goes through the explicit SyncIo helper below, so a blocking
/// rendezvous is visible where it happens and cannot silently creep onto a
/// hot path. See DESIGN.md §4h.
///
/// Durability model: data is guaranteed to survive a (simulated) crash only
/// after an fsync *submitted after the write completed* itself completes.
/// `SimulateCrash()` discards all writes not covered by a completed fsync,
/// which lets tests exercise real recovery code paths in-process.
class Device {
 public:
  virtual ~Device() = default;

  // --- asynchronous primary API -------------------------------------------

  /// `data` must stay valid until `done` fires.
  virtual void SubmitWrite(uint64_t offset, const void* data, size_t n,
                           IoCallback done) = 0;
  virtual void SubmitRead(uint64_t offset, void* buf, size_t n,
                          IoCallback done) = 0;

  /// Makes durable (at least) every write whose completion was observed
  /// before this call returned, then fires `done`.
  virtual void SubmitFsync(IoCallback done) = 0;

  // --- common -------------------------------------------------------------

  /// Current size in bytes (high-water mark of completed writes).
  virtual uint64_t Size() const = 0;

  /// Drops all non-durable data, as a crash would. Callers must quiesce
  /// their own submissions first.
  virtual void SimulateCrash() = 0;

  /// Deletes all content (durable included); used to reset between runs.
  virtual void Truncate(uint64_t new_size) = 0;

  /// Group-commit identity for SyncIo::Fsync: devices that share physical
  /// durability (e.g. DeviceSlice views of one file) return the same root,
  /// so one fsync on the root covers them all. Fault wrappers return
  /// themselves to keep injection probes on the coalesced path.
  virtual Device* SyncRoot() { return this; }

 private:
  friend struct SyncIo;
  struct FsyncGroup;

  // Group-commit state, used only while this device is a SyncRoot(): the
  // fsync in flight, if any, and the group of waiters that will share the
  // next one.
  Mutex group_mu_{LockRank::kStorageGroupCommit, "storage.group_commit"};
  CondVar group_cv_;
  bool fsync_in_flight_ GUARDED_BY(group_mu_) = false;
  std::shared_ptr<FsyncGroup> next_group_ GUARDED_BY(group_mu_);
};

/// Blocking rendezvous over the async Device API, for the call sites where
/// waiting is the point: every durability point (WAL sync, checkpoint flush,
/// AOF), WAL replay, checkpoint recovery, tests and tools. The wait reads as
/// a SyncIo call at the site, and dprlint's `device-shim` check rejects
/// `.WriteAt(` / `.ReadAt(` member calls so a hidden blocking style cannot
/// come back.
///
/// Fsync is group commit (DESIGN.md §4h). Waiters coalesce on
/// `device->SyncRoot()`: the first waiter of a group submits the fsync on
/// its own thread, and waiters that arrive while it is in flight form the
/// next group, which one of them submits once it completes. A waiter is
/// answered only by an fsync submitted at or after its call, and each root
/// has at most one fsync in flight, so a slow device (cloud latency,
/// slow-fsync fault) delays only its own waiters. dprlint's `fsync-bypass`
/// check flags direct SubmitFsync calls outside src/storage/. Counted in
/// `storage.sched.requests` (calls), `storage.sched.fsyncs` (device fsyncs),
/// `storage.sched.coalesced` (calls answered by an fsync that also answered
/// an earlier call, so requests == fsyncs + coalesced) and
/// `storage.sched.wait_us` (a group's first call to its submission).
struct SyncIo {
  static Status Write(Device* device, uint64_t offset, const void* data,
                      size_t n);
  static Status Read(Device* device, uint64_t offset, void* buf, size_t n);
  static Status Fsync(Device* device);
};

/// Discards writes instantly and cannot be read back. Models the paper's
/// "null" storage backend: a theoretical upper bound that pays all of the
/// checkpointing/DPR CPU cost but none of the I/O cost.
class NullDevice : public Device {
 public:
  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override {
    return size_.load(std::memory_order_relaxed);
  }
  void SimulateCrash() override {}
  void Truncate(uint64_t new_size) override {
    size_.store(new_size, std::memory_order_relaxed);
  }

 private:
  // relaxed: size high-water mark; nothing is retained, so there is no data
  // to publish.
  std::atomic<uint64_t> size_{0};
};

/// Memory-backed device with an explicit durable watermark: writes land in a
/// volatile buffer, fsync copies the image to the durable one. Completions
/// fire inline on the submitting thread (after the device lock is dropped).
/// Used as the "local SSD" stand-in in unit tests (fast, deterministic) and
/// as the base layer for LatencyDevice.
class MemoryDevice : public Device {
 public:
  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override;
  void SimulateCrash() override;
  void Truncate(uint64_t new_size) override;

 private:
  mutable Mutex mu_{LockRank::kStorage, "device.memory"};
  std::string volatile_ GUARDED_BY(mu_);  // contiguous image of all writes
  std::string durable_ GUARDED_BY(mu_);   // image as of the last fsync
  // Bytes written since the last fsync lie in [dirty_lo_, dirty_hi_) (empty
  // when lo >= hi), so an fsync copies only them. Outside the range the
  // images agree, and volatile_ beyond durable_'s end holds zeros.
  uint64_t dirty_lo_ GUARDED_BY(mu_) = UINT64_MAX;
  uint64_t dirty_hi_ GUARDED_BY(mu_) = 0;
};

/// Real file-backed device. Writes, reads, and fsyncs are submitted to a
/// shared IoEngine (io_uring or the portable thread pool); nothing blocks on
/// the submitting thread. SimulateCrash() truncates the file back to the
/// last-synced watermark — the largest prefix with no write still in flight
/// when the covering fsync was submitted (writes beyond it may or may not
/// have hit media on a real crash; we model the worst case).
class FileDevice : public Device {
 public:
  /// Creates (or truncates, if `reset`) the file at `path`. A null `engine`
  /// selects the process-wide DefaultIoEngine().
  static Status Open(const std::string& path, bool reset,
                     std::unique_ptr<FileDevice>* out,
                     std::shared_ptr<IoEngine> engine = nullptr);
  ~FileDevice() override;

  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override;
  void SimulateCrash() override;
  void Truncate(uint64_t new_size) override;

  const std::string& path() const { return path_; }
  IoEngine* engine() const { return engine_.get(); }

 private:
  FileDevice(std::string path, int fd, std::shared_ptr<IoEngine> engine);

  /// Blocks until no submissions are in flight (crash/truncate/destruction).
  void Drain();

  std::string path_;
  int fd_;
  std::shared_ptr<IoEngine> engine_;
  mutable Mutex mu_{LockRank::kStorage, "device.file"};
  CondVar idle_ GUARDED_BY(mu_);
  size_t inflight_ops_ GUARDED_BY(mu_) = 0;
  // Start offsets of writes still in flight; the fsync watermark cannot pass
  // the lowest one (a later-completing earlier write would otherwise be
  // claimed durable).
  std::multiset<uint64_t> inflight_writes_ GUARDED_BY(mu_);
  uint64_t size_ GUARDED_BY(mu_) = 0;  // high-water mark of completed writes
  // High-water mark covered by a completed fsync.
  uint64_t durable_size_ GUARDED_BY(mu_) = 0;
};

/// Wraps another device and injects latency, modeling remote/cloud storage
/// (the paper's Azure Premium SSD backend where checkpoint persistence takes
/// ~50 ms, 2-3x local SSD). SubmitFsync stalls the submitting thread for
/// `flush_latency_us` plus `per_mb_us` for each MiB written since the
/// previous fsync. Under SyncIo::Fsync that thread is the group's leader, so
/// the stall delays only this device's waiters, like a slow physical device.
class LatencyDevice : public Device {
 public:
  LatencyDevice(std::unique_ptr<Device> base, uint64_t flush_latency_us,
                uint64_t per_mb_us);

  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override { return base_->Size(); }
  void SimulateCrash() override { base_->SimulateCrash(); }
  void Truncate(uint64_t new_size) override { base_->Truncate(new_size); }

 private:
  std::unique_ptr<Device> base_;
  uint64_t flush_latency_us_;
  uint64_t per_mb_us_;
  // relaxed: latency-model bookkeeping only; never used for correctness.
  std::atomic<uint64_t> bytes_since_flush_{0};
};

/// Wraps another device and injects storage faults from the process-wide
/// FaultPlane: failed writes (device.write_fail), torn writes that persist
/// only a prefix of the range before erroring (device.torn_write), and slow
/// fsync (device.slow_fsync, param = stall in microseconds). `scope` keys
/// the injection points so a chaos schedule can target one worker's device.
/// Probes fire on the submission path, so they behave identically under the
/// thread-pool and io_uring engines (the parity regression test pins this).
/// Zero overhead while the plane is disabled.
class FaultDevice : public Device {
 public:
  FaultDevice(std::unique_ptr<Device> base, uint64_t scope);

  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override { return base_->Size(); }
  void SimulateCrash() override { base_->SimulateCrash(); }
  void Truncate(uint64_t new_size) override { base_->Truncate(new_size); }
  // Intentionally keeps the default SyncRoot() == this: coalesced fsyncs
  // must pass through the fault probes.

 private:
  std::unique_ptr<Device> base_;
  const uint64_t scope_;
};

/// Non-owning fixed-origin view of a shared base device, used to pack many
/// shard logs into one physical file so their fsyncs coalesce (the bench's
/// multi-shard-per-device configuration). Size() is the view's own completed
/// high-water mark; SyncRoot() forwards to the base so SyncIo::Fsync folds
/// concurrent waiters on all slices of a file into one fsync. Truncate only
/// resets the view's watermark (a shared base cannot be cut); SimulateCrash
/// crashes the whole base device.
class DeviceSlice : public Device {
 public:
  DeviceSlice(Device* base, uint64_t origin);

  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override;
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override;
  void SubmitFsync(IoCallback done) override;
  uint64_t Size() const override;
  void SimulateCrash() override { base_->SimulateCrash(); }
  void Truncate(uint64_t new_size) override;
  Device* SyncRoot() override { return base_->SyncRoot(); }

 private:
  Device* base_;
  const uint64_t origin_;
  mutable Mutex mu_{LockRank::kStorage, "device.slice"};
  uint64_t size_ GUARDED_BY(mu_) = 0;
};

/// The paper's three storage backends. Tests and benches that need a
/// specific async engine pin it through IoEngineKind instead.
enum class StorageBackend { kNull, kLocal, kCloud };

/// Factory: kNull -> NullDevice; kLocal -> MemoryDevice (or FileDevice when
/// `dir` is non-empty); kCloud -> LatencyDevice over the local device.
std::unique_ptr<Device> MakeDevice(StorageBackend backend,
                                   const std::string& dir = "",
                                   const std::string& name = "");

}  // namespace dpr

#endif  // DPR_STORAGE_DEVICE_H_
