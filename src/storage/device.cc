#include "storage/device.h"

// The raw positional syscalls here (open/lseek/ftruncate bookkeeping and the
// pread/pwrite backends) are the Device implementation itself, not a bypass
// of it — dprlint's storage-raw-io check exempts storage/ for this reason.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"

namespace dpr {

// ------------------------------------------------------------------- SyncIo

namespace {

/// Stack-allocated rendezvous for the explicit SyncIo helper. The completion
/// may fire inline (before Wait is entered) or from an engine thread; the
/// notify happens while holding the waiter's own mutex, so the waiter cannot
/// be destroyed between the state change and the broadcast.
struct SyncWaiter {
  Mutex mu{LockRank::kStorageIoWait, "device.sync_waiter"};
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status status GUARDED_BY(mu);

  IoCallback Callback() {
    return [this](Status s) {
      MutexLock lock(mu);
      status = std::move(s);
      done = true;
      cv.NotifyAll();
    };
  }

  Status Wait() {
    MutexLock lock(mu);
    while (!done) cv.Wait(mu);
    return status;
  }
};

}  // namespace

Status SyncIo::Write(Device* device, uint64_t offset, const void* data,
                     size_t n) {
  SyncWaiter waiter;
  device->SubmitWrite(offset, data, n, waiter.Callback());
  return waiter.Wait();
}

Status SyncIo::Read(Device* device, uint64_t offset, void* buf, size_t n) {
  SyncWaiter waiter;
  device->SubmitRead(offset, buf, n, waiter.Callback());
  return waiter.Wait();
}

// ------------------------------------------------------------- group commit

namespace {

struct GroupCommitMetrics {
  Counter* requests;
  Counter* fsyncs;
  Counter* coalesced;
  ShardedHistogram* wait_us;

  static GroupCommitMetrics& Get() {
    static GroupCommitMetrics m = [] {
      auto& reg = MetricsRegistry::Default();
      return GroupCommitMetrics{reg.counter("storage.sched.requests"),
                                reg.counter("storage.sched.fsyncs"),
                                reg.counter("storage.sched.coalesced"),
                                reg.histogram("storage.sched.wait_us")};
    }();
    return m;
  }
};

}  // namespace

/// The waiters one device fsync answers. Shared by its waiters, which read
/// `status` after the leader that submitted the fsync may have returned.
struct Device::FsyncGroup {
  uint64_t first_request_us = 0;
  uint64_t waiters = 0;
  bool done = false;
  Status status;
};

Status SyncIo::Fsync(Device* device) {
  Device* root = device->SyncRoot();
  GroupCommitMetrics& m = GroupCommitMetrics::Get();
  std::shared_ptr<Device::FsyncGroup> group;
  {
    MutexLock lock(root->group_mu_);
    m.requests->Add(1);
    if (root->next_group_ == nullptr) {
      root->next_group_ = std::make_shared<Device::FsyncGroup>();
      root->next_group_->first_request_us = NowMicros();
    }
    group = root->next_group_;
    ++group->waiters;
    // Only the in-flight fsync's completion clears fsync_in_flight_, and a
    // group is submitted only by setting it, so a group that is not done
    // when nothing is in flight has not been submitted: this waiter leads.
    while (!group->done && root->fsync_in_flight_) {
      root->group_cv_.Wait(root->group_mu_);
    }
    if (group->done) return group->status;
    root->fsync_in_flight_ = true;
    root->next_group_.reset();  // later callers form the next group
    m.fsyncs->Add(1);
    m.coalesced->Add(group->waiters - 1);
    m.wait_us->Record(NowMicros() - group->first_request_us);
  }
  // Submitted on the leader's own thread with no lock held: a device that
  // stalls its submitter (LatencyDevice, slow-fsync faults) stalls only this
  // root's waiters.
  root->SubmitFsync([root, group](Status s) {
    MutexLock lock(root->group_mu_);
    group->status = std::move(s);
    group->done = true;
    root->fsync_in_flight_ = false;
    root->group_cv_.NotifyAll();
  });
  MutexLock lock(root->group_mu_);
  while (!group->done) root->group_cv_.Wait(root->group_mu_);
  return group->status;
}

// ---------------------------------------------------------------- NullDevice

void NullDevice::SubmitWrite(uint64_t offset, const void* /*data*/, size_t n,
                             IoCallback done) {
  uint64_t end = offset + n;
  uint64_t cur = size_.load(std::memory_order_relaxed);
  while (end > cur &&
         !size_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
  }
  if (done) done(Status::OK());
}

void NullDevice::SubmitRead(uint64_t /*offset*/, void* buf, size_t n,
                            IoCallback done) {
  // Nothing was retained; zero-fill so callers get deterministic bytes.
  memset(buf, 0, n);
  if (done) done(Status::OK());
}

void NullDevice::SubmitFsync(IoCallback done) {
  if (done) done(Status::OK());
}

// -------------------------------------------------------------- MemoryDevice

void MemoryDevice::SubmitWrite(uint64_t offset, const void* data, size_t n,
                               IoCallback done) {
  {
    MutexLock guard(mu_);
    if (offset + n > volatile_.size()) volatile_.resize(offset + n, '\0');
    memcpy(volatile_.data() + offset, data, n);
  }
  if (done) done(Status::OK());
}

void MemoryDevice::SubmitRead(uint64_t offset, void* buf, size_t n,
                              IoCallback done) {
  Status s;
  {
    MutexLock guard(mu_);
    if (offset + n > volatile_.size()) {
      s = Status::IOError("MemoryDevice: read past end");
    } else {
      memcpy(buf, volatile_.data() + offset, n);
    }
  }
  if (done) done(std::move(s));
}

void MemoryDevice::SubmitFsync(IoCallback done) {
  {
    MutexLock guard(mu_);
    durable_ = volatile_;
  }
  if (done) done(Status::OK());
}

uint64_t MemoryDevice::Size() const {
  MutexLock guard(mu_);
  return volatile_.size();
}

void MemoryDevice::SimulateCrash() {
  MutexLock guard(mu_);
  volatile_ = durable_;
}

void MemoryDevice::Truncate(uint64_t new_size) {
  MutexLock guard(mu_);
  volatile_.resize(new_size, '\0');
  durable_.resize(new_size < durable_.size() ? new_size : durable_.size(),
                  '\0');
}

// ---------------------------------------------------------------- FileDevice

FileDevice::FileDevice(std::string path, int fd,
                       std::shared_ptr<IoEngine> engine)
    : path_(std::move(path)), fd_(fd), engine_(std::move(engine)) {}

FileDevice::~FileDevice() {
  Drain();
  if (fd_ >= 0) close(fd_);
}

void FileDevice::Drain() {
  MutexLock guard(mu_);
  while (inflight_ops_ > 0) idle_.Wait(mu_);
}

Status FileDevice::Open(const std::string& path, bool reset,
                        std::unique_ptr<FileDevice>* out,
                        std::shared_ptr<IoEngine> engine) {
  int flags = O_RDWR | O_CREAT;
  if (reset) flags |= O_TRUNC;
  int fd = open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  if (engine == nullptr) engine = DefaultIoEngine();
  auto dev = std::unique_ptr<FileDevice>(
      new FileDevice(path, fd, std::move(engine)));
  off_t end = lseek(fd, 0, SEEK_END);
  if (end < 0) {
    return Status::IOError("lseek " + path + ": " + strerror(errno));
  }
  dev->size_ = static_cast<uint64_t>(end);
  dev->durable_size_ = dev->size_;
  *out = std::move(dev);
  return Status::OK();
}

void FileDevice::SubmitWrite(uint64_t offset, const void* data, size_t n,
                             IoCallback done) {
  {
    MutexLock guard(mu_);
    ++inflight_ops_;
    inflight_writes_.insert(offset);
  }
  IoOp op;
  op.type = IoOp::Type::kWrite;
  op.fd = fd_;
  op.offset = offset;
  op.write_buf = data;
  op.len = n;
  op.done = [this, offset, n, done = std::move(done)](Status s) {
    {
      MutexLock guard(mu_);
      inflight_writes_.erase(inflight_writes_.find(offset));
      if (s.ok() && offset + n > size_) size_ = offset + n;
      --inflight_ops_;
      if (inflight_ops_ == 0) idle_.NotifyAll();
    }
    if (done) done(std::move(s));
  };
  engine_->Submit(std::move(op));
}

void FileDevice::SubmitRead(uint64_t offset, void* buf, size_t n,
                            IoCallback done) {
  {
    MutexLock guard(mu_);
    ++inflight_ops_;
  }
  IoOp op;
  op.type = IoOp::Type::kRead;
  op.fd = fd_;
  op.offset = offset;
  op.read_buf = buf;
  op.len = n;
  op.done = [this, done = std::move(done)](Status s) {
    {
      MutexLock guard(mu_);
      --inflight_ops_;
      if (inflight_ops_ == 0) idle_.NotifyAll();
    }
    if (done) done(std::move(s));
  };
  engine_->Submit(std::move(op));
}

void FileDevice::SubmitFsync(IoCallback done) {
  uint64_t watermark;
  {
    MutexLock guard(mu_);
    ++inflight_ops_;
    // The fsync can only vouch for the prefix with no write still in
    // flight: a lower-offset write completing after us would otherwise be
    // claimed durable without having been synced.
    watermark = inflight_writes_.empty()
                    ? size_
                    : std::min<uint64_t>(size_, *inflight_writes_.begin());
  }
  IoOp op;
  op.type = IoOp::Type::kFsync;
  op.fd = fd_;
  op.done = [this, watermark, done = std::move(done)](Status s) {
    {
      MutexLock guard(mu_);
      if (s.ok() && watermark > durable_size_) durable_size_ = watermark;
      --inflight_ops_;
      if (inflight_ops_ == 0) idle_.NotifyAll();
    }
    if (done) done(std::move(s));
  };
  engine_->Submit(std::move(op));
}

uint64_t FileDevice::Size() const {
  MutexLock guard(mu_);
  return size_;
}

void FileDevice::SimulateCrash() {
  Drain();
  MutexLock guard(mu_);
  if (ftruncate(fd_, static_cast<off_t>(durable_size_)) != 0) {
    DPR_WARN("ftruncate %s failed: %s", path_.c_str(), strerror(errno));
  }
  size_ = durable_size_;
}

void FileDevice::Truncate(uint64_t new_size) {
  Drain();
  MutexLock guard(mu_);
  if (ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
    DPR_WARN("ftruncate %s failed: %s", path_.c_str(), strerror(errno));
    return;
  }
  size_ = new_size;
  if (durable_size_ > new_size) durable_size_ = new_size;
}

// ------------------------------------------------------------- LatencyDevice

LatencyDevice::LatencyDevice(std::unique_ptr<Device> base,
                             uint64_t flush_latency_us, uint64_t per_mb_us)
    : base_(std::move(base)),
      flush_latency_us_(flush_latency_us),
      per_mb_us_(per_mb_us) {}

void LatencyDevice::SubmitWrite(uint64_t offset, const void* data, size_t n,
                                IoCallback done) {
  bytes_since_flush_.fetch_add(n, std::memory_order_relaxed);
  base_->SubmitWrite(offset, data, n, std::move(done));
}

void LatencyDevice::SubmitRead(uint64_t offset, void* buf, size_t n,
                               IoCallback done) {
  base_->SubmitRead(offset, buf, n, std::move(done));
}

void LatencyDevice::SubmitFsync(IoCallback done) {
  const uint64_t pending =
      bytes_since_flush_.exchange(0, std::memory_order_relaxed);
  const uint64_t delay = flush_latency_us_ + per_mb_us_ * (pending >> 20);
  if (delay > 0) SleepMicros(delay);
  base_->SubmitFsync(std::move(done));
}

// --------------------------------------------------------------- FaultDevice

FaultDevice::FaultDevice(std::unique_ptr<Device> base, uint64_t scope)
    : base_(std::move(base)), scope_(scope) {}

void FaultDevice::SubmitWrite(uint64_t offset, const void* data, size_t n,
                              IoCallback done) {
  FaultPlane& plane = FaultPlane::Instance();
  if (plane.enabled()) {
    if (plane.ShouldFire(faults::kDevWriteFail, scope_)) {
      if (done) done(Status::IOError("injected write failure"));
      return;
    }
    if (n > 0 && plane.ShouldFire(faults::kDevTornWrite, scope_)) {
      // A torn write persists a prefix and then reports failure, like a
      // sector-aligned partial write at power loss. The caller must treat
      // the range as garbage (checkpoint flushes do: an unregistered
      // checkpoint is rewritten from scratch on retry). The prefix write
      // still rides the real engine, so both backends tear identically.
      const size_t half = n > 1 ? n / 2 : 1;
      base_->SubmitWrite(offset, data, half,
                         [done = std::move(done)](Status /*prefix*/) {
                           if (done) done(Status::IOError(
                               "injected torn write"));
                         });
      return;
    }
  }
  base_->SubmitWrite(offset, data, n, std::move(done));
}

void FaultDevice::SubmitRead(uint64_t offset, void* buf, size_t n,
                             IoCallback done) {
  base_->SubmitRead(offset, buf, n, std::move(done));
}

void FaultDevice::SubmitFsync(IoCallback done) {
  uint64_t stall_us = 0;
  if (FaultPlane::Instance().ShouldFire(faults::kDevSlowFsync, scope_,
                                        &stall_us)) {
    SleepMicros(stall_us);
  }
  base_->SubmitFsync(std::move(done));
}

// --------------------------------------------------------------- DeviceSlice

DeviceSlice::DeviceSlice(Device* base, uint64_t origin)
    : base_(base), origin_(origin) {}

void DeviceSlice::SubmitWrite(uint64_t offset, const void* data, size_t n,
                              IoCallback done) {
  base_->SubmitWrite(
      origin_ + offset, data, n,
      [this, offset, n, done = std::move(done)](Status s) {
        if (s.ok()) {
          MutexLock guard(mu_);
          if (offset + n > size_) size_ = offset + n;
        }
        if (done) done(std::move(s));
      });
}

void DeviceSlice::SubmitRead(uint64_t offset, void* buf, size_t n,
                             IoCallback done) {
  uint64_t view_size;
  {
    MutexLock guard(mu_);
    view_size = size_;
  }
  if (offset + n > view_size) {
    // The base file may extend past this view (other slices' data live
    // there); bound reads by the slice's own watermark so "past end" means
    // past *this log's* end, as WAL replay expects.
    if (done) done(Status::IOError("DeviceSlice: read past end"));
    return;
  }
  base_->SubmitRead(origin_ + offset, buf, n, std::move(done));
}

void DeviceSlice::SubmitFsync(IoCallback done) {
  base_->SubmitFsync(std::move(done));
}

uint64_t DeviceSlice::Size() const {
  MutexLock guard(mu_);
  return size_;
}

void DeviceSlice::Truncate(uint64_t new_size) {
  MutexLock guard(mu_);
  size_ = new_size;
}

// -------------------------------------------------------------------- factory

namespace {

std::unique_ptr<Device> MakeRawDevice(StorageBackend backend,
                                      const std::string& dir,
                                      const std::string& name) {
  switch (backend) {
    case StorageBackend::kNull:
      return std::make_unique<NullDevice>();
    case StorageBackend::kLocal: {
      if (!dir.empty()) {
        std::unique_ptr<FileDevice> dev;
        Status s = FileDevice::Open(dir + "/" + name, /*reset=*/true, &dev);
        DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
        return dev;
      }
      return std::make_unique<MemoryDevice>();
    }
    case StorageBackend::kCloud: {
      // Paper: cloud checkpoints persist in ~50 ms, 2-3x local SSD.
      auto base = MakeRawDevice(StorageBackend::kLocal, dir, name);
      return std::make_unique<LatencyDevice>(std::move(base),
                                             /*flush_latency_us=*/50000,
                                             /*per_mb_us=*/2000);
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Device> MakeDevice(StorageBackend backend,
                                   const std::string& dir,
                                   const std::string& name) {
  auto device = MakeRawDevice(backend, dir, name);
  // Under an enabled FaultPlane every factory-made device is probed, keyed
  // by its name, so chaos schedules reach cluster-internal devices without
  // plumbing through every construction site.
  if (FaultPlane::Instance().enabled() && device != nullptr) {
    const uint64_t scope = HashBytes(name.data(), name.size());
    device = std::make_unique<FaultDevice>(std::move(device), scope);
  }
  return device;
}

}  // namespace dpr
