// Tests for the async storage data path: out-of-order completions against
// the FileDevice durable watermark, group-commit fsync coalescing, crash
// simulation honoring only completed fsync groups, io_uring fallback, fault
// probe parity across engines, and DeviceSlice shared-root semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"
#include "storage/async_io.h"
#include "storage/device.h"
#include "storage/fsync_scheduler.h"

namespace dpr {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/dpr_storage_async_" + name;
}

/// A `storage.sched.*` counter; scheduler tests reset the registry first.
uint64_t SchedCount(const std::string& name) {
  return MetricsRegistry::Default().Snapshot().counters["storage.sched." +
                                                        name];
}

/// Engine wrapper that holds every submission until released, then runs the
/// held ops in REVERSE submission order, one at a time — a deterministic
/// out-of-order completion schedule. `set_passthrough(true)` forwards
/// directly (used once reordering is no longer the point of the test).
class ReorderEngine : public IoEngine {
 public:
  explicit ReorderEngine(std::shared_ptr<IoEngine> inner)
      : inner_(std::move(inner)) {}

  void Submit(IoOp op) override {
    {
      MutexLock guard(mu_);
      if (!passthrough_) {
        held_.push_back(std::move(op));
        return;
      }
    }
    inner_->Submit(std::move(op));
  }

  void SubmitBatch(std::vector<IoOp> ops) override {
    for (auto& op : ops) Submit(std::move(op));
  }

  IoEngineKind kind() const override { return inner_->kind(); }

  /// Runs every held op in reverse order, waiting for each completion before
  /// submitting the next, so completions are strictly reversed.
  void ReleaseReversed() {
    std::vector<IoOp> batch;
    {
      MutexLock guard(mu_);
      batch.assign(std::make_move_iterator(held_.rbegin()),
                   std::make_move_iterator(held_.rend()));
      held_.clear();
    }
    for (auto& op : batch) {
      std::atomic<bool> done{false};
      IoCallback original = std::move(op.done);
      op.done = [&done, &original](Status s) {
        if (original) original(std::move(s));
        done.store(true, std::memory_order_release);
      };
      inner_->Submit(std::move(op));
      while (!done.load(std::memory_order_acquire)) SleepMicros(50);
    }
  }

  void set_passthrough(bool on) {
    MutexLock guard(mu_);
    passthrough_ = on;
  }

 private:
  std::shared_ptr<IoEngine> inner_;
  mutable Mutex mu_{LockRank::kStorageEngine, "test.reorder"};
  std::deque<IoOp> held_ GUARDED_BY(mu_);
  bool passthrough_ GUARDED_BY(mu_) = false;
};

/// Device wrapper that holds fsync submissions until the test releases them,
/// making group-commit dispatch rounds fully deterministic.
class GateDevice : public Device {
 public:
  explicit GateDevice(Device* base) : base_(base) {}

  void SubmitWrite(uint64_t offset, const void* data, size_t n,
                   IoCallback done) override {
    base_->SubmitWrite(offset, data, n, std::move(done));
  }
  void SubmitRead(uint64_t offset, void* buf, size_t n,
                  IoCallback done) override {
    base_->SubmitRead(offset, buf, n, std::move(done));
  }
  void SubmitFsync(IoCallback done) override {
    MutexLock guard(mu_);
    held_.push_back(std::move(done));
    ++fsync_submits_;
    cv_.NotifyAll();
  }
  uint64_t Size() const override { return base_->Size(); }
  void SimulateCrash() override { base_->SimulateCrash(); }
  void Truncate(uint64_t new_size) override { base_->Truncate(new_size); }

  void WaitForSubmits(uint64_t n) {
    MutexLock guard(mu_);
    while (fsync_submits_ < n) cv_.Wait(mu_);
  }

  /// Completes the oldest held fsync by running it on the base device.
  void ReleaseOne() {
    IoCallback done;
    {
      MutexLock guard(mu_);
      ASSERT_FALSE(held_.empty());
      done = std::move(held_.front());
      held_.pop_front();
    }
    base_->SubmitFsync(std::move(done));
  }

  uint64_t fsync_submits() const {
    MutexLock guard(mu_);
    return fsync_submits_;
  }

 private:
  Device* base_;
  mutable Mutex mu_{LockRank::kStorage, "test.gate"};
  CondVar cv_ GUARDED_BY(mu_);
  std::deque<IoCallback> held_ GUARDED_BY(mu_);
  uint64_t fsync_submits_ GUARDED_BY(mu_) = 0;
};

TEST(AsyncFileDeviceTest, OutOfOrderCompletionsOnDisjointRanges) {
  const std::string path = TempPath("out_of_order");
  auto reorder = std::make_shared<ReorderEngine>(
      MakeIoEngine({.kind = IoEngineKind::kThreadPool, .threads = 1}));
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev, reorder).ok());

  // Three disjoint writes; the engine completes them in reverse order.
  std::atomic<int> completed{0};
  auto on_done = [&completed](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    completed.fetch_add(1);
  };
  dev->SubmitWrite(0, "AAAA", 4, on_done);
  dev->SubmitWrite(4, "BBBB", 4, on_done);
  dev->SubmitWrite(8, "CCCC", 4, on_done);
  reorder->ReleaseReversed();
  EXPECT_EQ(completed.load(), 3);
  EXPECT_EQ(dev->Size(), 12u);

  reorder->set_passthrough(true);
  ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  char buf[12];
  ASSERT_TRUE(SyncIo::Read(dev.get(), 0, buf, 12).ok());
  EXPECT_EQ(std::string(buf, 12), "AAAABBBBCCCC");
  dev.reset();
  remove(path.c_str());
}

TEST(AsyncFileDeviceTest, CrashHonorsOnlyCompletedFsyncGroups) {
  const std::string path = TempPath("fsync_watermark");
  auto reorder = std::make_shared<ReorderEngine>(
      MakeIoEngine({.kind = IoEngineKind::kThreadPool, .threads = 1}));
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev, reorder).ok());

  // Group 1 completes fully: write then fsync, in order.
  dev->SubmitWrite(0, "AAAA", 4, {});
  reorder->ReleaseReversed();
  dev->SubmitFsync({});
  reorder->ReleaseReversed();

  // Group 2: the fsync is submitted while the write is still in flight, so
  // its watermark must not cover the write — even though (released in
  // reverse) the write's bytes reach the file before the fsync runs.
  std::atomic<bool> write_done{false};
  dev->SubmitWrite(4, "BBBB", 4,
                   [&write_done](Status) { write_done.store(true); });
  dev->SubmitFsync({});
  reorder->ReleaseReversed();  // fsync first, then the write
  EXPECT_TRUE(write_done.load());
  EXPECT_EQ(dev->Size(), 8u);

  // Only group 1 was durable; the crash rolls the uncovered write back.
  reorder->set_passthrough(true);
  dev->SimulateCrash();
  EXPECT_EQ(dev->Size(), 4u);
  char buf[4];
  ASSERT_TRUE(SyncIo::Read(dev.get(), 0, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "AAAA");
  dev.reset();
  remove(path.c_str());
}

TEST(GroupCommitSchedulerTest, CoalescesWaitersIntoOneFsync) {
  MetricsRegistry::Default().ResetForTest();
  MemoryDevice base;
  GateDevice gate(&base);
  GroupCommitScheduler sched;

  ASSERT_TRUE(SyncIo::Write(&gate, 0, "AAAA", 4).ok());

  std::atomic<int> fired{0};
  auto waiter = [&fired](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    fired.fetch_add(1);
  };

  // First waiter: dispatched into fsync #1, which we hold in flight.
  sched.RequestSync(&gate, waiter);
  gate.WaitForSubmits(1);

  // Five more waiters arrive while #1 is in flight: they must all join the
  // NEXT group, not the in-flight one.
  constexpr int kLateWaiters = 5;
  for (int i = 0; i < kLateWaiters; ++i) sched.RequestSync(&gate, waiter);

  gate.ReleaseOne();  // completes #1 -> waiter 1 fires, group 2 dispatches
  gate.WaitForSubmits(2);
  gate.ReleaseOne();  // completes #2 -> all five late waiters fire

  for (int spins = 0; fired.load() < 1 + kLateWaiters && spins < 20000;
       ++spins) {
    SleepMicros(100);
  }
  EXPECT_EQ(fired.load(), 1 + kLateWaiters);
  // Six durability requests were satisfied by exactly two device fsyncs.
  EXPECT_EQ(gate.fsync_submits(), 2u);
  EXPECT_EQ(SchedCount("fsyncs"), 2u);
  EXPECT_GE(SchedCount("coalesced"), static_cast<uint64_t>(kLateWaiters));
}

TEST(GroupCommitSchedulerTest, SyncNowMakesDataDurable) {
  MetricsRegistry::Default().ResetForTest();
  MemoryDevice dev;
  GroupCommitScheduler sched;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "durable", 7).ok());
  ASSERT_TRUE(sched.SyncNow(&dev).ok());
  dev.SimulateCrash();
  char buf[7];
  ASSERT_TRUE(SyncIo::Read(&dev, 0, buf, 7).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
  EXPECT_GE(SchedCount("fsyncs"), 1u);
}

TEST(IoEngineTest, IoUringSetupFailureFallsBackToThreadPool) {
  // A 1M-entry SQ is beyond any kernel's limit, so io_uring_setup fails and
  // the factory must hand back a working thread-pool engine instead.
  auto engine = MakeIoEngine(
      {.kind = IoEngineKind::kIoUring, .queue_depth = 1u << 20});
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->kind(), IoEngineKind::kThreadPool);

  const std::string path = TempPath("fallback");
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev, engine).ok());
  ASSERT_TRUE(SyncIo::Write(dev.get(), 0, "still works", 11).ok());
  ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  char buf[11];
  ASSERT_TRUE(SyncIo::Read(dev.get(), 0, buf, 11).ok());
  EXPECT_EQ(std::string(buf, 11), "still works");
  dev.reset();
  remove(path.c_str());
}

TEST(IoEngineTest, ExplicitIoUringRunsWhenSupported) {
  if (!IoUringSupported()) {
    GTEST_SKIP() << "io_uring unavailable in this kernel/container";
  }
  auto engine = MakeIoEngine(
      {.kind = IoEngineKind::kIoUring, .queue_depth = 64});
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->kind(), IoEngineKind::kIoUring);

  const std::string path = TempPath("uring_roundtrip");
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev, engine).ok());
  const std::string payload(64 * 1024, 'x');  // large enough to split/batch
  ASSERT_TRUE(SyncIo::Write(dev.get(), 0, payload.data(), payload.size()).ok());
  ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  std::string back(payload.size(), '\0');
  ASSERT_TRUE(SyncIo::Read(dev.get(), 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  dev.reset();
  remove(path.c_str());
}

/// One probe sequence against a FaultDevice over `engine_kind`, recording
/// every observable outcome as a string; the parity test asserts the trace
/// is byte-identical under both engines.
std::vector<std::string> RunProbeSequence(IoEngineKind engine_kind,
                                          const std::string& tag) {
  constexpr uint64_t kScope = 7;
  std::vector<std::string> trace;
  const std::string path = TempPath("parity_" + tag);
  auto engine = MakeIoEngine({.kind = engine_kind, .queue_depth = 64});
  std::unique_ptr<FileDevice> file;
  EXPECT_TRUE(FileDevice::Open(path, /*reset=*/true, &file, engine).ok());
  FaultDevice dev(std::move(file), kScope);
  FaultPlane& fp = FaultPlane::Instance();

  // device.write_fail: the first write errors, the second goes through.
  fp.Arm({.point = faults::kDevWriteFail, .scope = kScope, .max_fires = 1});
  trace.push_back("write_fail#1: " + SyncIo::Write(&dev, 0, "AAAA", 4).ToString());
  trace.push_back("write_fail#2: " + SyncIo::Write(&dev, 0, "AAAA", 4).ToString());
  fp.Disarm(faults::kDevWriteFail);

  // device.torn_write: half the range lands, the caller sees an error.
  fp.Arm({.point = faults::kDevTornWrite, .scope = kScope, .max_fires = 1});
  trace.push_back("torn#1: " + SyncIo::Write(&dev, 4, "BBBBBBBB", 8).ToString());
  trace.push_back("size after tear: " + std::to_string(dev.Size()));
  trace.push_back("torn#2: " + SyncIo::Write(&dev, 4, "BBBBBBBB", 8).ToString());
  trace.push_back("size after retry: " + std::to_string(dev.Size()));
  fp.Disarm(faults::kDevTornWrite);

  // device.slow_fsync: the stall is observable on the submitting side.
  constexpr uint64_t kStallUs = 20000;
  fp.Arm({.point = faults::kDevSlowFsync,
          .scope = kScope,
          .max_fires = 1,
          .param = kStallUs});
  const uint64_t t0 = NowMicros();
  trace.push_back("slow_fsync: " + SyncIo::Fsync(&dev).ToString());
  trace.push_back(std::string("stalled: ") +
                  (NowMicros() - t0 >= kStallUs / 2 ? "yes" : "no"));
  fp.Disarm(faults::kDevSlowFsync);

  remove(path.c_str());
  return trace;
}

TEST(FaultParityTest, ProbesFireIdenticallyUnderBothEngines) {
  ScopedFaultPlane plane(/*seed=*/42);
  const std::vector<std::string> pool =
      RunProbeSequence(IoEngineKind::kThreadPool, "pool");
  const std::vector<std::string> uring =
      RunProbeSequence(IoEngineKind::kIoUring, "uring");

  // Pin the absolute behavior once...
  ASSERT_EQ(pool.size(), 8u);
  EXPECT_EQ(pool[0], "write_fail#1: IOError: injected write failure");
  EXPECT_EQ(pool[1], "write_fail#2: OK");
  EXPECT_EQ(pool[2], "torn#1: IOError: injected torn write");
  EXPECT_EQ(pool[3], "size after tear: 8");   // 4 + half of the torn 8
  EXPECT_EQ(pool[4], "torn#2: OK");
  EXPECT_EQ(pool[5], "size after retry: 12");
  EXPECT_EQ(pool[7], "stalled: yes");
  // ...then require the io_uring path (or its fallback, when the kernel
  // lacks io_uring) to behave byte-identically.
  EXPECT_EQ(pool, uring);
}

TEST(DeviceSliceTest, SlicesShareSyncRootAndBoundReads) {
  const std::string path = TempPath("slices");
  std::unique_ptr<FileDevice> base;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &base).ok());
  DeviceSlice a(base.get(), /*origin=*/0);
  DeviceSlice b(base.get(), /*origin=*/4096);

  ASSERT_TRUE(SyncIo::Write(&a, 0, "aaaa", 4).ok());
  ASSERT_TRUE(SyncIo::Write(&b, 0, "bbbb", 4).ok());
  EXPECT_EQ(a.Size(), 4u);
  EXPECT_EQ(b.Size(), 4u);
  EXPECT_EQ(a.SyncRoot(), base.get());
  EXPECT_EQ(a.SyncRoot(), b.SyncRoot());

  // Reads are bounded by the view's own watermark, not the base's.
  char buf[8];
  EXPECT_FALSE(SyncIo::Read(&a, 0, buf, 8).ok());
  ASSERT_TRUE(SyncIo::Read(&a, 0, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "aaaa");

  // The slice's bytes live at base origin + offset.
  ASSERT_TRUE(SyncIo::Fsync(base.get()).ok());
  ASSERT_TRUE(SyncIo::Read(base.get(), 4096, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "bbbb");

  // One SyncNow on either slice syncs the shared root.
  MetricsRegistry::Default().ResetForTest();
  GroupCommitScheduler sched;
  ASSERT_TRUE(sched.SyncNow(&a).ok());
  EXPECT_EQ(SchedCount("fsyncs"), 1u);

  // Truncate resets only the view's watermark.
  b.Truncate(0);
  EXPECT_EQ(b.Size(), 0u);
  EXPECT_EQ(a.Size(), 4u);
  base.reset();
  remove(path.c_str());
}

}  // namespace
}  // namespace dpr
