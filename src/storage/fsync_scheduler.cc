#include "storage/fsync_scheduler.h"

#include <utility>

#include "common/clock.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

struct SchedMetrics {
  Counter* requests;
  Counter* fsyncs;
  Counter* coalesced;
  Counter* failures;
  Gauge* pending;
  ShardedHistogram* wait_us;

  static SchedMetrics& Get() {
    static SchedMetrics m = [] {
      auto& reg = MetricsRegistry::Default();
      SchedMetrics v;
      v.requests = reg.counter("storage.sched.requests");
      v.fsyncs = reg.counter("storage.sched.fsyncs");
      v.coalesced = reg.counter("storage.sched.coalesced");
      v.failures = reg.counter("storage.sched.failures");
      v.pending = reg.gauge("storage.sched.pending");
      v.wait_us = reg.histogram("storage.sched.wait_us");
      return v;
    }();
    return m;
  }
};

}  // namespace

GroupCommitScheduler::GroupCommitScheduler() {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

GroupCommitScheduler::~GroupCommitScheduler() {
  {
    MutexLock lock(mu_);
    // Drain: the dispatcher keeps issuing fsyncs until every registered
    // waiter has been answered, so destruction never strands a durability
    // callback.
    auto busy = [this]() REQUIRES(mu_) {
      if (inflight_fsyncs_ > 0 || !ready_.empty()) return true;
      for (const auto& kv : devices_) {
        if (kv.second.fsync_in_flight || !kv.second.pending.empty()) {
          return true;
        }
      }
      return false;
    };
    while (busy()) cv_.Wait(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  dispatcher_.join();
}

void GroupCommitScheduler::RequestSync(Device* dev, IoCallback done) {
  Device* root = dev->SyncRoot();
  auto& m = SchedMetrics::Get();
  m.requests->Add(1);
  m.pending->Add(1);
  MutexLock lock(mu_);
  DeviceState& st = devices_[root];
  if (!st.pending.empty() || st.fsync_in_flight) m.coalesced->Add(1);
  if (st.pending.empty()) st.oldest_request_us = NowMicros();
  st.pending.push_back(std::move(done));
  if (!st.queued && !st.fsync_in_flight) {
    st.queued = true;
    ready_.push_back(root);
    cv_.NotifyAll();
  }
}

Status GroupCommitScheduler::SyncNow(Device* dev) {
  struct Waiter {
    Mutex mu{LockRank::kStorageIoWait, "sched.sync_now"};
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
  } waiter;
  RequestSync(dev, [&waiter](Status s) {
    MutexLock lock(waiter.mu);
    waiter.status = std::move(s);
    waiter.done = true;
    waiter.cv.NotifyAll();
  });
  MutexLock lock(waiter.mu);
  while (!waiter.done) waiter.cv.Wait(waiter.mu);
  return waiter.status;
}

void GroupCommitScheduler::DispatchLoop() {
  for (;;) {
    Device* root = nullptr;
    std::vector<IoCallback> batch;
    {
      MutexLock lock(mu_);
      while (ready_.empty() && !stop_) cv_.Wait(mu_);
      if (ready_.empty() && stop_) return;
      root = ready_.front();
      ready_.pop_front();
      DeviceState& st = devices_[root];
      st.queued = false;
      if (st.fsync_in_flight || st.pending.empty()) continue;
      // Snapshot the group: waiters arriving from here on belong to the
      // next fsync (this one cannot vouch for their writes).
      batch = std::move(st.pending);
      st.pending.clear();
      st.fsync_in_flight = true;
      ++inflight_fsyncs_;
      SchedMetrics::Get().wait_us->Record(NowMicros() -
                                          st.oldest_request_us);
    }
    SchedMetrics::Get().fsyncs->Add(1);
    // Submit outside the scheduler lock: a stalled device (slow-fsync
    // fault, cloud latency model) must not block dispatch for other
    // devices... though it does occupy the dispatcher for the duration of
    // a *synchronous* submit-side stall, which models a busy device queue.
    root->SubmitFsync([this, root, batch = std::move(batch)](Status s) mutable {
      OnFsyncDone(root, std::move(batch), std::move(s));
    });
  }
}

void GroupCommitScheduler::OnFsyncDone(Device* root,
                                       std::vector<IoCallback> batch,
                                       Status s) {
  auto& m = SchedMetrics::Get();
  if (!s.ok()) m.failures->Add(1);
  m.pending->Sub(static_cast<int64_t>(batch.size()));
  // Fan out with no locks held; waiters may re-enter RequestSync.
  for (auto& cb : batch) {
    if (cb) cb(s);
  }
  MutexLock lock(mu_);
  DeviceState& st = devices_[root];
  st.fsync_in_flight = false;
  --inflight_fsyncs_;
  if (!st.pending.empty() && !st.queued) {
    st.queued = true;
    ready_.push_back(root);
  }
  cv_.NotifyAll();
}

}  // namespace dpr
