#include "ckpt/cadence.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

struct CadenceMetrics {
  Counter* decisions;
  Counter* skips;
  Gauge* interval_us;
  Gauge* dirty_bytes;
  Counter* kicks;
};

const CadenceMetrics& Metrics() {
  static const CadenceMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return CadenceMetrics{r.counter("ckpt.controller.decisions"),
                          r.counter("ckpt.controller.skips"),
                          r.gauge("ckpt.controller.interval_us"),
                          r.gauge("ckpt.controller.dirty_bytes"),
                          r.counter("ckpt.loop.kicks")};
  }();
  return m;
}

// EWMA smoothing factor for the ingest-rate estimate. High enough to track
// workload shifts within a few ticks, low enough that one bursty tick does
// not whipsaw the cadence.
constexpr double kRateAlpha = 0.3;

// The controller aims for roughly this many newly dirtied log bytes per
// checkpoint: interval ~= kTargetDirtyBytes / ingest_rate.
constexpr uint64_t kTargetDirtyBytes = 1 << 20;

// How often CkptLoop retries a checkpoint that answered Busy.
constexpr uint64_t kBusyRetryUs = 1000;

}  // namespace

CkptCadenceController::CkptCadenceController(uint64_t base_interval_us)
    : floor_us_(std::max<uint64_t>(base_interval_us / 4, 1000)),
      ceiling_us_(std::max(base_interval_us, floor_us_)) {}

CkptDecision CkptCadenceController::Decide(const CkptSignals& signals,
                                           uint64_t now_us) {
  Metrics().decisions->Add();
  Metrics().dirty_bytes->Set(static_cast<int64_t>(signals.dirty_bytes));

  const uint64_t elapsed = now_us > last_now_us_ ? now_us - last_now_us_ : 0;
  // Ingest estimate: bytes appended during the last window. When the last
  // tick checkpointed, the dirty counter was reset to ~0, so the current
  // reading IS the window's ingest; when it skipped, only the growth is.
  uint64_t appended = signals.dirty_bytes;
  if (last_was_skip_ && signals.dirty_bytes >= last_dirty_bytes_) {
    appended = signals.dirty_bytes - last_dirty_bytes_;
  }
  if (elapsed > 0) {
    const double rate = static_cast<double>(appended) / elapsed;
    ewma_rate_ = ewma_rate_ == 0.0
                     ? rate
                     : kRateAlpha * rate + (1.0 - kRateAlpha) * ewma_rate_;
  }
  last_now_us_ = now_us;
  last_dirty_bytes_ = signals.dirty_bytes;

  CkptDecision d;
  if (signals.dirty_bytes == 0 && issued_any_) {
    // Idle shard: nothing new to persist, so skip the checkpoint (no WAL
    // append, no fsync). Only kEventual shards read idle: a kDpr worker's
    // signal never does (DFasterWorker::CollectCkptSignals), and a D-Redis
    // proxy's is unset, which reads as always dirty.
    last_was_skip_ = true;
    d.action = CkptAction::kSkip;
    d.next_delay_us = ceiling_us_;
    Metrics().skips->Add();
  } else {
    // Cadence: aim for kTargetDirtyBytes of fresh log per checkpoint, but
    // never stretch past the configured RPO ceiling while data is at risk.
    last_was_skip_ = false;
    issued_any_ = true;
    double interval = static_cast<double>(ceiling_us_);
    if (ewma_rate_ > 0.0) {
      interval = static_cast<double>(kTargetDirtyBytes) / ewma_rate_;
    }
    d.action = CkptAction::kCheckpoint;
    d.next_delay_us = std::clamp(static_cast<uint64_t>(interval), floor_us_,
                                 ceiling_us_);
  }
  Metrics().interval_us->Set(static_cast<int64_t>(d.next_delay_us));
  return d;
}

CkptLoop::CkptLoop(uint64_t interval_us, std::function<CkptSignals()> signals,
                   std::function<Status()> checkpoint)
    : interval_us_(interval_us),
      signals_(std::move(signals)),
      checkpoint_(std::move(checkpoint)) {}

CkptLoop::~CkptLoop() { Stop(); }

void CkptLoop::Start() {
  if (interval_us_ == 0 || thread_.joinable()) return;
  {
    MutexLock guard(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { Run(); });
}

void CkptLoop::Stop() {
  {
    MutexLock guard(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

void CkptLoop::Kick() {
  Metrics().kicks->Add();
  {
    MutexLock guard(mu_);
    kicked_ = true;
  }
  cv_.NotifyAll();
}

void CkptLoop::Run() {
  // The configured interval only seeds the first wait and bounds the
  // controller's cadence; every later wait is the controller's decision.
  CkptCadenceController controller(interval_us_);
  uint64_t delay_us = interval_us_;
  CkptDecision decision;
  // Sleep left in which a Busy checkpoint is retried before a fresh
  // decision; 0 when no checkpoint awaits a retry.
  uint64_t retry_left_us = 0;
  while (true) {
    bool kicked = false;
    {
      MutexLock lock(mu_);
      cv_.WaitFor(mu_, std::chrono::microseconds(delay_us),
                  [this]() REQUIRES(mu_) { return stop_ || kicked_; });
      if (stop_) return;
      kicked = std::exchange(kicked_, false);
    }
    if (retry_left_us == 0 || kicked) {
      const CkptSignals signals =
          signals_ ? signals_() : CkptSignals{.dirty_bytes = 1};
      decision = controller.Decide(signals, NowMicros());
      if (kicked) {
        decision.next_delay_us =
            std::min(decision.next_delay_us, controller.floor_us());
      }
      delay_us = decision.next_delay_us;
      retry_left_us = 0;
      if (decision.action == CkptAction::kSkip) continue;
      retry_left_us = decision.next_delay_us;
    }
    // The checkpoint runs outside mu_ so Stop() never waits on one.
    const Status s = checkpoint_();
    if (s.IsBusy()) {
      // The previous checkpoint is still flushing: retry this decision as
      // soon as it completes rather than a whole delay later. Once the
      // delay is used up, the next tick decides afresh.
      delay_us = std::min(kBusyRetryUs, retry_left_us);
      retry_left_us -= delay_us;
      continue;
    }
    retry_left_us = 0;
    delay_us = decision.next_delay_us;
    if (!s.ok() && !s.IsRetryable()) {
      DPR_WARN("checkpoint tick: %s", s.ToString().c_str());
    }
  }
}

}  // namespace dpr
