#include "ckpt/cadence.h"

#include <algorithm>

#include "obs/metrics.h"

namespace dpr {
namespace {

struct CadenceMetrics {
  Counter* decisions;
  Counter* skips;
  Counter* fulls;
  Counter* deltas;
  Gauge* interval_us;
  Gauge* dirty_bytes;
};

const CadenceMetrics& Metrics() {
  static const CadenceMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return CadenceMetrics{r.counter("ckpt.controller.decisions"),
                          r.counter("ckpt.controller.skips"),
                          r.counter("ckpt.controller.fulls"),
                          r.counter("ckpt.controller.deltas"),
                          r.gauge("ckpt.controller.interval_us"),
                          r.gauge("ckpt.controller.dirty_bytes")};
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
// Exception-list occupancy above this shortens the interval (ops are stuck
// uncommitted behind the cut; commit more often).
constexpr int64_t kExceptionPressure = 64;
// storage.sched queue depth above this stretches the interval toward the
// RPO ceiling (the device is congested; do not pile on).
constexpr int64_t kQueuePressure = 16;

}  // namespace

CkptCadenceController::CkptCadenceController(const CkptPolicy& policy,
                                             uint64_t base_interval_us)
    : policy_(policy),
      floor_us_(std::max<uint64_t>(base_interval_us / 4, 1000)),
      ceiling_us_(std::max(base_interval_us, floor_us_)) {}

CkptDecision CkptCadenceController::Decide(const CkptSignals& signals,
                                           uint64_t now_us) {
  Metrics().decisions->Add();
  Metrics().dirty_bytes->Set(static_cast<int64_t>(signals.dirty_bytes));

  const uint64_t elapsed = now_us > last_now_us_ ? now_us - last_now_us_ : 0;
  if (last_now_us_ == 0) watermark_changed_us_ = now_us;
  if (signals.committed_watermark != last_watermark_) {
    last_watermark_ = signals.committed_watermark;
    watermark_changed_us_ = now_us;
  }

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
  if (!policy_.adaptive) {
    // Historical behavior: fixed cadence, every checkpoint a full
    // fold-over (no index image riding in the meta WAL).
    last_was_skip_ = false;
    d.action = CkptAction::kFull;
    d.next_delay_us = ceiling_us_;
    Metrics().fulls->Add();
    Metrics().interval_us->Set(static_cast<int64_t>(d.next_delay_us));
    return d;
  }

  if (signals.dirty_bytes == 0 && issued_any_) {
    // Idle shard: nothing new to persist, so skip the checkpoint (no WAL
    // append, no fsync). DPR-safe: the cut is a per-worker vector, and an
    // idle worker's row already covers every version a peer can depend
    // on, and its watermark moves with the finder's published cut.
    last_was_skip_ = true;
    d.action = CkptAction::kSkip;
    d.next_delay_us = ceiling_us_;
    Metrics().skips->Add();
    Metrics().interval_us->Set(static_cast<int64_t>(d.next_delay_us));
    return d;
  }
  last_was_skip_ = false;

  // Cadence: aim for kTargetDirtyBytes of fresh log per checkpoint, but
  // never stretch past the configured RPO ceiling while data is at risk.
  double interval = static_cast<double>(ceiling_us_);
  if (ewma_rate_ > 0.0) {
    interval = static_cast<double>(kTargetDirtyBytes) / ewma_rate_;
  }
  // Pressure: a deep exception list means ops are parked waiting for
  // their versions to commit, and a stale cut means the commit frontier
  // itself is lagging — both call for tighter cadence.
  if (signals.exception_list_len > kExceptionPressure) {
    interval *= 0.5;
  }
  const uint64_t cut_age =
      now_us > watermark_changed_us_ ? now_us - watermark_changed_us_ : 0;
  if (cut_age > 4 * ceiling_us_) interval *= 0.5;
  // A congested fsync scheduler pushes the other way: adding checkpoints
  // to a saturated device only lengthens every group commit.
  if (signals.storage_queue_depth > kQueuePressure) interval *= 2.0;
  const uint64_t clamped =
      std::clamp(static_cast<uint64_t>(interval), floor_us_, ceiling_us_);

  const bool full = !issued_any_ || since_full_ + 1 >= policy_.full_every;
  issued_any_ = true;
  since_full_ = full ? 0 : since_full_ + 1;
  d.action = full ? CkptAction::kFull : CkptAction::kDelta;
  d.next_delay_us = clamped;
  (full ? Metrics().fulls : Metrics().deltas)->Add();
  Metrics().interval_us->Set(static_cast<int64_t>(d.next_delay_us));
  return d;
}

}  // namespace dpr
