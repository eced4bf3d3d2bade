#ifndef DPR_CKPT_CADENCE_H_
#define DPR_CKPT_CADENCE_H_

#include <cstdint>

namespace dpr {

/// Recovery-point-objective policy for one shard's checkpoint cadence.
///
/// The configured `checkpoint_interval_us` (DprWorkerOptions) remains the
/// RPO ceiling: whenever the shard holds un-checkpointed data, the adaptive
/// controller never waits longer than that interval, so every existing
/// latency expectation still holds. Adaptivity works in the other two
/// directions — hot shards checkpoint *more* often (targeting about 1 MiB
/// of fresh log per checkpoint, down to a quarter of the interval), and
/// idle shards skip the checkpoint entirely (no WAL append, no fsync) and
/// keep ticking only to notice when they turn dirty again (their watermark
/// moves with the finder's published cut, not with the tick).
struct CkptPolicy {
  /// false: byte-compatible with the historical behavior — one full
  /// fold-over checkpoint every `checkpoint_interval_us`, never skipped.
  bool adaptive = true;
  /// Every Nth persisted checkpoint carries a full hash-index image (a
  /// chain base); the rest are deltas. 0 and 1 both mean all full.
  uint32_t full_every = 16;

  /// Legacy shape: fixed cadence, full fold-overs, no skips.
  static CkptPolicy FixedInterval() {
    CkptPolicy p;
    p.adaptive = false;
    return p;
  }
};

/// Live signals sampled by the shard owner right before each decision.
/// All fields are best-effort snapshots; the controller only ever uses
/// them to pick a cadence, never for correctness.
struct CkptSignals {
  /// Log bytes appended but not yet covered by a stamped checkpoint
  /// (tail - read_only boundary). 0 means the shard is idle.
  uint64_t dirty_bytes = 0;
  /// The worker's persisted DPR watermark; staleness while dirty data
  /// exists means the cut is lagging and the cadence should tighten.
  uint64_t committed_watermark = 0;
  /// dpr.session.exception_list gauge (ops excluded from the commit
  /// prefix, waiting for their versions to commit).
  int64_t exception_list_len = 0;
  /// storage.sched.pending gauge (fsync scheduler backlog on this box).
  int64_t storage_queue_depth = 0;
};

enum class CkptAction {
  kSkip,   // no checkpoint this tick (idle shard; no I/O)
  kDelta,  // checkpoint with a delta hash-index image
  kFull,   // checkpoint with a full hash-index image (chain base)
};

struct CkptDecision {
  CkptAction action = CkptAction::kFull;
  /// Delay until the next Decide() call.
  uint64_t next_delay_us = 0;
};

/// Per-shard checkpoint cadence controller (ROADMAP "adaptive incremental
/// checkpointing"; scheduling shape follows ACIiL's interval-driven
/// checkpointing). Owns an ingest-rate EWMA and the full/delta rotation.
///
/// Not thread-safe: one controller per checkpoint timer thread.
class CkptCadenceController {
 public:
  /// `base_interval_us` is the worker's checkpoint interval: the cadence
  /// ceiling while dirty data exists (the RPO). The floor for hot shards is
  /// a quarter of it, at least 1 ms.
  CkptCadenceController(const CkptPolicy& policy, uint64_t base_interval_us);

  /// Decides what the tick at `now_us` should do. Call exactly once per
  /// timer tick; the controller assumes a non-skip decision is acted on.
  CkptDecision Decide(const CkptSignals& signals, uint64_t now_us);

  const CkptPolicy& policy() const { return policy_; }

 private:
  const CkptPolicy policy_;
  // Cadence floor for hot shards and ceiling while dirty data exists.
  const uint64_t floor_us_;
  const uint64_t ceiling_us_;
  uint64_t last_now_us_ = 0;
  uint64_t last_dirty_bytes_ = 0;
  bool last_was_skip_ = true;
  // Bytes-per-microsecond ingest estimate, exponentially smoothed.
  double ewma_rate_ = 0.0;
  uint64_t last_watermark_ = 0;
  uint64_t watermark_changed_us_ = 0;
  // Persisted checkpoints issued since the last full; the first
  // checkpoint a controller issues is always full.
  uint32_t since_full_ = 0;
  bool issued_any_ = false;
};

}  // namespace dpr

#endif  // DPR_CKPT_CADENCE_H_
