#ifndef DPR_CKPT_CADENCE_H_
#define DPR_CKPT_CADENCE_H_

#include <cstdint>
#include <functional>
#include <thread>

#include "common/status.h"
#include "common/sync.h"

namespace dpr {

/// Live signal sampled by the shard owner right before each decision. A
/// best-effort snapshot: the controller only uses it to pick a cadence,
/// never for correctness.
struct CkptSignals {
  /// Log bytes appended but not yet covered by a stamped checkpoint
  /// (tail - read_only boundary). 0 means the shard is idle.
  uint64_t dirty_bytes = 0;
};

enum class CkptAction {
  kSkip,        // no checkpoint this tick (idle shard; no I/O)
  kCheckpoint,  // checkpoint now; the store picks full or delta image
};

struct CkptDecision {
  CkptAction action = CkptAction::kCheckpoint;
  /// Delay until the next Decide() call.
  uint64_t next_delay_us = 0;
};

/// Per-shard checkpoint cadence controller: decides only *when* to
/// checkpoint. The configured interval is the RPO ceiling: while the shard
/// holds un-checkpointed data it never waits longer. Hot shards checkpoint
/// more often (about 1 MiB of fresh log per checkpoint, down to a quarter of
/// the interval), and idle shards skip the checkpoint entirely (no WAL
/// append, no fsync) and keep ticking only to notice when they turn dirty
/// again. Only a kEventual shard ever reads idle: a kDpr shard's signal
/// never does (DFasterWorker::CollectCkptSignals), because the approximate
/// cut is the minimum persisted version over all workers. Whether a
/// checkpoint persists a full or a delta index image is the store's choice
/// (FasterStore::FlushLoop).
///
/// Not thread-safe: one controller per CkptLoop.
class CkptCadenceController {
 public:
  /// `base_interval_us` is the worker's checkpoint interval: the cadence
  /// ceiling while dirty data exists (the RPO). The floor for hot shards is
  /// a quarter of it, at least 1 ms.
  explicit CkptCadenceController(uint64_t base_interval_us);

  /// Decides what the tick at `now_us` should do. Call exactly once per
  /// timer tick; the controller assumes a non-skip decision is acted on.
  CkptDecision Decide(const CkptSignals& signals, uint64_t now_us);

  /// The shortest delay Decide() returns for a dirty shard.
  uint64_t floor_us() const { return floor_us_; }

 private:
  // Cadence floor for hot shards and ceiling while dirty data exists.
  const uint64_t floor_us_;
  const uint64_t ceiling_us_;
  uint64_t last_now_us_ = 0;
  uint64_t last_dirty_bytes_ = 0;
  bool last_was_skip_ = true;
  // Bytes-per-microsecond ingest estimate, exponentially smoothed.
  double ewma_rate_ = 0.0;
  // The first decision always checkpoints, even on an idle shard.
  bool issued_any_ = false;
};

/// The one checkpoint tick loop, shared by every mode that checkpoints
/// periodically (kDpr workers, D-Redis proxies, kEventual shards): a thread
/// that sleeps whatever the controller returns, samples `signals`, and runs
/// `checkpoint` unless the controller skips. Stop() wakes the sleep, so
/// shutdown does not wait out an interval.
///
/// Kick() ends the sleep early, for the moments when the whole cluster
/// waits on this shard's next checkpoint (the first batch after a
/// recovery). A kicked tick still asks the controller, so an idle shard
/// still skips, and the wait after it is at most the controller's floor: a
/// batch that lands just after the kicked checkpoint waits one floor, not
/// one interval. A checkpoint that answers Busy (the previous one is still
/// flushing) is retried every millisecond for up to the decision's delay,
/// without a fresh decision, so a flush slower than the cadence costs the
/// flush, not another interval.
class CkptLoop {
 public:
  /// `interval_us` 0 disables the loop (Start() starts no thread). An unset
  /// `signals` reads as always dirty: no idle skips, cadence at the RPO
  /// ceiling. A `checkpoint` error other than a retryable one is logged.
  CkptLoop(uint64_t interval_us, std::function<CkptSignals()> signals,
           std::function<Status()> checkpoint);
  ~CkptLoop();

  CkptLoop(const CkptLoop&) = delete;
  CkptLoop& operator=(const CkptLoop&) = delete;

  void Start();
  /// Idempotent; returns once the thread has exited.
  void Stop();
  /// Ends the current sleep now (see the class comment). Cheap and safe
  /// from any thread; a kick while the loop is not sleeping makes the next
  /// sleep end at once.
  void Kick();

 private:
  void Run();

  const uint64_t interval_us_;
  const std::function<CkptSignals()> signals_;
  const std::function<Status()> checkpoint_;
  std::thread thread_;
  Mutex mu_{LockRank::kCkptLoop, "ckpt.loop"};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool kicked_ GUARDED_BY(mu_) = false;
};

}  // namespace dpr

#endif  // DPR_CKPT_CADENCE_H_
