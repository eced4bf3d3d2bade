#ifndef DPR_EPOCH_LIGHT_EPOCH_H_
#define DPR_EPOCH_LIGHT_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/latch.h"

namespace dpr {

/// Epoch protection framework in the style of FASTER's LightEpoch.
///
/// Threads entering the store call Protect() to publish the epoch they are
/// operating in and Unprotect() when leaving (or Refresh() periodically while
/// staying in). BumpEpoch(action) advances the global epoch and registers a
/// drain action that runs once every protected thread has observed an epoch
/// greater than or equal to the bumped one — i.e. once no thread can still be
/// executing code that predates the bump. This is the building block for
/// non-blocking checkpoints and rollbacks: global state transitions become
/// visible lazily, and completion is detected without locks.
class LightEpoch {
 public:
  static constexpr uint32_t kMaxThreads = 128;
  static constexpr uint64_t kUnprotected = 0;
  /// Pending drain actions; BumpEpoch(action) blocks while this many wait.
  static constexpr int kDrainListSize = 256;

  LightEpoch();
  ~LightEpoch();

  LightEpoch(const LightEpoch&) = delete;
  LightEpoch& operator=(const LightEpoch&) = delete;

  /// Acquires a slot for the calling thread (idempotent) and publishes the
  /// current epoch. Returns the epoch observed.
  uint64_t Protect();

  /// Re-publishes the current epoch for the calling thread and runs any drain
  /// actions that have become safe. Must be called from a protected thread.
  uint64_t Refresh();

  /// Clears the calling thread's published epoch.
  void Unprotect();

  /// Returns true if the calling thread currently holds a protected slot.
  bool IsProtected() const;

  /// Atomically increments the current epoch; `action` runs exactly once,
  /// on some thread inside Refresh()/Protect()/Drain, after every protected
  /// thread has moved past the pre-bump epoch. When kDrainListSize actions
  /// are already pending, the call refreshes the caller's own slot (if
  /// protected) and drains until a slot frees up.
  uint64_t BumpEpoch(std::function<void()> action);

  /// Bump without an action.
  uint64_t BumpEpoch();

  /// Current global epoch.
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }

  /// Largest epoch E such that no protected thread is still publishing an
  /// epoch < E. All actions registered at epochs <= safe can run.
  uint64_t ComputeSafeEpoch() const;

  /// Runs ripe drain actions from any thread (e.g. a background timer).
  void TryDrain();

 private:
  struct alignas(64) Entry {
    // release on publish / acquire on scan: a drainer that reads slot epoch
    // e must also observe every access the owning thread made before
    // entering e (the classic epoch-protection contract).
    std::atomic<uint64_t> local_epoch{kUnprotected};
    // CAS-claimed at slot acquisition (uniqueness only — no ordering duty).
    std::atomic<uint64_t> thread_id{0};
  };

  struct DrainItem {
    uint64_t epoch;                // action safe once safe-epoch >= this
    std::function<void()> action;  // empty slot when !action
  };

  void DoDrain(uint64_t safe_epoch);

  Entry table_[kMaxThreads];
  // acquire/release pairs with local_epoch above; drain_count_ is an
  // acquire-read fast path that skips the drain scan when zero.
  std::atomic<uint64_t> current_epoch_;
  std::atomic<int> drain_count_;
  DrainItem drain_list_[kDrainListSize];
  SpinLatch drain_latch_;
};

}  // namespace dpr

#endif  // DPR_EPOCH_LIGHT_EPOCH_H_
