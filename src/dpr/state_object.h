#ifndef DPR_DPR_STATE_OBJECT_H_
#define DPR_DPR_STATE_OBJECT_H_

#include <functional>

#include "common/status.h"
#include "dpr/types.h"

namespace dpr {

/// The paper's abstract shard (§3): any cache-store that supports versioned
/// group commit and restore. Op() is not part of this interface — operations
/// are store-specific and executed by the surrounding worker while it holds
/// the version latch; this interface only exposes the commit/restore hooks
/// libDPR needs.
///
/// Version semantics: the store executes operations in its current version v.
/// PerformCheckpoint(target) atomically advances the version to `target`
/// (> v) and captures the effects of all operations executed in versions
/// <= v; the resulting durable token is v. Checkpoints are asynchronous:
/// the call returns once the version boundary is drawn, and `on_persistent`
/// fires (possibly on another thread) when the image is durable.
///
/// Restore semantics: RestoreCheckpoint(version) restores store state to the
/// largest durable token <= `version` (cut entries from the approximate
/// algorithm need not be exact local tokens; rounding down is safe because
/// any version that executed operations becomes a token before the worker's
/// row can advance past it — see DESIGN.md). The store's current version then
/// resumes strictly above any pre-rollback version.
/// Advice the checkpoint tick loop attaches to a checkpoint request. A store
/// without index images ignores it; correctness never depends on it.
struct CheckpointHints {
  /// Persist a hash-index image with the checkpoint meta record so a
  /// restore can skip the full log scan. The store picks a full image or a
  /// delta over its newest durable image (FasterStore: WAL record types
  /// kMetaFullIndex / kMetaDelta). Barrier checkpoints (version
  /// fast-forwards, migration seals) leave it unset.
  bool index_image = false;
};

class StateObject {
 public:
  virtual ~StateObject() = default;

  using PersistCallback = std::function<void(Version token)>;

  /// Begins a checkpoint; returns the token (the pre-advance version) via
  /// `out_token`. Returns Busy if a checkpoint/rollback is in flight.
  /// `CheckpointHints{}` asks for an image-less checkpoint.
  virtual Status PerformCheckpoint(Version target_version,
                                   PersistCallback on_persistent,
                                   Version* out_token,
                                   const CheckpointHints& hints) = 0;

  /// Rolls back to the largest durable token <= `version` and resumes
  /// execution in a fresh version above everything pre-rollback. Fills
  /// `restored_token` with the token actually restored.
  virtual Status RestoreCheckpoint(Version version,
                                   Version* restored_token) = 0;

  /// The version new operations currently execute in.
  virtual Version CurrentVersion() const = 0;

  /// Simulates a process crash: volatile state is dropped; only durable
  /// checkpoints survive. Used by failure-injection tests and benches.
  virtual void SimulateCrash() = 0;
};

}  // namespace dpr

#endif  // DPR_DPR_STATE_OBJECT_H_
