#ifndef DPR_CLUSTER_MIGRATION_H_
#define DPR_CLUSTER_MIGRATION_H_

#include <atomic>
#include <functional>
#include <memory>

#include "common/status.h"
#include "dfaster/migration_channel.h"
#include "dfaster/worker.h"
#include "dpr/types.h"
#include "metadata/metadata_store.h"

namespace dpr {

struct MigrationOptions {
  /// Virtual partition being moved.
  uint32_t partition = 0;
  /// Current owner; must be in-process (the driver calls its seal/drain API
  /// directly). Remote sources would need a thin RPC wrapper — not needed
  /// yet, the harness drives migrations from the process hosting the source.
  DFasterWorker* source = nullptr;
  /// Migration target; in-process like the source (the driver reads its
  /// world-line and performs its adopt step).
  DFasterWorker* target = nullptr;
  /// Install path from source to target.
  std::shared_ptr<MigrationChannel> channel;
  /// Durable membership/ownership/migration rows.
  MetadataStore* metadata = nullptr;
  /// Returns the latest committed DPR cut. Unset => non-DPR deployment; the
  /// commit barrier is skipped (eventual/none modes have no recoverability
  /// guarantee to preserve).
  std::function<Status(DprCut*)> get_cut;
  /// Advances the commit machinery one step (e.g. TryCommit on both sides,
  /// then a finder ComputeCut, which publishes the cut to the workers). Called
  /// between barrier polls; required when `get_cut` is set.
  std::function<void()> pump;
};

/// Drives one live shard migration through its phases (DESIGN.md §4i):
///
///   1. record   — durable MigrationRow, so a crashed driver is visible;
///   2. seal     — source opens the dual-ownership window (checkpoint
///                 boundary, then every new write double-applies: locally
///                 and forwarded through the channel);
///   3. drain    — bulk-install the pre-existing records in chunks;
///   4. barrier  — pump DPR until the cut covers the largest version any
///                 install executed in at the target, so the migrated data
///                 is inside the guarantee before anyone depends on the
///                 target owning it;
///   5. fence    — verify neither side shifted world-lines since the seal
///                 and no forward failed (else the target copy is garbage);
///   6. flip     — metadata SetOwner, target adopts, source unseals with
///                 disown (under the seal lock: no straggler op can apply
///                 locally-but-unforwarded after the target took over);
///   7. release  — clear the MigrationRow.
///
/// Any failure before the flip aborts: the source unseals without disowning
/// and keeps serving; the target simply holds duplicate records it does not
/// own (they are unreachable: clients route by the ownership map).
///
/// Cut monotonicity argument: installs run under DPR admission with the
/// source's {version, deps} header, so the target fast-forwards and records
/// a dependency — the cut cannot cover the target's adopted state without
/// covering the source history it came from. A recovery between seal and
/// flip rolls both sides back together (same world-line shift) and the
/// fence aborts the migration; hence no cut entry ever regresses because of
/// a migration (checked end-to-end by the chaos harness's P5 checker).
class MigrationDriver {
 public:
  explicit MigrationDriver(MigrationOptions options);

  /// Executes the full phase sequence. Not reusable; one driver per attempt.
  Status Run();

  /// Requests an abort at the next phase boundary; safe from any thread
  /// (e.g. a ClusterManager recovery listener). A migration already past
  /// the fence completes normally.
  void RequestAbort() { abort_requested_.store(true, std::memory_order_relaxed); }

 private:
  Status RunSealed(WorldLine source_wl0, WorldLine target_wl0);
  Status CommitBarrier(Version max_installed);
  bool AbortRequested() const {
    return abort_requested_.load(std::memory_order_relaxed);
  }

  MigrationOptions options_;
  // relaxed: a lone abort flag polled at phase boundaries; no other data is
  // published through it (the phases fence their own state).
  std::atomic<bool> abort_requested_{false};
};

}  // namespace dpr

#endif  // DPR_CLUSTER_MIGRATION_H_
