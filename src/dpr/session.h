#ifndef DPR_DPR_SESSION_H_
#define DPR_DPR_SESSION_H_

#include <cstdint>
#include <string>
#include <deque>
#include <vector>

#include "common/sync.h"
#include "dpr/header.h"
#include "dpr/types.h"

namespace dpr {

/// Client-side session policies, swept by chaos schedules.
struct SessionOptions {
  /// The largest number of unresolved operations the committed prefix may
  /// skip over. Once the scan has skipped this many, the prefix stops
  /// advancing until they resolve — bounding the exception list the
  /// application must reconcile after a failure. The default is unbounded
  /// relaxed DPR, the FASTER default; 0 is strict CPR/DPR ordering (§5.4):
  /// the commit point never passes over an unresolved PENDING operation, so
  /// recovered prefixes have no exception list (at the cost of blocking
  /// commits on stragglers).
  uint64_t exception_list_cap = ~0ull;

  /// What to do with a response carrying an OLDER world-line than the
  /// session's (a pre-recovery straggler arriving after HandleFailure).
  enum class WorldLinePolicy : uint8_t {
    /// Record the operation vacuously: the rollback already erased any
    /// effect it had, so it must contribute neither dependencies nor
    /// cut/version-clock advances. This prevents pre-/post-recovery
    /// mixing (§4.2, Fig. 5).
    kReject,
    /// Absorb it as if current — the pre-world-line-check legacy behavior,
    /// kept only so tests can demonstrate the mixing anomaly.
    kTrusting,
  };
  WorldLinePolicy world_line_policy = WorldLinePolicy::kReject;
};

/// Client-side libDPR: tracks one session's SessionOrder, version clock,
/// dependency set, observed commit cut, and world-line (paper §3, §5.4,
/// §6).
///
/// The observed cut is one DprCut merged by max from every response that
/// carries entries, whichever worker sent it: any worker's response can
/// resolve a dependency on any other worker, including one no longer in
/// the cluster.
///
/// Operations are numbered by *start* order (relaxed DPR). A batch either
/// completes synchronously (RecordBatch) or is issued as PENDING
/// (IssuePending) and resolved later (ResolvePending); unresolved operations
/// below the committed prefix are surfaced in the exception list, exactly as
/// relaxed CPR/DPR prescribes.
///
/// Thread-safety: all methods are internally synchronized so a background
/// completion thread may resolve pendings while the session issues new ops.
class DprSession {
 public:
  explicit DprSession(uint64_t session_id, SessionOptions options = {});

  uint64_t session_id() const { return session_id_; }
  const SessionOptions& options() const { return options_; }

  /// Header to attach to the next outgoing batch.
  DprRequestHeader MakeHeader() const;

  /// Records `n` operations that completed synchronously at `worker`;
  /// returns the first seqno. Absorbs the response's cut.
  uint64_t RecordBatch(WorkerId worker, uint64_t n,
                       const DprResponseHeader& resp);

  /// Assigns seqnos to `n` operations issued (start-time order) whose
  /// results are not yet known. Later ops do not depend on them until
  /// ResolvePending.
  uint64_t IssuePending(WorkerId worker, uint64_t n);

  /// Resolves a pending batch previously issued at `start_seqno`.
  void ResolvePending(uint64_t start_seqno, const DprResponseHeader& resp);

  /// Absorbs the cut and world-line of any response.
  void Observe(const DprResponseHeader& resp);

  /// Commit status reported to the application.
  struct CommitPoint {
    /// All ops with seqno < prefix_end are committed…
    uint64_t prefix_end = 0;
    /// …except these (pending or not-yet-committed ops the prefix skipped).
    std::vector<uint64_t> excluded;
  };
  CommitPoint GetCommitPoint();

  uint64_t next_seqno() const;

  /// True once any response revealed a newer world-line; the application
  /// must call HandleFailure before issuing more operations.
  bool needs_failure_handling() const;
  WorldLine observed_world_line() const;
  WorldLine world_line() const;

  /// Computes the surviving prefix at the recovery cut, resets in-flight
  /// state, and moves the session onto `new_world_line`. Returned
  /// CommitPoint::excluded lists the *lost* operations below the prefix.
  CommitPoint HandleFailure(WorldLine new_world_line,
                            const DprCut& recovery_cut);

  /// Human-readable dump of internal state (segments, cut, clocks) for
  /// diagnostics.
  std::string DebugString() const;

 private:
  struct Segment {
    uint64_t start = 0;
    uint64_t count = 0;
    WorkerId worker = kInvalidWorker;
    Version version = kInvalidVersion;
    bool resolved = false;
    /// Issue time, for the op→commit latency histogram when the committed
    /// prefix passes over this segment.
    uint64_t issued_us = 0;
  };

  CommitPoint ComputePointLocked(const DprCut& committed,
                                 bool drop_committed) REQUIRES(mu_);
  void AbsorbLocked(const DprResponseHeader& resp) REQUIRES(mu_);
  /// True when `resp` is a pre-recovery straggler the session must not
  /// absorb (world_line_policy == kReject).
  bool IsStaleResponseLocked(const DprResponseHeader& resp) const
      REQUIRES(mu_);

  const uint64_t session_id_;
  const SessionOptions options_;
  mutable Mutex mu_{LockRank::kSession, "dpr.session"};
  uint64_t next_seqno_ GUARDED_BY(mu_) = 0;
  WorldLine world_line_ GUARDED_BY(mu_) = kInitialWorldLine;
  WorldLine observed_world_line_ GUARDED_BY(mu_) = kInitialWorldLine;
  Version version_clock_ GUARDED_BY(mu_) = kInvalidVersion;  // Vs (§3.2)
  DependencySet deps_ GUARDED_BY(mu_);     // uncommitted per-worker max
  DprCut cut_ GUARDED_BY(mu_);             // observed cut, merged by max
  uint64_t cut_epoch_ GUARDED_BY(mu_) = 0;  // largest epoch merged into it
  std::deque<Segment> segments_ GUARDED_BY(mu_);
  uint64_t reported_prefix_ GUARDED_BY(mu_) = 0;  // keeps GetCommitPoint
                                                  // monotone
};

}  // namespace dpr

#endif  // DPR_DPR_SESSION_H_
