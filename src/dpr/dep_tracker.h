#ifndef DPR_DPR_DEP_TRACKER_H_
#define DPR_DPR_DEP_TRACKER_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/hash.h"
#include "common/latch.h"
#include "dpr/types.h"

namespace dpr {

/// Lock-striped accumulator of per-version dependency sets, the worker-side
/// ingest half of the DPR tracking plane (paper §3.3: tracking must stay off
/// the critical path).
///
/// Request batches call Record() concurrently under the worker's *shared*
/// version latch; striping by client-session hash means two sessions only
/// contend when they hash to the same shard, so there is no process-global
/// mutex on the batch admission path. Batches that carry no cross-worker
/// dependencies (the common case for single-shard sessions) touch no lock at
/// all. The per-version sets are merged across shards only at
/// checkpoint-persist time (DrainUpTo), which runs on the persistence
/// callback thread — already off the critical path.
///
/// Activity is counted only in the process-wide registry
/// (`dpr.dep_tracker.{records,empty_records,drains}` counters and the
/// `dpr.dep_tracker.live_entries{,_peak}` gauges), summed across trackers.
class VersionDependencyTracker {
 public:
  static constexpr uint32_t kDefaultShards = 16;

  explicit VersionDependencyTracker(uint32_t shards = kDefaultShards);
  /// Returns any still-staged entries to the live-entries gauge.
  ~VersionDependencyTracker();

  VersionDependencyTracker(const VersionDependencyTracker&) = delete;
  VersionDependencyTracker& operator=(const VersionDependencyTracker&) =
      delete;

  /// Merges `deps` (ignoring entries on `self`, which are implicit) into the
  /// dependency set accumulated for `version`. Striped by `session_id`.
  void Record(uint64_t session_id, Version version, const DependencySet& deps,
              WorkerId self);

  /// Folds together and removes every recorded set with version <= `token`
  /// across all shards — the checkpoint-persist-time merge. The returned set
  /// covers all versions the checkpoint physically contains.
  DependencySet DrainUpTo(Version token);

  /// Discards everything (rollback: uncommitted dependency state is void).
  void Clear();

  /// Shard count (the constructor's argument rounded up to a power of 2).
  uint32_t shards() const { return shard_mask_ + 1; }

 private:
  // Padded to a cache line so shard latches never false-share.
  struct alignas(64) Shard {
    SpinLatch latch{LockRank::kDepTracker, "dep_tracker.shard"};
    std::map<Version, DependencySet> deps GUARDED_BY(latch);
  };

  uint32_t ShardOf(uint64_t session_id) const {
    return static_cast<uint32_t>(Mix64(session_id)) & shard_mask_;
  }

  uint32_t shard_mask_;  // shard count rounded up to a power of two, minus 1
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace dpr

#endif  // DPR_DPR_DEP_TRACKER_H_
