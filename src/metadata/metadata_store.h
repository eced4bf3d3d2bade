#ifndef DPR_METADATA_METADATA_STORE_H_
#define DPR_METADATA_METADATA_STORE_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/status.h"
#include "common/sync.h"
#include "dpr/types.h"
#include "storage/wal.h"

namespace dpr {

/// Lifecycle of a cluster member in the membership state machine (paper §5.3;
/// DESIGN.md §4i). Rows are durable: a worker that crashes mid-join recovers
/// into the same state and the cluster plane resumes or aborts the
/// transition. kRemoved rows are kept as tombstones so a decommissioned
/// worker id is never silently reused with stale ownership rows around.
enum class MemberState : uint8_t {
  kJoining = 0,   // registered, receiving migrated shards, owns nothing yet
  kActive = 1,    // full member, owns shards, participates in cuts
  kDraining = 2,  // decommissioning: shards migrating away, no new ownership
  kRemoved = 3,   // tombstone: fully drained and unregistered
};

const char* MemberStateName(MemberState state);

/// One in-flight shard migration, recorded durably before the dual-ownership
/// window opens so a crashed driver can be detected (and the migration
/// aborted/resumed) from the metadata service alone.
struct MigrationRow {
  WorkerId source = 0;
  WorkerId target = 0;
};

/// Durable, fault-tolerant metadata service — the stand-in for the paper's
/// Azure SQL database (Fig. 4). Holds exactly the tables DPR needs:
///
///  * the `dpr` table: worker id -> persisted version (approximate algorithm
///    rows; also the source of truth for cluster membership, §5.3);
///  * precedence-graph rows (exact algorithm): (worker, version) -> deps;
///  * the current DPR cut + world-line, updated atomically so the cut is
///    never partially read;
///  * the ownership table: virtual partition -> owner worker.
///
/// Every mutation is WAL-logged and fsync'd before returning, so the service
/// survives SimulateCrash() (which drops all volatile state and unsynced WAL
/// suffix, then replays). All methods are thread-safe.
class MetadataStore {
 public:
  /// With a `scheduler`, mutation fsyncs register as group-commit waiters on
  /// the WAL device instead of each issuing a private fsync, so concurrent
  /// metadata mutations (and anything else sharing the device) coalesce.
  explicit MetadataStore(std::unique_ptr<Device> wal_device,
                         GroupCommitScheduler* scheduler = nullptr);

  /// Rebuilds tables from the WAL. Call once after construction (and after
  /// SimulateCrash, which invokes it internally).
  Status Recover();

  // --- dpr table (approximate algorithm + membership) ---
  Status UpsertWorker(WorkerId worker, Version persisted_version);
  Status RemoveWorker(WorkerId worker);
  std::map<WorkerId, Version> GetPersistedVersions() const;
  /// SELECT min(persistedVersion) FROM dpr — kInvalidVersion if empty.
  Version MinPersistedVersion() const;
  /// SELECT max(persistedVersion) FROM dpr — used for Vmax fast-forward.
  Version MaxPersistedVersion() const;

  // --- precedence graph (exact algorithm) ---
  Status AddGraphNode(WorkerVersion wv, const DependencySet& deps);
  std::map<WorkerVersion, DependencySet> GetGraph() const;
  /// Garbage-collects graph nodes at or below the cut.
  Status PruneGraph(const DprCut& cut);

  // --- cut + world-line ---
  Status SetCut(WorldLine world_line, const DprCut& cut);
  void GetCut(WorldLine* world_line, DprCut* cut) const;
  /// How many SetCut calls the store has applied, ever (replayed from the
  /// WAL, so it survives crashes and only grows): the finder names each
  /// published cut by it.
  uint64_t CutCount() const;
  Status SetWorldLine(WorldLine world_line);
  WorldLine GetWorldLine() const;

  // --- ownership ---
  Status SetOwner(uint64_t virtual_partition, WorkerId worker);
  std::map<uint64_t, WorkerId> GetOwnership() const;

  // --- membership state machine (cluster plane, §5.3) ---
  Status SetMemberState(WorkerId worker, MemberState state);
  std::map<WorkerId, MemberState> GetMemberStates() const;

  // --- in-flight migrations (crash-visible dual-ownership windows) ---
  Status SetMigration(uint64_t virtual_partition, WorkerId source,
                      WorkerId target);
  Status ClearMigration(uint64_t virtual_partition);
  std::map<uint64_t, MigrationRow> GetMigrations() const;

  /// Drops volatile state and the unsynced WAL suffix, then recovers;
  /// models a metadata-service crash + restart.
  void SimulateCrash();

  /// Number of WAL bytes written (observability for scalability benches).
  uint64_t WalBytes() const;

 private:
  Status LogAndApply(const std::string& record) EXCLUDES(mu_);
  void ApplyRecord(Slice record) REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kMetadata, "metadata.store"};
  // The WAL has its own internal lock (kStorage) acquired under mu_; mu_
  // additionally serializes Append+Sync+apply so a record is never applied
  // to the tables out of WAL order.
  WriteAheadLog wal_ GUARDED_BY(mu_);
  std::map<WorkerId, Version> persisted_ GUARDED_BY(mu_);  // dpr table
  // Precedence graph (exact algorithm).
  std::map<WorkerVersion, DependencySet> graph_ GUARDED_BY(mu_);
  DprCut cut_ GUARDED_BY(mu_);
  WorldLine cut_world_line_ GUARDED_BY(mu_) = kInitialWorldLine;
  uint64_t cut_count_ GUARDED_BY(mu_) = 0;
  WorldLine world_line_ GUARDED_BY(mu_) = kInitialWorldLine;
  std::map<uint64_t, WorkerId> ownership_ GUARDED_BY(mu_);
  std::map<WorkerId, MemberState> member_states_ GUARDED_BY(mu_);
  std::map<uint64_t, MigrationRow> migrations_ GUARDED_BY(mu_);
};

}  // namespace dpr

#endif  // DPR_METADATA_METADATA_STORE_H_
