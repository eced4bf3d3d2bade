#ifndef DPR_DFASTER_WORKER_H_
#define DPR_DFASTER_WORKER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "ckpt/cadence.h"
#include "common/latch.h"
#include "dfaster/migration_channel.h"
#include "dfaster/protocol.h"
#include "dpr/worker.h"
#include "faster/faster_store.h"
#include "net/rpc.h"
#include "workload/ycsb.h"

namespace dpr {

/// Session-id namespace for migration-install traffic: install batches for
/// partition p carry session id kMigrationSessionBase + p, so their
/// dependency entries are attributable in traces and never collide with
/// client sessions.
constexpr uint64_t kMigrationSessionBase = 0xfeed0000;

/// Recoverability modes evaluated in the paper:
///  * kNone      — pure in-memory cache, no checkpoints ("No Chkpts");
///  * kEventual  — uncoordinated periodic checkpoints, no DPR ("No DPR");
///  * kDpr       — periodic checkpoints coordinated by the DPR protocol.
enum class RecoverabilityMode { kNone, kEventual, kDpr };

struct DFasterWorkerConfig {
  WorkerId id = 0;
  uint32_t num_workers = 1;
  /// A worker joining an existing cluster starts owning nothing; partitions
  /// are handed to it via ownership transfer (§5.3).
  bool start_empty = false;
  RecoverabilityMode mode = RecoverabilityMode::kDpr;
  FasterOptions faster;
  /// Used in kDpr mode (finder, checkpoint interval) and, for its
  /// checkpoint_interval_us, in kEventual mode too.
  DprWorkerOptions dpr;
};

/// One D-FASTER shard (paper §5.2): a FASTER instance with a DPR worker
/// wrapped around it, an RPC endpoint for remote execution, and a direct
/// entry point for co-located execution.
class DFasterWorker {
 public:
  explicit DFasterWorker(DFasterWorkerConfig config);
  ~DFasterWorker();

  DFasterWorker(const DFasterWorker&) = delete;
  DFasterWorker& operator=(const DFasterWorker&) = delete;

  /// Starts DPR participation and, if `server` is non-null, remote serving.
  Status Start(std::unique_ptr<RpcServer> server);
  void Stop();

  /// Executes an encoded KvBatchRequest; used by both the RPC handler and
  /// co-located clients (which call it directly, skipping the network).
  /// Safe under concurrent invocation: the TCP transport runs handlers on a
  /// shared executor pool, so two batches — even from the same connection —
  /// may execute simultaneously. Version admission and per-key latching are
  /// handled by the DPR worker and the store underneath.
  void ExecuteBatch(Slice request, std::string* response);

  /// Typed entry for co-located clients (avoids one encode/decode round).
  void ExecuteBatch(const KvBatchRequest& request, KvBatchResponse* response);

  // --- ownership (paper §5.3) ---
  /// True if this worker currently owns the virtual partition.
  bool OwnsPartition(uint32_t partition) const;
  /// Starts serving the partition.
  void AdoptPartition(uint32_t partition);
  /// Number of partitions this worker currently owns.
  uint32_t OwnedPartitionCount() const;

  // --- live migration (cluster plane; DESIGN.md §4i) ---
  /// Opens the dual-ownership window for an owned partition: records the
  /// channel, then draws a checkpoint boundary (exclusive version-latch
  /// barrier) so every batch admitted before the seal has fully executed.
  /// From then on ops on the partition apply locally (the source stays
  /// authoritative until the flip) AND forward their effects through
  /// `channel` to the migration target.
  Status SealPartition(uint32_t partition,
                       std::shared_ptr<MigrationChannel> channel);
  /// Closes the dual-ownership window. `disown=true` completes the
  /// migration: ownership is dropped under the seal lock, so no op can
  /// execute locally-but-unforwarded after the target takes over.
  /// `disown=false` aborts the migration; the source keeps serving.
  void UnsealPartition(uint32_t partition, bool disown);
  /// Sticky flag, set when any forward or drain install through the seal
  /// channel fails: the target's copy can no longer be trusted and the
  /// migration driver must abort.
  bool SealForwardFailed(uint32_t partition) const;
  /// Pushes a snapshot of the partition's records through the seal channel
  /// in install batches of `chunk_ops` upserts. Each chunk re-reads values
  /// under the seal lock, so chunks and concurrent forwarded writes reach
  /// the target in an order consistent with source apply order (upserts do
  /// not commute). `*max_installed` returns the largest target version any
  /// chunk executed in — the commit-barrier target — or kInvalidVersion.
  Status DrainSealedPartition(uint32_t partition, size_t chunk_ops,
                              Version* max_installed);

  FasterStore* store() { return store_.get(); }
  DprWorker* dpr_worker() { return dpr_worker_.get(); }
  WorkerId id() const { return config_.id; }
  const std::string& address() const { return address_; }

 private:
  /// Per-partition dual-ownership window state. `sealed` is the lock-free
  /// fast-path gate; everything else happens under `mu`. In kDpr mode a
  /// batch that loads sealed=false is safe to apply locally without the
  /// lock: it holds the shared version latch, so SealPartition's exclusive-
  /// latch barrier cannot complete (and the drain cannot start) until the
  /// batch ends.
  struct SealState {
    Mutex mu{LockRank::kMigrationSeal, "dfaster.migration_seal"};
    std::shared_ptr<MigrationChannel> channel GUARDED_BY(mu);
    // release-stored under mu / acquire-loaded lock-free on every op.
    std::atomic<bool> sealed{false};
    // relaxed: sticky failure flag; the driver polls it between phases.
    std::atomic<bool> failed{false};
  };

  void RunOps(const KvBatchRequest& request, Version version,
              KvBatchResponse* response, bool check_ownership,
              DependencySet* forward_deps);
  void ApplyOp(FasterStore::Session* session, const KvOp& op, KvOpResult* out);
  /// Header for install traffic on `partition`: current world-line, current
  /// version v, deps {self: v}. The target fast-forwards to >= v and records
  /// the dependency downward, keeping the version clock invariant.
  DprRequestHeader MakeInstallHeader(uint32_t partition) const;
  /// Installs migrated records under DPR admission (bypasses the ownership
  /// check: the partition is mid-transfer and deliberately unowned). The
  /// request header's version + deps make the installing worker fast-forward
  /// to at least the source's version and record the dependency, so the
  /// installed data is entangled with the source's world-line and the DPR
  /// cut cannot cover one side of a migration without the other.
  Status InstallMigratedData(const KvBatchRequest& request,
                             KvBatchResponse* response);
  void ExecuteBatchInternal(const KvBatchRequest& request,
                            KvBatchResponse* response, bool check_ownership);
  /// Samples the cadence signal for this shard: its store's dirty bytes, at
  /// least 1 on a kDpr shard (it never reads idle).
  CkptSignals CollectCkptSignals() const;
  /// kEventual checkpoint: taken under the exclusive batch latch, without
  /// coordination or reporting.
  Status EventualCheckpoint();

  DFasterWorkerConfig config_;
  std::unique_ptr<FasterStore> store_;
  std::unique_ptr<DprWorker> dpr_worker_;  // kDpr mode only
  std::unique_ptr<RpcServer> server_;
  std::string address_;

  // Local view of the ownership map: partition -> owning worker.
  //
  // Memory-ordering invariant (live migration): loads are acquire, stores
  // are release. AdoptPartition's release store at the target publishes
  // every migrated-record installation that happened-before it — the driver
  // flips ownership only after all install rendezvous returned on the flip
  // thread — so a request thread whose acquire load observes "owned" also
  // observes the installed records. On the source side, the completed-
  // migration disown happens under the partition's seal lock
  // (UnsealPartition) so no op can apply locally-but-unforwarded after the
  // target took over.
  std::vector<std::atomic<uint32_t>> owners_;
  // Dual-ownership window state, one slot per partition (slots themselves
  // are const after construction).
  std::vector<std::unique_ptr<SealState>> seals_;

  // kNone / kEventual: batches hold this shared, and the kEventual
  // checkpoint takes it exclusively, so no batch is mid-flight while the
  // store draws the checkpoint boundary (FasterStore's PerformCheckpoint
  // contract; kDpr batches hold DprWorker's version latch instead).
  SharedSpinLatch batch_latch_{LockRank::kWorkerVersionLatch,
                               "dfaster.batch_latch"};
  // kEventual mode: uncoordinated periodic checkpoints.
  std::unique_ptr<CkptLoop> eventual_loop_;
  // relaxed flag: makes Stop() idempotent; the joins are the barrier.
  std::atomic<bool> stop_{true};
};

}  // namespace dpr

#endif  // DPR_DFASTER_WORKER_H_
