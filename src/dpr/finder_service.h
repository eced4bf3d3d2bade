#ifndef DPR_DPR_FINDER_SERVICE_H_
#define DPR_DPR_FINDER_SERVICE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "dpr/finder.h"
#include "net/rpc.h"

namespace dpr {

/// Exposes a DprFinder over RPC so workers in other processes participate in
/// DPR tracking — the deployment shape of the paper's evaluation (shards are
/// separate machines; here, separate processes on one box over TCP).
///
/// Wire format: [u8 method][method-specific payload]; responses are
/// [u8 status-code][payload]. Reports arrive batched (kReportBatch) and
/// cut/world-line/Vmax reads are served as one combined snapshot (kSnapshot),
/// so a loaded cluster costs the finder a handful of RPCs per flush interval
/// rather than one per checkpoint.
class DprFinderServer {
 public:
  DprFinderServer(DprFinder* finder, std::unique_ptr<RpcServer> server);
  ~DprFinderServer();

  Status Start();
  void Stop();
  const std::string& address() const { return address_; }

 private:
  void Handle(Slice request, std::string* response);

  DprFinder* finder_;
  std::unique_ptr<RpcServer> server_;
  std::string address_;
};

struct RemoteDprFinderOptions {
  /// Background flush cadence; a flush also fires as soon as a full batch
  /// (256 reports, one kReportBatch RPC) is pending.
  uint64_t flush_interval_us = 2'000;
  /// How long reads may serve from the cached snapshot before refreshing
  /// it; the flusher refreshes once per pass past this age, so it also
  /// bounds how late a cut advance reaches this process's workers. Commits
  /// are learned lazily anyway (paper §4.2), so staleness here only delays
  /// commit acknowledgement, never correctness.
  uint64_t snapshot_ttl_us = 2'000;
  /// Transport-error handling: a failed batch send is retried with bounded
  /// exponential backoff; the batch is never dropped (reports re-queue at
  /// the front on exhaustion).
  int max_send_attempts = 8;
  uint64_t retry_backoff_us = 200;
  uint64_t retry_backoff_max_us = 50'000;
};

/// Client-side stub: a DprFinder implementation backed by a connection to a
/// DprFinderServer.
///
/// Reports are asynchronous: ReportPersistedVersion validates the world-line
/// against the cached snapshot, enqueues the report, and returns; a
/// background flusher drains the queue in kReportBatch RPCs with
/// retry/backoff on transport errors. Reads (GetCut, MaxPersistedVersion,
/// CurrentWorldLine) flush pending reports and refresh the snapshot first,
/// so read-after-report behaves exactly like the local finder. Control
/// operations (AddWorker, recovery) are synchronous RPCs preceded by a
/// flush. The snapshot carries the server finder's published cut, and every
/// refresh republishes it here for this process's workers' responses:
/// ComputeCut always refreshes, and once a worker has registered through
/// this client (AddWorker) the flusher refreshes on each pass.
///
/// The report path is counted in the process-wide registry under
/// `dpr.remote.*` (reports_enqueued, reports_stale, batches_sent,
/// reports_sent, reports_rejected, retries_{timeout,transient,other},
/// batches_abandoned, snapshot_refreshes, and the pending_depth gauge).
class RemoteDprFinder : public DprFinder {
 public:
  explicit RemoteDprFinder(std::unique_ptr<RpcConnection> conn,
                           RemoteDprFinderOptions options = {});
  ~RemoteDprFinder() override;

  Status AddWorker(WorkerId worker, Version start_version) override;
  Status RemoveWorker(WorkerId worker) override;
  Status ReportPersistedVersion(WorldLine world_line, WorkerVersion wv,
                                const DependencySet& deps) override;
  Status ComputeCut() override;
  void GetCut(WorldLine* world_line, DprCut* cut) const override;
  Version MaxPersistedVersion() const override;
  WorldLine CurrentWorldLine() const override;
  Status BeginRecovery(WorldLine* new_world_line, DprCut* cut) override;
  Status EndRecovery() override;

  /// Synchronously drains the pending-report queue (retrying transport
  /// errors). Called internally before every read/control RPC; public so
  /// tests and shutdown paths can force the queue empty.
  Status Flush();

 private:
  struct PendingReport {
    WorldLine world_line;
    WorkerVersion wv;
    DependencySet deps;
  };

  struct Snapshot {
    WorldLine world_line = kInitialWorldLine;
    /// Workers whose entries the published cut keeps after their removal;
    /// GetCut leaves them out.
    std::vector<WorkerId> retired;
    Version vmax = kInvalidVersion;
    uint64_t fetched_us = 0;  // 0 = never fetched / invalidated
  };

  Status Call(uint8_t method, Slice payload, std::string* response) const;
  /// Sends one encoded batch, retrying transport errors and retryable
  /// server-side codes with backoff. Returns the server's status (OK even
  /// when some reports were rejected as stale — those are counted, not
  /// errors) or Transient after exhausting attempts.
  Status SendBatch(const std::vector<PendingReport>& batch) const;
  /// Drains the queue under flush_mu_; on failure re-queues the unsent batch
  /// at the front so no report is lost.
  Status FlushPending() const;
  /// Re-fetches the snapshot (kSnapshot RPC) if `force` or the TTL expired,
  /// and publishes the server finder's cut as this finder's.
  Status RefreshSnapshot(bool force) const;
  void InvalidateSnapshot() const;
  void FlusherLoop();

  std::unique_ptr<RpcConnection> conn_;
  const RemoteDprFinderOptions options_;

  /// Pending-report queue (append under queue_mu_, drained by flushes).
  mutable Mutex queue_mu_{LockRank::kFinderQueue, "finder.remote.queue"};
  mutable CondVar queue_cv_;
  mutable std::deque<PendingReport> pending_ GUARDED_BY(queue_mu_);
  bool stop_ GUARDED_BY(queue_mu_) = false;

  /// Serializes batch sending so the background flusher and explicit
  /// Flush() calls cannot reorder or double-send reports. Ranked above
  /// queue_mu_: FlushPending holds it while popping/re-queuing batches.
  mutable Mutex flush_mu_{LockRank::kFinderFlush, "finder.remote.flush"};

  /// Held across the kSnapshot call, so refreshes apply (and publish) in
  /// order.
  mutable Mutex snap_mu_{LockRank::kFinderSnapshot, "finder.remote.snap"};
  mutable Snapshot snapshot_ GUARDED_BY(snap_mu_);
  /// Set once a worker registers through this client: only then does the
  /// flusher keep the published cut fresh (relaxed: a hint).
  std::atomic<bool> serves_workers_{false};

  std::thread flusher_;
};

}  // namespace dpr

#endif  // DPR_DPR_FINDER_SERVICE_H_
