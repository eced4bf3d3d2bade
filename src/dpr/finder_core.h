#ifndef DPR_DPR_FINDER_CORE_H_
#define DPR_DPR_FINDER_CORE_H_

#include <atomic>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "dpr/types.h"
#include "metadata/metadata_store.h"

namespace dpr {

/// One committed cut as the finder publishes it. `epoch` names the cut:
/// every advance gets a new epoch, so two holders of the same epoch hold
/// the same entries and a session asks a worker for the cut only when its
/// epoch differs (DESIGN.md §4c, commit propagation). Epochs come from the
/// metadata store's durable cut count, so a finder rebuilt over the same
/// store — on any host — continues above its predecessor's epochs. The
/// entries include the final entry of every worker removed from the
/// cluster, so a dependency on a decommissioned worker still resolves.
struct PublishedCut {
  uint64_t epoch = 0;  // 0: nothing published yet
  DprCut cut;
};

/// The DPR-tracking service (paper §3.3–3.4, Fig. 4): workers report
/// persisted versions (with their cross-worker dependency sets), and the
/// finder computes ever-advancing DPR cuts that it persists in the metadata
/// store.
///
/// All implementations are thread-safe. Cut computation can run inline via
/// ComputeCut() (tests) or on the background coordinator thread
/// (StartCoordinator).
class DprFinder {
 public:
  virtual ~DprFinder();

  /// Registers a worker (joins the cluster at version `start_version`).
  virtual Status AddWorker(WorkerId worker, Version start_version = 0) = 0;
  /// Removes an (empty) worker from the cluster.
  virtual Status RemoveWorker(WorkerId worker) = 0;

  /// Reports that `wv.worker` made `wv.version` durable; `deps` holds, for
  /// each other worker this version's operations depend on, the largest
  /// version number depended upon.
  virtual Status ReportPersistedVersion(WorldLine world_line, WorkerVersion wv,
                                        const DependencySet& deps) = 0;

  /// Runs one round of cut computation and persists any advance.
  virtual Status ComputeCut() = 0;

  /// Latest committed cut and its world-line.
  virtual void GetCut(WorldLine* world_line, DprCut* cut) const = 0;

  /// Largest persisted version across all workers (Vmax, §3.4); workers
  /// fast-forward their next checkpoint to at least this.
  virtual Version MaxPersistedVersion() const = 0;

  /// Current world-line (advanced by BeginRecovery).
  virtual WorldLine CurrentWorldLine() const = 0;

  /// Failure handling: advances the world-line, freezes the cut as the
  /// recovery target, and discards reported state above it. Returns the cut
  /// every surviving worker must roll back to (with the final entries of
  /// removed workers, as published). Progress is halted until EndRecovery()
  /// is called (paper §4.1).
  virtual Status BeginRecovery(WorldLine* new_world_line,
                               DprCut* recovery_cut) = 0;
  virtual Status EndRecovery() = 0;

  /// Chaos hook: models losing the coordinator process without losing the
  /// durable metadata. Implementations that keep per-report in-memory state
  /// discard it (see GraphDprFinder); the default is a no-op because an
  /// algorithm computing from durable rows alone loses nothing.
  virtual void SimulateCoordinatorCrash() {}

  /// Runs ComputeCut() every `interval_us` on a background thread.
  void StartCoordinator(uint64_t interval_us);
  void StopCoordinator();

  /// The latest published cut (epoch 0 and no entries before the first).
  /// Workers serve it to sessions (DprWorker::FillResponse).
  PublishedCut LastPublished() const;
  /// Epoch of LastPublished(), lock-free for the response path.
  uint64_t published_epoch() const {
    return published_epoch_.load(std::memory_order_acquire);
  }
  /// `worker`'s entry in LastPublished(), without copying the cut.
  Version PublishedVersion(WorkerId worker) const;

 protected:
  /// Records `cut` as the latest published cut. Callers serialize their
  /// calls (FinderCore under its compute lock, RemoteDprFinder under its
  /// snapshot lock), so the last call is the newest cut. Const so cached
  /// readers (RemoteDprFinder's snapshot refresh) can publish what a read
  /// revealed.
  void Publish(PublishedCut cut) const;

 private:
  std::thread coordinator_;
  // relaxed flag: coordinator loop-exit signal; join is the barrier.
  std::atomic<bool> stop_{false};

  mutable Mutex publish_mu_{LockRank::kFinderPublish, "finder.publish"};
  mutable PublishedCut published_ GUARDED_BY(publish_mu_);
  /// published_.epoch: release store under publish_mu_ / acquire load.
  mutable std::atomic<uint64_t> published_epoch_{0};
};

/// One worker report staged by the ingest side, awaiting application to the
/// compute side's in-memory structures.
struct StagedReport {
  WorkerVersion wv;
  DependencySet deps;
  /// Ingest-side timestamp, for the report→cut-advance latency histogram.
  uint64_t ingest_us = 0;
};

/// The state machine shared by all local finder implementations: world-line
/// and recovery handling, the committed cut, Vmax tracking, and the
/// ingest/compute split.
///
/// Ingest side (ReportPersistedVersion): validates the report's world-line
/// against an atomic, performs the algorithm's durable write
/// (PersistReportDurable — the metadata store serializes internally), bumps
/// the atomic Vmax, and appends the report to a small staging buffer. It
/// never takes the compute lock, so reports do not serialize against cut
/// computation.
///
/// Compute side (ComputeCut): under the compute lock `mu_`, drains the
/// staging buffer into the algorithm's in-memory structures
/// (ApplyReportLocked) and asks the algorithm for a candidate cut
/// (ComputeCandidateLocked); any advance is persisted, garbage-collection
/// hooks run, and the new cut is published (still under `mu_`, so
/// publications are in cut order).
///
/// Recovery closes the ingest gate exclusively (a shared_mutex reports pass
/// through in shared mode) so no report can interleave with the world-line
/// bump and the above-cut trim.
///
/// Activity is counted in the process-wide registry: `dpr.finder.*`
/// counters (reports_ingested, reports_stale, cut_advances), gauges
/// (staged_depth, staged_peak, cut_age_us) and the report_to_cut_us
/// histogram.
class FinderCore : public DprFinder {
 public:
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

 protected:
  /// `stage_reports` is false for algorithms with no in-memory per-report
  /// state (the approximate finder computes from durable rows only).
  /// `serve_vmax` implements FinderOptions::vmax_fastforward: when false,
  /// MaxPersistedVersion() reports kInvalidVersion so workers never
  /// fast-forward (§3.4 ablation), though Vmax is still tracked internally
  /// for recovery bookkeeping.
  FinderCore(MetadataStore* metadata, bool stage_reports,
             bool serve_vmax = true);

  // --- algorithm hooks -----------------------------------------------------
  /// Ingest side, no lock held: the report's durable write (graph node row,
  /// dpr-table row). Must be safe to run concurrently with the compute side.
  virtual Status PersistReportDurable(const WorkerVersion& wv,
                                      const DependencySet& deps) = 0;
  /// Compute side, mu_ held: folds one staged report into in-memory state.
  virtual void ApplyReportLocked(StagedReport&& report) REQUIRES(mu_);
  /// Compute side, mu_ held: the algorithm's candidate next cut.
  virtual Status ComputeCandidateLocked(DprCut* next) REQUIRES(mu_) = 0;
  /// Compute side, mu_ held: GC after the cut advanced to the new `cut_`.
  virtual Status OnCutAdvancedLocked() REQUIRES(mu_);
  /// mu_ held: membership changes.
  virtual void OnWorkerAddedLocked(WorkerId worker, Version start_version)
      REQUIRES(mu_);
  virtual void OnWorkerRemovedLocked(WorkerId worker) REQUIRES(mu_);
  /// mu_ held, ingest gate closed: discard in-memory state above the frozen
  /// cut. (Durable dpr-table rows are trimmed by the core.)
  virtual Status OnBeginRecoveryLocked() REQUIRES(mu_);

  // --- helpers for subclasses (mu_ held) -----------------------------------
  /// Applies all staged reports to in-memory state via ApplyReportLocked.
  void DrainStagedLocked() REQUIRES(mu_);
  /// Drops staged reports without applying them (recovery, coordinator
  /// crash: they are lost to the rollback / the lost process).
  void DiscardStagedLocked() REQUIRES(mu_);

  MetadataStore* metadata_;
  /// Compute lock: guards cut_, in_recovery_, and subclass in-memory state.
  mutable Mutex mu_{LockRank::kFinderCompute, "finder.compute"};
  DprCut cut_ GUARDED_BY(mu_);
  bool in_recovery_ GUARDED_BY(mu_) = false;

 private:
  /// Publishes cut_ plus the final entries of removed workers under the
  /// metadata store's current cut count, which the SetCut just before
  /// made new.
  void PublishLocked() REQUIRES(mu_);

  /// Last cut entry of every worker RemoveWorker dropped; published with
  /// the cut so sessions can still resolve dependencies on them.
  DprCut retired_ GUARDED_BY(mu_);
  const bool stage_reports_;
  const bool serve_vmax_;
  /// Served lock-free to report filtering. release on recovery-install /
  /// acquire on read: observing world line w implies observing the cut
  /// reset that created it. vmax_ advances by relaxed CAS max-merge (only
  /// the max matters; the metadata write that makes it durable is fenced
  /// by mu_).
  std::atomic<WorldLine> world_line_;
  std::atomic<Version> vmax_{kInvalidVersion};
  /// Reports pass in shared mode; BeginRecovery closes it exclusively.
  /// Ranked above the compute lock: recovery acquires gate → mu_.
  mutable SharedMutex ingest_gate_{LockRank::kFinderIngestGate,
                                   "finder.ingest_gate"};
  /// Staging buffer (MPSC): its lock is held only for an append or a swap,
  /// never during cut computation or metadata I/O. Ranked below the compute
  /// lock (DrainStagedLocked acquires mu_ → stage_mu_).
  mutable Mutex stage_mu_{LockRank::kFinderStage, "finder.stage"};
  std::vector<StagedReport> staged_ GUARDED_BY(stage_mu_);

  /// Drained reports not yet covered by the cut, awaiting their
  /// report→cut-advance latency sample (mu_ held; capped so a stalled cut
  /// cannot grow it without bound).
  std::deque<std::pair<WorkerVersion, uint64_t>> cut_latency_pending_
      GUARDED_BY(mu_);
  /// When the committed cut last advanced, for the cut-age gauge
  /// (relaxed: a monotonic timestamp read only by ComputeCut).
  std::atomic<uint64_t> last_advance_us_{0};
};

}  // namespace dpr

#endif  // DPR_DPR_FINDER_CORE_H_
