#include "dpr/finder_core.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

/// Bound on reports awaiting a report→cut-advance latency sample: a cut that
/// stops advancing (partition, recovery) must not leak memory while reports
/// keep arriving. Overflow drops the oldest — their samples are lost, which
/// only biases the histogram *down* during stalls it already makes obvious
/// through the cut-age gauge.
constexpr size_t kCutLatencyPendingCap = 4096;

struct FinderMetrics {
  Counter* reports_ingested;
  Counter* reports_stale;
  Counter* cut_advances;
  Gauge* staged_depth;
  Gauge* staged_peak;
  Gauge* cut_age_us;
  ShardedHistogram* report_to_cut_us;
};

const FinderMetrics& Metrics() {
  static const FinderMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return FinderMetrics{r.counter("dpr.finder.reports_ingested"),
                         r.counter("dpr.finder.reports_stale"),
                         r.counter("dpr.finder.cut_advances"),
                         r.gauge("dpr.finder.staged_depth"),
                         r.gauge("dpr.finder.staged_peak"),
                         r.gauge("dpr.finder.cut_age_us"),
                         r.histogram("dpr.finder.report_to_cut_us")};
  }();
  return m;
}

}  // namespace

// ---------------------------------------------------------------- DprFinder

DprFinder::~DprFinder() { StopCoordinator(); }

void DprFinder::StartCoordinator(uint64_t interval_us) {
  stop_.store(false, std::memory_order_relaxed);
  coordinator_ = std::thread([this, interval_us] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Status s = ComputeCut();
      if (!s.ok()) {
        DPR_WARN("coordinator ComputeCut: %s", s.ToString().c_str());
      }
      SleepMicros(interval_us);
    }
  });
}

void DprFinder::StopCoordinator() {
  stop_.store(true, std::memory_order_relaxed);
  if (coordinator_.joinable()) coordinator_.join();
}

PublishedCut DprFinder::LastPublished() const {
  MutexLock guard(publish_mu_);
  return published_;
}

Version DprFinder::PublishedVersion(WorkerId worker) const {
  MutexLock guard(publish_mu_);
  return CutVersion(published_.cut, worker);
}

void DprFinder::Publish(PublishedCut cut) const {
  MutexLock guard(publish_mu_);
  published_ = std::move(cut);
  published_epoch_.store(published_.epoch, std::memory_order_release);
}

// ---------------------------------------------------------------- FinderCore

FinderCore::FinderCore(MetadataStore* metadata, bool stage_reports,
                       bool serve_vmax)
    : metadata_(metadata),
      stage_reports_(stage_reports),
      serve_vmax_(serve_vmax) {
  world_line_.store(metadata_->GetWorldLine(), std::memory_order_release);
  WorldLine cut_wl;
  metadata_->GetCut(&cut_wl, &cut_);
  vmax_.store(metadata_->MaxPersistedVersion(), std::memory_order_release);
  // A recovered cut is committed already: publish it at once, re-persisted
  // so its epoch is above every one the lost finder handed out.
  if (!cut_.empty()) {
    MutexLock guard(mu_);
    Status s = metadata_->SetCut(cut_wl, cut_);
    if (s.ok()) {
      PublishLocked();
    } else {
      DPR_WARN("finder republish of the recovered cut: %s",
               s.ToString().c_str());
    }
  }
}

Status FinderCore::AddWorker(WorkerId worker, Version start_version) {
  MutexLock guard(mu_);
  DPR_RETURN_NOT_OK(metadata_->UpsertWorker(worker, start_version));
  if (cut_.find(worker) == cut_.end()) cut_[worker] = start_version;
  retired_.erase(worker);
  Version cur = vmax_.load(std::memory_order_relaxed);
  while (start_version > cur &&
         !vmax_.compare_exchange_weak(cur, start_version,
                                      std::memory_order_release)) {
  }
  OnWorkerAddedLocked(worker, start_version);
  return Status::OK();
}

Status FinderCore::RemoveWorker(WorkerId worker) {
  MutexLock guard(mu_);
  DPR_RETURN_NOT_OK(metadata_->RemoveWorker(worker));
  auto it = cut_.find(worker);
  if (it != cut_.end()) {
    retired_[worker] = it->second;
    cut_.erase(it);
  }
  OnWorkerRemovedLocked(worker);
  return Status::OK();
}

Status FinderCore::ReportPersistedVersion(WorldLine world_line,
                                          WorkerVersion wv,
                                          const DependencySet& deps) {
  ReaderMutexLock gate(ingest_gate_);
  if (world_line != world_line_.load(std::memory_order_acquire)) {
    Metrics().reports_stale->Add();
    return Status::Aborted("report from stale world-line");
  }
  DPR_RETURN_NOT_OK(PersistReportDurable(wv, deps));
  Version cur = vmax_.load(std::memory_order_relaxed);
  while (wv.version > cur &&
         !vmax_.compare_exchange_weak(cur, wv.version,
                                      std::memory_order_release)) {
  }
  if (stage_reports_) {
    size_t depth;
    {
      MutexLock guard(stage_mu_);
      staged_.push_back(StagedReport{wv, deps, NowMicros()});
      depth = staged_.size();
    }
    Metrics().staged_depth->Set(static_cast<int64_t>(depth));
    Metrics().staged_peak->UpdateMax(static_cast<int64_t>(depth));
  }
  Metrics().reports_ingested->Add();
  return Status::OK();
}

void FinderCore::ApplyReportLocked(StagedReport&& /*report*/) {}

Status FinderCore::OnCutAdvancedLocked() { return Status::OK(); }

void FinderCore::OnWorkerAddedLocked(WorkerId /*worker*/,
                                     Version /*start_version*/) {}

void FinderCore::OnWorkerRemovedLocked(WorkerId /*worker*/) {}

Status FinderCore::OnBeginRecoveryLocked() { return Status::OK(); }

void FinderCore::DrainStagedLocked() {
  std::vector<StagedReport> batch;
  {
    MutexLock guard(stage_mu_);
    batch.swap(staged_);
  }
  if (!batch.empty()) Metrics().staged_depth->Set(0);
  for (auto& report : batch) {
    cut_latency_pending_.emplace_back(report.wv, report.ingest_us);
    ApplyReportLocked(std::move(report));
  }
  while (cut_latency_pending_.size() > kCutLatencyPendingCap) {
    cut_latency_pending_.pop_front();
  }
}

void FinderCore::DiscardStagedLocked() {
  MutexLock guard(stage_mu_);
  staged_.clear();
  Metrics().staged_depth->Set(0);
  cut_latency_pending_.clear();
}

void FinderCore::PublishLocked() {
  PublishedCut next{metadata_->CutCount(), cut_};
  for (const auto& [w, v] : retired_) next.cut.emplace(w, v);
  Publish(std::move(next));
}

Status FinderCore::ComputeCut() {
  MutexLock guard(mu_);
  if (in_recovery_) return Status::OK();
  DrainStagedLocked();
  DprCut next;
  DPR_RETURN_NOT_OK(ComputeCandidateLocked(&next));
  bool advanced = false;
  for (const auto& [w, v] : next) {
    if (v > CutVersion(cut_, w)) {
      advanced = true;
      break;
    }
  }
  const uint64_t now_us = NowMicros();
  const uint64_t last = last_advance_us_.load(std::memory_order_relaxed);
  if (!advanced) {
    // How long the committed cut has been stuck — the staleness a client
    // commit waits behind.
    if (last != 0) {
      Metrics().cut_age_us->Set(static_cast<int64_t>(now_us - last));
    }
    return Status::OK();
  }
  DPR_RETURN_NOT_OK(
      metadata_->SetCut(world_line_.load(std::memory_order_acquire), next));
  cut_ = std::move(next);
  Metrics().cut_advances->Add();
  last_advance_us_.store(now_us, std::memory_order_relaxed);
  Metrics().cut_age_us->Set(0);
  // Reports the new cut covers have completed their report→cut round trip.
  while (!cut_latency_pending_.empty()) {
    const auto& [wv, ingest_us] = cut_latency_pending_.front();
    if (CutVersion(cut_, wv.worker) < wv.version) break;
    if (now_us > ingest_us) {
      Metrics().report_to_cut_us->Record(now_us - ingest_us);
    }
    cut_latency_pending_.pop_front();
  }
  PublishLocked();
  return OnCutAdvancedLocked();
}

void FinderCore::GetCut(WorldLine* world_line, DprCut* cut) const {
  MutexLock guard(mu_);
  if (world_line != nullptr) {
    *world_line = world_line_.load(std::memory_order_acquire);
  }
  if (cut != nullptr) *cut = cut_;
}

Version FinderCore::MaxPersistedVersion() const {
  if (!serve_vmax_) return kInvalidVersion;
  return vmax_.load(std::memory_order_acquire);
}

WorldLine FinderCore::CurrentWorldLine() const {
  return world_line_.load(std::memory_order_acquire);
}

Status FinderCore::BeginRecovery(WorldLine* new_world_line, DprCut* cut) {
  // Close the ingest gate: no report may slip a durable row in between the
  // world-line bump and the above-cut trim below.
  WriterMutexLock gate(ingest_gate_);
  MutexLock guard(mu_);
  in_recovery_ = true;
  const WorldLine next_wl =
      world_line_.load(std::memory_order_relaxed) + 1;
  DPR_RETURN_NOT_OK(metadata_->SetWorldLine(next_wl));
  world_line_.store(next_wl, std::memory_order_release);
  // The committed cut is the recovery target; everything reported above it —
  // staged, in-memory, or durable rows — is lost to the rollback.
  DiscardStagedLocked();
  DPR_RETURN_NOT_OK(OnBeginRecoveryLocked());
  Version max_row = kInvalidVersion;
  for (const auto& [w, v] : metadata_->GetPersistedVersions()) {
    const Version cv = CutVersion(cut_, w);
    if (v > cv) {
      DPR_RETURN_NOT_OK(metadata_->UpsertWorker(w, cv));
      max_row = std::max(max_row, cv);
    } else {
      max_row = std::max(max_row, v);
    }
  }
  vmax_.store(max_row, std::memory_order_release);
  // Re-persist the cut under the new world-line so a finder restart recovers
  // into the post-failure world.
  DPR_RETURN_NOT_OK(metadata_->SetCut(next_wl, cut_));
  if (new_world_line != nullptr) *new_world_line = next_wl;
  if (cut != nullptr) {
    // Removed workers roll back nothing, but sessions compute their
    // surviving prefix from this cut and may still depend on them.
    *cut = cut_;
    for (const auto& [w, v] : retired_) cut->emplace(w, v);
  }
  return Status::OK();
}

Status FinderCore::EndRecovery() {
  MutexLock guard(mu_);
  in_recovery_ = false;
  return Status::OK();
}

}  // namespace dpr
