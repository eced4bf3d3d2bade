#include "cluster/migration.h"

#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

struct MigrationMetrics {
  Counter* started;
  Counter* completed;
  Counter* aborted;
  ShardedHistogram* duration_us;
  ShardedHistogram* barrier_us;
};

const MigrationMetrics& Metrics() {
  static const MigrationMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return MigrationMetrics{r.counter("cluster.migration.started"),
                            r.counter("cluster.migration.completed"),
                            r.counter("cluster.migration.aborted"),
                            r.histogram("cluster.migration.duration_us"),
                            r.histogram("cluster.migration.barrier_us")};
  }();
  return m;
}

/// Upserts per drain install batch.
constexpr size_t kDrainChunkOps = 64;
/// Commit-barrier give-up horizon.
constexpr uint64_t kBarrierTimeoutUs = 10'000'000;

}  // namespace

MigrationDriver::MigrationDriver(MigrationOptions options)
    : options_(std::move(options)) {}

Status MigrationDriver::Run() {
  const MigrationMetrics& m = Metrics();
  if (options_.source == nullptr || options_.target == nullptr ||
      options_.metadata == nullptr || options_.channel == nullptr) {
    return Status::InvalidArgument(
        "migration needs source+target+metadata+channel");
  }
  const WorkerId to = options_.target->id();
  if (options_.source->id() == to) {
    return Status::InvalidArgument("migration source == target");
  }
  if (!options_.source->OwnsPartition(options_.partition)) {
    return Status::NotOwner("migration source does not own partition");
  }
  if (options_.target->OwnsPartition(options_.partition)) {
    return Status::InvalidArgument("migration target already owns partition");
  }

  m.started->Add(1);
  Stopwatch total;

  const WorldLine src_wl0 = options_.source->dpr_worker() != nullptr
                                ? options_.source->dpr_worker()->world_line()
                                : kInitialWorldLine;
  const WorldLine dst_wl0 = options_.target->dpr_worker() != nullptr
                                ? options_.target->dpr_worker()->world_line()
                                : kInitialWorldLine;

  // Phase 1: durable in-flight record, before any state changes hands.
  Status s = options_.metadata->SetMigration(
      options_.partition, options_.source->id(), to);
  if (!s.ok()) {
    m.aborted->Add(1);
    return s;
  }

  // Phase 2: open the dual-ownership window.
  s = options_.source->SealPartition(options_.partition, options_.channel);
  if (!s.ok()) {
    (void)options_.metadata->ClearMigration(options_.partition);
    m.aborted->Add(1);
    return s;
  }

  // Phases 3-5 (drain, barrier, fence) run with the window open; any failure
  // aborts by closing the window without disowning — the source never
  // stopped being authoritative, so this is always safe.
  s = RunSealed(src_wl0, dst_wl0);
  if (!s.ok()) {
    DPR_WARN("migration of partition %u %u->%u aborted: %s",
             options_.partition, options_.source->id(), to,
             s.ToString().c_str());
    options_.source->UnsealPartition(options_.partition, /*disown=*/false);
    (void)options_.metadata->ClearMigration(options_.partition);
    m.aborted->Add(1);
    return s;
  }

  // Phase 6: flip. Durable ownership first, then the target starts serving,
  // then the source stops — a crash between these steps leaves at most a
  // dual-ownership window, never an ownerless partition.
  s = options_.metadata->SetOwner(options_.partition, to);
  if (!s.ok()) {
    options_.source->UnsealPartition(options_.partition, /*disown=*/false);
    (void)options_.metadata->ClearMigration(options_.partition);
    m.aborted->Add(1);
    return s;
  }
  options_.target->AdoptPartition(options_.partition);
  options_.source->UnsealPartition(options_.partition, /*disown=*/true);

  // Phase 7: release the in-flight record.
  Status release = options_.metadata->ClearMigration(options_.partition);
  m.completed->Add(1);
  m.duration_us->Record(total.ElapsedMicros());
  return release;
}

Status MigrationDriver::RunSealed(WorldLine source_wl0, WorldLine target_wl0) {
  Version max_installed = kInvalidVersion;
  DPR_RETURN_NOT_OK(options_.source->DrainSealedPartition(
      options_.partition, kDrainChunkOps, &max_installed));
  if (AbortRequested()) return Status::Aborted("migration abort requested");

  DPR_RETURN_NOT_OK(CommitBarrier(max_installed));

  // Fence: if either side shifted world-lines since the seal, the install
  // history straddles a rollback and the target copy cannot be trusted.
  // Same for any failed forward. Checked *after* the barrier so nothing that
  // happened during the (possibly long) cut wait escapes the check.
  if (options_.source->SealForwardFailed(options_.partition)) {
    return Status::Unavailable("a forwarded write failed during migration");
  }
  if (options_.source->dpr_worker() != nullptr &&
      options_.source->dpr_worker()->world_line() != source_wl0) {
    return Status::Aborted("source world-line shifted during migration");
  }
  if (options_.target->dpr_worker() != nullptr &&
      options_.target->dpr_worker()->world_line() != target_wl0) {
    return Status::Aborted("target world-line shifted during migration");
  }
  if (AbortRequested()) return Status::Aborted("migration abort requested");
  return Status::OK();
}

Status MigrationDriver::CommitBarrier(Version max_installed) {
  // Nothing was installed (empty partition, no concurrent writes) or no DPR
  // deployment: there is no recoverability guarantee to wait for.
  if (!options_.get_cut || max_installed == kInvalidVersion) {
    return Status::OK();
  }
  Stopwatch waited;
  for (;;) {
    DprCut cut;
    DPR_RETURN_NOT_OK(options_.get_cut(&cut));
    if (CutVersion(cut, options_.target->id()) >= max_installed) {
      Metrics().barrier_us->Record(waited.ElapsedMicros());
      return Status::OK();
    }
    if (AbortRequested()) return Status::Aborted("migration abort requested");
    if (waited.ElapsedMicros() > kBarrierTimeoutUs) {
      return Status::TimedOut("migration commit barrier: cut never covered "
                              "the installed versions");
    }
    options_.pump();
  }
}

}  // namespace dpr
