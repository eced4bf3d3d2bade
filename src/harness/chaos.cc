#include "harness/chaos.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cut_monitor.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "dpr/cluster_manager.h"
#include "dpr/finder_service.h"
#include "dpr/session.h"
#include "dpr/worker.h"
#include "faster/faster_store.h"
#include "fault/fault_plane.h"
#include "net/inmemory_net.h"
#include "net/tcp_net.h"
#include "obs/metrics.h"

namespace dpr {

// ---------------------------------------------------------------- schedule

std::string ChaosEvent::ToString() const {
  static const char* kNames[] = {"crash",      "double",     "nested",
                                 "coord_crash", "mid_ckpt",  "torn_write",
                                 "write_fail", "slow_fsync", "rpc_error",
                                 "net_drop",   "net_delay",  "partition",
                                 "slow_fsync_ckpt", "migrate",
                                 "migrate_part", "migrate_rb",
                                 "delta-ckpt", "ckpt-storm"};
  std::string out = kNames[static_cast<int>(kind)];
  out += "@" + std::to_string(step) + "(" + std::to_string(a) + "," +
         std::to_string(b) + ")";
  return out;
}

ChaosSchedule ChaosSchedule::Generate(const ChaosOptions& options) {
  ChaosSchedule s;
  s.seed = options.seed;
  // Salted so the schedule stream and the workload stream (same seed) are
  // independent.
  Random rng(Mix64(options.seed) ^ 0x5c4a05ed11ec0deULL);
  const double fk = rng.NextDouble();
  s.finder = fk < 0.40   ? FinderKind::kApprox
             : fk < 0.70 ? FinderKind::kExact
                         : FinderKind::kHybrid;
  s.remote_finder = rng.Bernoulli(0.35);
  if (s.remote_finder) {
    // Rotate the finder link across every production transport. The draw
    // happens only on remote runs so local-finder schedules from older
    // seeds replay byte-identically.
    static constexpr FinderLink kLinks[] = {
        FinderLink::kInMemory, FinderLink::kTcpEpoll, FinderLink::kTcpUring};
    s.finder_link = kLinks[rng.Uniform(3)];
  }
  // A strict draw is a zero cap; the cap is still drawn after it, so the
  // draws that follow (the fault events) are the same for every seed.
  const bool strict = rng.Bernoulli(0.25);
  static constexpr uint64_t kCaps[] = {~0ull, ~0ull, ~0ull, 1, 2, 8};
  s.exception_list_cap = kCaps[rng.Uniform(6)];
  if (strict) s.exception_list_cap = 0;

  using K = ChaosEvent::Kind;
  std::vector<K> kinds = {K::kCrashWorker,  K::kCrashWorker,
                          K::kDoubleFailure, K::kNestedFailure,
                          K::kCoordinatorCrash, K::kMidCheckpointFailure,
                          K::kTornWrite,    K::kWriteFailBurst,
                          K::kSlowFsync,    K::kSlowFsyncDuringCheckpoint,
                          K::kDeltaCheckpoint, K::kCheckpointStorm};
  if (s.remote_finder) {
    // Network and finder-RPC faults only exist on the remote deployment.
    kinds.insert(kinds.end(), {K::kRpcErrorBurst, K::kNetDropBurst,
                               K::kNetDelayBurst, K::kPartitionFinder});
  }
  if (options.workers > 1) {
    // Live migration needs a distinct source and target.
    kinds.insert(kinds.end(), {K::kMigrateRange, K::kMigrateRange,
                               K::kMigrateDuringPartition,
                               K::kMigrateDuringRollback});
  }
  const uint32_t n_events = 3 + static_cast<uint32_t>(rng.Uniform(6));
  for (uint32_t i = 0; i < n_events; ++i) {
    ChaosEvent e;
    e.kind = kinds[rng.Uniform(kinds.size())];
    e.step = static_cast<uint32_t>(rng.Uniform(options.steps));
    e.a = static_cast<uint32_t>(rng.Uniform(options.workers));
    e.b = static_cast<uint32_t>(rng.Uniform(options.workers));
    if ((e.kind == K::kDoubleFailure || e.kind == K::kNestedFailure ||
         e.kind == K::kMigrateRange || e.kind == K::kMigrateDuringPartition ||
         e.kind == K::kMigrateDuringRollback) &&
        options.workers > 1 && e.b == e.a) {
      e.b = (e.a + 1) % options.workers;
    }
    s.events.push_back(e);
  }
  std::sort(s.events.begin(), s.events.end(),
            [](const ChaosEvent& x, const ChaosEvent& y) {
              return std::make_tuple(x.step, static_cast<int>(x.kind), x.a,
                                     x.b) <
                     std::make_tuple(y.step, static_cast<int>(y.kind), y.a,
                                     y.b);
            });
  return s;
}

std::string ChaosSchedule::ToString() const {
  const char* fk = finder == FinderKind::kExact    ? "exact"
                   : finder == FinderKind::kApprox ? "approx"
                                                   : "hybrid";
  const char* link = finder_link == FinderLink::kTcpEpoll   ? "tcp-epoll"
                     : finder_link == FinderLink::kTcpUring ? "tcp-uring"
                                                            : "inmem";
  std::string out = "seed=" + std::to_string(seed) + " finder=" + fk +
                    " remote=" + (remote_finder ? "1" : "0") +
                    " link=" + link + " cap=";
  out += exception_list_cap == ~0ull ? std::string("inf")
                                     : std::to_string(exception_list_cap);
  out += " events=[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += " ";
    out += events[i].ToString();
  }
  out += "]";
  return out;
}

// ------------------------------------------------------------------ runner

namespace {

/// P6, the liveness bound: once the last fault has passed, every session's
/// commit point reaches its last operation within this many drain rounds.
/// The rig has no timers; a round is its unit of time — one checkpoint on
/// every worker (a checkpoint interval) then one finder pass (a finder
/// interval) — so the bound reads K × (checkpoint + finder interval).
constexpr int kLivenessRounds = 4;

/// An executed-but-unacknowledged operation: IssuePending() was called and
/// the response is withheld until a later step (or dropped if a rollback
/// erases the segment first).
struct PendingOp {
  uint32_t session = 0;
  uint64_t start = 0;
  WorkerId worker = kInvalidWorker;
  DprResponseHeader resp;
  WorldLine issued_wl = kInitialWorldLine;
};

/// One surviving write in the shadow history of a (worker, key) pair.
struct ValueWrite {
  Version version = kInvalidVersion;
  uint64_t value = 0;
};

class ChaosRunner {
 public:
  ChaosRunner(const ChaosOptions& options, ChaosReport* report)
      : options_(options),
        schedule_(report->schedule),
        report_(report),
        rng_(Mix64(options.seed) ^ 0x3a05c41c0ffeeULL) {}

  ~ChaosRunner() {
    // workers_ is destroyed before stores_ (reverse declaration order), but
    // each store's flush thread fires its persistence callback into the
    // owning DprWorker. Drain the flush pipelines first —
    // WaitForCheckpoints() returns only after any in-flight callback has
    // completed — so no callback can touch a freed worker.
    for (auto& store : stores_) {
      if (store) store->WaitForCheckpoints();
    }
  }

  Status Setup() {
    metadata_ = std::make_unique<MetadataStore>(
        std::make_unique<MemoryDevice>());
    DPR_RETURN_NOT_OK(metadata_->Recover());
    local_finder_ = MakeDprFinder(
        {.kind = schedule_.finder, .metadata = metadata_.get()});
    plane_ = local_finder_.get();
    if (schedule_.remote_finder) {
      // The schedule picks the finder-link transport; a kTcpUring draw on a
      // kernel without support runs over epoll (the schedule string — the
      // replay contract — is not rewritten, so the seed still replays).
      FinderLink link = schedule_.finder_link;
      if (link == FinderLink::kTcpUring && !NetUringSupported()) {
        fprintf(stderr,
                "[chaos] finder link tcp-uring unsupported on this kernel; "
                "running over tcp-epoll\n");
        link = FinderLink::kTcpEpoll;
      }
      std::unique_ptr<RpcConnection> finder_conn;
      if (link == FinderLink::kInMemory) {
        InMemoryNetOptions net_options;
        net_options.server_threads = 2;
        net_ = std::make_unique<InMemoryNetwork>(net_options);
        finder_server_ = std::make_unique<DprFinderServer>(
            local_finder_.get(), net_->CreateServer("finder"));
        DPR_RETURN_NOT_OK(finder_server_->Start());
        finder_conn = net_->Connect(finder_server_->address());
      } else {
        const NetBackend backend = link == FinderLink::kTcpUring
                                       ? NetBackend::kIoUring
                                       : NetBackend::kEpoll;
        TcpServerOptions server_options;
        server_options.io_threads = 2;
        server_options.executor_threads = 2;
        server_options.backend = backend;
        finder_server_ = std::make_unique<DprFinderServer>(
            local_finder_.get(), MakeTcpServer(0, server_options));
        DPR_RETURN_NOT_OK(finder_server_->Start());
        DPR_RETURN_NOT_OK(ConnectTcp(finder_server_->address(),
                                     TcpClientOptions{backend},
                                     &finder_conn));
      }
      RemoteDprFinderOptions ro;
      ro.flush_interval_us = 1000;
      ro.snapshot_ttl_us = 0;  // exact read-after-report for the checkers
      ro.max_send_attempts = 10;
      ro.retry_backoff_us = 50;
      ro.retry_backoff_max_us = 1000;
      remote_finder_ = std::make_unique<RemoteDprFinder>(
          std::move(finder_conn), ro);
      plane_ = remote_finder_.get();
    }
    manager_ = std::make_unique<ClusterManager>(plane_);
    for (uint32_t i = 0; i < options_.workers; ++i) {
      FasterOptions fo;
      fo.index_buckets = 256;
      // Injection scope for device.* points is the worker id.
      fo.log_device = std::make_unique<FaultDevice>(
          std::make_unique<MemoryDevice>(), /*scope=*/i);
      fo.meta_device = std::make_unique<MemoryDevice>();
      stores_.push_back(std::make_unique<FasterStore>(std::move(fo)));
      DprWorkerOptions wo;
      wo.worker_id = i;
      wo.finder = plane_;
      wo.checkpoint_interval_us = 0;  // commits driven by the workload
      workers_.push_back(
          std::make_unique<DprWorker>(stores_.back().get(), wo));
      DPR_RETURN_NOT_OK(workers_.back()->Start());
      manager_->RegisterWorker(workers_.back().get());
    }
    SessionOptions so;
    so.exception_list_cap = schedule_.exception_list_cap;
    for (uint32_t i = 0; i < options_.sessions; ++i) {
      sessions_.push_back(std::make_unique<DprSession>(i + 1, so));
    }
    last_commit_point_.assign(options_.sessions, 0);
    rolled_back_.assign(options_.sessions, 0);
    session_last_.assign(options_.sessions,
                         WorkerVersion{kInvalidWorker, 0});
    // Baseline escalation hazard: some survivor rollbacks turn into full
    // crash-and-restores mid-recovery (nested double failures, Fig. 16).
    FaultPlane::Instance().Arm({.point = faults::kClusterRollbackCrash,
                                .probability = 0.2,
                                .max_fires = 3});
    return Status::OK();
  }

  Status Run() {
    size_t next_event = 0;
    for (uint32_t step = 0; step < options_.steps; ++step) {
      while (next_event < schedule_.events.size() &&
             schedule_.events[next_event].step <= step) {
        DPR_RETURN_NOT_OK(Apply(schedule_.events[next_event]));
        ++next_event;
      }
      const double roll = rng_.NextDouble();
      if (roll < 0.62) {
        const uint32_t si = static_cast<uint32_t>(
            rng_.Uniform(options_.sessions));
        const WorkerId w = static_cast<WorkerId>(
            rng_.Uniform(options_.workers));
        DPR_RETURN_NOT_OK(
            DoOp(si, w, rng_.Uniform(48), rng_.NextDouble() < 0.3));
      } else if (roll < 0.78) {
        DPR_RETURN_NOT_OK(Commit(static_cast<WorkerId>(
            rng_.Uniform(options_.workers))));
      } else if (roll < 0.92) {
        DPR_RETURN_NOT_OK(CheckCut());
      } else {
        ResolveOne();
      }
    }
    return Drain();
  }

 private:
  Status Violation(std::string msg) {
    report_->violation = "chaos seed=" + std::to_string(schedule_.seed) +
                         ": " + std::move(msg);
    // Failure teardown must not wedge on still-armed faults.
    FaultPlane::Instance().DisarmAll();
    DPR_ERROR("%s", report_->violation.c_str());
    return Status::Corruption(report_->violation);
  }

  /// Runs the recovery protocol for `failed`, riding out injected bursts,
  /// then prunes the shadow state and realigns every session.
  Status Recover(std::vector<WorkerId> failed) {
    Status s;
    for (int attempt = 0; attempt < 80; ++attempt) {
      s = manager_->HandleFailure(failed);
      // IOError is retried too: injected device faults (write-fail bursts)
      // are bounded by max_fires, so rollback eventually goes through.
      if (s.ok() ||
          (!s.IsRetryable() && s.code() != Status::Code::kIOError)) {
        break;
      }
      SleepMicros(200);
    }
    if (!s.ok()) return Violation("recovery failed: " + s.ToString());
    ++report_->recoveries;
    WorldLine wl = kInitialWorldLine;
    DprCut cut;
    manager_->GetRecoveryInfo(&wl, &cut);
    // Rolled-back shadow edges can never commit; drop them.
    for (auto it = shadow_.begin(); it != shadow_.end();) {
      if (it->first.version > CutVersion(cut, it->first.worker)) {
        it = shadow_.erase(it);
      } else {
        ++it;
      }
    }
    // A write at version v survives the rollback iff v <= cut[w]
    // (checkpoint token t covers records with version <= t).
    for (auto& [wk, hist] : history_) {
      const Version cv = CutVersion(cut, wk.first);
      hist.erase(std::remove_if(hist.begin(), hist.end(),
                                [&](const ValueWrite& vw) {
                                  return vw.version > cv;
                                }),
                 hist.end());
    }
    return SyncSessions();
  }

  /// Moves lagging sessions onto the latest world-line, checking P3 (a
  /// surviving prefix never reneges on a previously-reported commit point).
  Status SyncSessions() {
    WorldLine wl = kInitialWorldLine;
    DprCut cut;
    manager_->GetRecoveryInfo(&wl, &cut);
    for (uint32_t si = 0; si < sessions_.size(); ++si) {
      DprSession& session = *sessions_[si];
      if (session.world_line() >= wl) continue;
      const uint64_t issued = session.next_seqno();
      const auto survivors = session.HandleFailure(wl, cut);
      if (survivors.prefix_end < last_commit_point_[si]) {
        return Violation(
            "P3: session " + std::to_string(si) + " reneged: survivors " +
            std::to_string(survivors.prefix_end) + " < reported " +
            std::to_string(last_commit_point_[si]));
      }
      rolled_back_[si] +=
          issued - survivors.prefix_end + survivors.excluded.size();
      last_commit_point_[si] = survivors.prefix_end;
      session_last_[si] = WorkerVersion{kInvalidWorker, 0};
    }
    // Segments of rolled-back world-lines are gone; withheld responses for
    // them must never be replayed into the session.
    pendings_.erase(
        std::remove_if(pendings_.begin(), pendings_.end(),
                       [&](const PendingOp& p) {
                         return sessions_[p.session]->world_line() !=
                                p.issued_wl;
                       }),
        pendings_.end());
    return Status::OK();
  }

  Status Apply(const ChaosEvent& e) {
    if (options_.verbose) {
      DPR_INFO("chaos seed=%llu: applying %s",
               static_cast<unsigned long long>(schedule_.seed),
               e.ToString().c_str());
    }
    FaultPlane& fp = FaultPlane::Instance();
    using K = ChaosEvent::Kind;
    switch (e.kind) {
      case K::kCrashWorker:
        return Recover({e.a});
      case K::kDoubleFailure:
        return Recover({e.a, e.b});
      case K::kNestedFailure:
        DPR_RETURN_NOT_OK(Recover({e.a}));
        return Recover({e.b});
      case K::kCoordinatorCrash:
        local_finder_->SimulateCoordinatorCrash();
        return Status::OK();
      case K::kMidCheckpointFailure:
        // Start a checkpoint and crash before waiting for it: whether the
        // flush landed decides (durably) what the recovery cut contains.
        (void)workers_[e.a]->TryCommit();
        return Recover({e.a});
      case K::kTornWrite:
        fp.Arm({.point = faults::kDevTornWrite,
                .scope = e.a,
                .max_fires = 2});
        return Status::OK();
      case K::kWriteFailBurst:
        fp.Arm({.point = faults::kDevWriteFail,
                .scope = e.a,
                .probability = 0.7,
                .max_fires = 4});
        return Status::OK();
      case K::kSlowFsync:
        fp.Arm({.point = faults::kDevSlowFsync,
                .scope = e.a,
                .max_fires = 3,
                .param = 1500});
        return Status::OK();
      case K::kRpcErrorBurst:
        fp.Arm({.point = faults::kFinderRpcError,
                .probability = 0.8,
                .max_fires = 6});
        return Status::OK();
      case K::kNetDropBurst:
        fp.Arm({.point = faults::kNetDrop,
                .probability = 0.5,
                .max_fires = 8});
        return Status::OK();
      case K::kNetDelayBurst:
        fp.Arm({.point = faults::kNetDelay,
                .probability = 0.5,
                .max_fires = 8,
                .param = 300});
        return Status::OK();
      case K::kPartitionFinder:
        fp.Arm({.point = faults::kNetPartition, .max_fires = 4});
        return Status::OK();
      case K::kSlowFsyncDuringCheckpoint:
        // The checkpoint flush's group-commit fsync hits the armed stall
        // while the workload keeps running — exercising waiters that pile
        // onto the next fsync group behind a slow device.
        fp.Arm({.point = faults::kDevSlowFsync,
                .scope = e.a,
                .max_fires = 3,
                .param = 2000});
        (void)workers_[e.a]->TryCommit();
        return Status::OK();
      case K::kMigrateRange:
        return MigrateRange(e.a, e.b, e.step, /*barrier=*/true);
      case K::kMigrateDuringPartition:
        // The barrier has to make progress (or legally abort) while the
        // tracking plane is unreachable / the source device is failing.
        if (schedule_.remote_finder) {
          fp.Arm({.point = faults::kNetPartition, .max_fires = 4});
        } else {
          fp.Arm({.point = faults::kDevWriteFail,
                  .scope = e.a,
                  .probability = 0.7,
                  .max_fires = 4});
        }
        return MigrateRange(e.a, e.b, e.step, /*barrier=*/true);
      case K::kDeltaCheckpoint:
        // An image checkpoint (a delta unless the store's chain is full or
        // was reset) followed immediately by a crash: the recovery cut may
        // land on the delta, forcing RestoreCheckpoint to walk the chain
        // back to its full base (or fall back to the log scan when the chain
        // is broken — both must reproduce the same store).
        DPR_RETURN_NOT_OK(Commit(e.a));
        return Recover({e.a});
      case K::kCheckpointStorm: {
        // Back-to-back checkpoints racing the workload: grows a long delta
        // chain (the store starts a fresh full image every 16 links) with
        // flush requests piling onto the flush thread. Busy admissions just
        // mean two storm ticks collided.
        for (int i = 0; i < 8; ++i) DPR_RETURN_NOT_OK(Commit(e.a));
        return Status::OK();
      }
      case K::kMigrateDuringRollback:
        // Install without a barrier, then crash the source: the moved
        // records sit uncommitted at the target entangled with the rolled-
        // back source version, so recovery must erase them everywhere (the
        // shadow pruning in Recover() models exactly that).
        DPR_RETURN_NOT_OK(MigrateRange(e.a, e.b, e.step, /*barrier=*/false));
        return Recover({e.a});
    }
    return Status::OK();
  }

  /// Chaos-level model of live migration (DESIGN.md §4i): seal a version
  /// boundary at the source, snapshot a deterministic key range, install it
  /// at the target under DPR admission with the source's sealed version as
  /// both fast-forward target and dependency, then (optionally) run the
  /// commit barrier by committing the target and re-checking the cut. An
  /// admission rejection (world-line shift mid-move, target wedged) abandons
  /// the move with nothing installed — the legal abort path.
  Status MigrateRange(WorkerId a, WorkerId b, uint32_t salt, bool barrier) {
    if (a == b || a >= options_.workers || b >= options_.workers) {
      return Status::OK();
    }
    // Seal: a checkpoint boundary pins the moved snapshot at a stable
    // version on the source. Busy/retryable just means the boundary raced
    // the workload; the snapshot below is still version-consistent.
    Status seal = workers_[a]->TryCommit();
    if (!seal.ok() && !seal.IsBusy() && !seal.IsRetryable()) {
      return Violation("migrate seal: " + seal.ToString());
    }
    stores_[a]->WaitForCheckpoints();
    const Version vs = stores_[a]->CurrentVersion();
    // Deterministic key range: every live key congruent to the salt mod 4.
    std::vector<std::pair<uint64_t, uint64_t>> records;
    stores_[a]->Scan([&](uint64_t key, Slice value) {
      if ((key & 3) != (salt & 3)) return;
      uint64_t v = 0;
      if (value.size() == sizeof(v)) memcpy(&v, value.data(), sizeof(v));
      records.emplace_back(key, v);
    });
    if (records.empty()) return Status::OK();
    // Install under DPR admission: the batch fast-forwards the target to at
    // least vs and entangles the installed records with {a: vs}, so no cut
    // may cover the copies without covering the source version they came
    // from — the invariant P2/P5 then police.
    DprRequestHeader header;
    header.session_id = 0xfeed0000ull + salt;
    header.world_line = workers_[a]->world_line();
    header.version = vs;
    header.deps = {{a, vs}};
    Version vd = kInvalidVersion;
    Status admit;
    for (int attempt = 0; attempt < 100; ++attempt) {
      admit = workers_[b]->BeginBatch(header, &vd);
      if (admit.ok() || !admit.IsRetryable()) break;
      SleepMicros(100);
    }
    // Aborted (world-line fence) or still-wedged target: the migration is
    // abandoned with nothing installed. That is a legal outcome, not a
    // violation — the checkers verify nothing leaked.
    if (!admit.ok()) return Status::OK();
    {
      auto store_session = stores_[b]->NewSession();
      for (const auto& [key, value] : records) {
        Status us = store_session->Upsert(key, value);
        if (!us.ok()) {
          workers_[b]->EndBatch();
          return Violation("migrate install: " + us.ToString());
        }
      }
    }
    workers_[b]->EndBatch();
    MergeDependency(&shadow_[WorkerVersion{b, vd}], WorkerVersion{a, vs});
    for (const auto& [key, value] : records) {
      history_[{b, key}].push_back(ValueWrite{vd, value});
    }
    if (!barrier) return Status::OK();
    // Commit barrier: the move only counts once a cut covers the installed
    // version. Committing the target and re-checking the cut is the chaos
    // equivalent of MigrationDriver::CommitBarrier.
    DPR_RETURN_NOT_OK(Commit(b));
    return CheckCut();
  }

  Status DoOp(uint32_t si, WorkerId w, uint64_t key, bool withhold) {
    DprSession& session = *sessions_[si];
    if (session.needs_failure_handling()) {
      DPR_RETURN_NOT_OK(SyncSessions());
    }
    DprRequestHeader header = session.MakeHeader();
    Version version = kInvalidVersion;
    Status admit = workers_[w]->BeginBatch(header, &version);
    if (!admit.ok()) {
      // Rejected batches commit vacuously; the rejection response still
      // carries the worker's world-line so the session notices failures.
      DprResponseHeader reject;
      workers_[w]->FillResponse(
          header, kInvalidVersion,
          admit.IsAborted() ? DprResponseHeader::BatchStatus::kWorldLineShift
                            : DprResponseHeader::BatchStatus::kRetryLater,
          &reject);
      DprResponseHeader vacuous;
      session.RecordBatch(w, 1, vacuous);
      session.Observe(reject);
      return Status::OK();
    }
    const uint64_t value = ++value_counter_;
    {
      auto store_session = stores_[w]->NewSession();
      Status us = store_session->Upsert(key, value);
      if (!us.ok()) {
        workers_[w]->EndBatch();
        return Violation("admitted upsert failed: " + us.ToString());
      }
    }
    workers_[w]->EndBatch();
    DprResponseHeader resp;
    workers_[w]->FillResponse(header, version,
                              DprResponseHeader::BatchStatus::kOk, &resp);
    history_[{w, key}].push_back(ValueWrite{version, value});
    const WorkerVersion now{w, version};
    if (session_last_[si].worker != kInvalidWorker &&
        !(session_last_[si] == now)) {
      MergeDependency(&shadow_[now], session_last_[si]);
    }
    if (withhold) {
      // Relaxed DPR: ops after a PENDING one do not depend on it
      // (IssuePending adds no dependency until the response is resolved),
      // so a withheld op must not become the source of shadow edges.
      const uint64_t start = session.IssuePending(w, 1);
      pendings_.push_back(
          PendingOp{si, start, w, resp, session.world_line()});
    } else {
      session_last_[si] = now;
      session.RecordBatch(w, 1, resp);
    }
    ++report_->ops;
    return Status::OK();
  }

  void ResolveOne() {
    if (pendings_.empty()) return;
    const size_t idx = rng_.Uniform(pendings_.size());
    const PendingOp p = pendings_[idx];
    pendings_.erase(pendings_.begin() + idx);
    if (sessions_[p.session]->world_line() != p.issued_wl) return;
    sessions_[p.session]->ResolvePending(p.start, p.resp);
  }

  Status Commit(WorkerId w) {
    // Image checkpoints, as the tick loop takes them: the store chains
    // deltas on a full image, so crash events land on every chain position.
    Status s = workers_[w]->TryCommit(0, CheckpointHints{.index_image = true});
    if (!s.ok() && !s.IsBusy() && !s.IsRetryable()) {
      return Violation("TryCommit: " + s.ToString());
    }
    stores_[w]->WaitForCheckpoints();
    ++report_->commits;
    return Status::OK();
  }

  void Ping(uint32_t si, WorkerId w) {
    DprSession& session = *sessions_[si];
    DprRequestHeader header = session.MakeHeader();
    Version version = kInvalidVersion;
    if (workers_[w]->BeginBatch(header, &version).ok()) {
      workers_[w]->EndBatch();
      DprResponseHeader resp;
      workers_[w]->FillResponse(header, version,
                                DprResponseHeader::BatchStatus::kOk, &resp);
      session.Observe(resp);
    }
  }

  /// Advances the cut through the deployed tracking plane, then checks
  /// P2 (dependency closure vs the shadow graph) and P1 (monotone commit
  /// points per session).
  Status CheckCut() {
    Status cs;
    for (int attempt = 0; attempt < 64; ++attempt) {
      cs = plane_->ComputeCut();
      if (cs.ok() || !cs.IsRetryable()) break;
      SleepMicros(100);
    }
    if (!cs.ok()) return Violation("ComputeCut: " + cs.ToString());
    DprCut cut;
    local_finder_->GetCut(nullptr, &cut);
    // P5: per-worker cut entries never regress — across checkpoints,
    // recoveries, coordinator crashes, and migration barriers alike. A
    // regression would renege on a guarantee some client already observed.
    Status p5 = cut_monitor_.Observe(cut);
    if (!p5.ok()) return Violation(p5.ToString());
    for (const auto& [wv, deps] : shadow_) {
      if (wv.version > CutVersion(cut, wv.worker)) continue;
      for (const auto& [dw, dv] : deps) {
        if (dv > CutVersion(cut, dw)) {
          std::string dump = " [cut:";
          for (const auto& [cw, cv] : cut) {
            dump += " " + std::to_string(cw) + "=" + std::to_string(cv);
          }
          dump += " rows:";
          for (const auto& [rw, rv] : metadata_->GetPersistedVersions()) {
            dump += " " + std::to_string(rw) + "=" + std::to_string(rv);
          }
          dump += "]";
          return Violation(
              "P2: cut includes " + std::to_string(wv.worker) + "-v" +
              std::to_string(wv.version) + " but not its dependency " +
              std::to_string(dw) + "-v" + std::to_string(dv) + dump);
        }
      }
    }
    return CheckCommitPoints();
  }

  Status CheckCommitPoints() {
    for (uint32_t si = 0; si < sessions_.size(); ++si) {
      if (sessions_[si]->needs_failure_handling()) {
        DPR_RETURN_NOT_OK(SyncSessions());
      }
      for (WorkerId w = 0; w < options_.workers; ++w) Ping(si, w);
      const uint64_t point = sessions_[si]->GetCommitPoint().prefix_end;
      if (point < last_commit_point_[si]) {
        return Violation("P1: session " + std::to_string(si) +
                         " commit point regressed " +
                         std::to_string(last_commit_point_[si]) + " -> " +
                         std::to_string(point));
      }
      last_commit_point_[si] = point;
    }
    return Status::OK();
  }

  /// True once `si`'s commit point covers every op it issued (rolled-back
  /// ops count as accounted for).
  bool SessionDrained(uint32_t si) {
    const auto point = sessions_[si]->GetCommitPoint();
    // Rolled-back ops can be double-counted when the prefix later jumps
    // their seqno gap, hence >=.
    return point.prefix_end + rolled_back_[si] >=
               sessions_[si]->next_seqno() &&
           point.excluded.empty();
  }

  /// What a P6 violation prints: how long the cut has been stuck, each
  /// worker's cut entry against its published watermark, and the lagging
  /// sessions.
  std::string LivenessDiagnosis() {
    DprCut cut;
    local_finder_->GetCut(nullptr, &cut);
    std::string out =
        " [dpr.finder.cut_age_us=" +
        std::to_string(MetricsRegistry::Default()
                           .gauge("dpr.finder.cut_age_us")
                           ->value()) +
        " workers:";
    for (WorkerId w = 0; w < options_.workers; ++w) {
      out += " " + std::to_string(w) + "(cut=" +
             std::to_string(CutVersion(cut, w)) + " watermark=" +
             std::to_string(workers_[w]->persisted_watermark()) + ")";
    }
    out += "]";
    for (uint32_t si = 0; si < sessions_.size(); ++si) {
      if (!SessionDrained(si)) out += "\n" + sessions_[si]->DebugString();
    }
    return out;
  }

  /// P4 + P6 + value check: with faults disarmed, every operation must
  /// become accounted for (committed or rolled back) — eventually (P4) and
  /// within kLivenessRounds (P6) — and every store must hold exactly the
  /// last surviving write per key.
  Status Drain() {
    report_->fault_report = FaultPlane::Instance().ReportString();
    FaultPlane::Instance().DisarmAll();
    for (const PendingOp& p : pendings_) {
      if (sessions_[p.session]->world_line() == p.issued_wl) {
        sessions_[p.session]->ResolvePending(p.start, p.resp);
      }
    }
    pendings_.clear();

    bool done = false;
    int round = 0;
    std::string diagnosis;
    for (; round < 300 && !done; ++round) {
      if (round == kLivenessRounds) diagnosis = LivenessDiagnosis();
      for (WorkerId w = 0; w < options_.workers; ++w) {
        DPR_RETURN_NOT_OK(Commit(w));
      }
      DPR_RETURN_NOT_OK(CheckCut());
      done = true;
      for (uint32_t si = 0; si < sessions_.size(); ++si) {
        done = done && SessionDrained(si);
      }
    }
    if (!done) {
      return Violation("P4: operations never fully accounted for" +
                       LivenessDiagnosis());
    }
    if (round > kLivenessRounds) {
      return Violation("P6: commits resumed only after " +
                       std::to_string(round) + " drain rounds (bound " +
                       std::to_string(kLivenessRounds) + ")" + diagnosis);
    }

    for (uint32_t w = 0; w < options_.workers; ++w) {
      auto reader = stores_[w]->NewSession();
      for (const auto& [wk, hist] : history_) {
        if (wk.first != w) continue;
        uint64_t got = 0;
        Status rs = reader->Read(wk.second, &got);
        if (hist.empty()) {
          if (!rs.IsNotFound()) {
            return Violation("value: rolled-back key " +
                             std::to_string(wk.second) + " resurfaced on " +
                             "worker " + std::to_string(w) + " (" +
                             rs.ToString() + ")");
          }
        } else if (!rs.ok()) {
          return Violation("value: surviving key " +
                           std::to_string(wk.second) + " missing on worker " +
                           std::to_string(w) + ": " + rs.ToString());
        } else if (got != hist.back().value) {
          return Violation(
              "value: worker " + std::to_string(w) + " key " +
              std::to_string(wk.second) + " holds " + std::to_string(got) +
              ", expected surviving write " +
              std::to_string(hist.back().value) +
              " (pre-/post-recovery state mixed)");
        }
      }
    }
    return Status::OK();
  }

  const ChaosOptions& options_;
  const ChaosSchedule& schedule_;
  ChaosReport* report_;
  Random rng_;

  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> local_finder_;
  std::unique_ptr<InMemoryNetwork> net_;
  std::unique_ptr<DprFinderServer> finder_server_;
  std::unique_ptr<RemoteDprFinder> remote_finder_;
  DprFinder* plane_ = nullptr;
  std::unique_ptr<ClusterManager> manager_;
  std::vector<std::unique_ptr<FasterStore>> stores_;
  std::vector<std::unique_ptr<DprWorker>> workers_;
  std::vector<std::unique_ptr<DprSession>> sessions_;

  std::vector<uint64_t> last_commit_point_;
  std::vector<uint64_t> rolled_back_;
  CutMonotonicityChecker cut_monitor_;
  std::vector<WorkerVersion> session_last_;
  std::map<WorkerVersion, DependencySet> shadow_;
  std::map<std::pair<uint32_t, uint64_t>, std::vector<ValueWrite>> history_;
  std::vector<PendingOp> pendings_;
  uint64_t value_counter_ = 0;
};

}  // namespace

Status RunChaos(const ChaosOptions& options, ChaosReport* report) {
  DPR_CHECK(report != nullptr);
  *report = ChaosReport{};
  report->schedule = ChaosSchedule::Generate(options);
  // Always print the seed: any failure below is replayable from this line.
  fprintf(stderr, "[chaos] %s\n", report->schedule.ToString().c_str());
  ScopedFaultPlane plane(options.seed);
  ChaosRunner runner(options, report);
  DPR_RETURN_NOT_OK(runner.Setup());
  return runner.Run();
}

}  // namespace dpr
