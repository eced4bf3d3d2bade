#ifndef DPR_HARNESS_CHAOS_H_
#define DPR_HARNESS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dpr/finder.h"

namespace dpr {

/// Knobs for one chaos run. Everything that varies between runs is derived
/// from `seed`; the remaining fields size the rig and the workload.
struct ChaosOptions {
  uint64_t seed = 1;
  uint32_t workers = 3;
  uint32_t sessions = 4;
  /// Workload steps per run. --quick mode uses the default; soak runs crank
  /// it up.
  uint32_t steps = 300;
  /// Log the schedule and every applied event to stderr.
  bool verbose = false;
};

/// One scheduled fault. `step` is the workload step at which it is applied;
/// `a`/`b` are operands (worker ids for crash-style events, unused
/// otherwise).
struct ChaosEvent {
  enum class Kind : uint8_t {
    kCrashWorker,          // fail worker a, run recovery
    kDoubleFailure,        // fail workers a and b in one recovery (Fig. 16)
    kNestedFailure,        // fail a, recover, immediately fail b (nested)
    kCoordinatorCrash,     // finder loses its in-memory state (§3.4)
    kMidCheckpointFailure, // start a checkpoint on a, crash before it lands
    kTornWrite,            // arm device.torn_write on worker a's log device
    kWriteFailBurst,       // arm device.write_fail on worker a's log device
    kSlowFsync,            // arm device.slow_fsync on worker a's log device
    kRpcErrorBurst,        // arm finder.rpc_error (remote finder only)
    kNetDropBurst,         // arm net.drop on the finder link (remote only)
    kNetDelayBurst,        // arm net.delay on the finder link (remote only)
    kPartitionFinder,      // arm net.partition on the finder link (remote)
    kSlowFsyncDuringCheckpoint,  // arm device.slow_fsync on worker a's log
                                 // device, then start a checkpoint at once:
                                 // the flush's group-commit fsync stalls
                                 // while the workload keeps issuing ops
    kMigrateRange,          // live-migrate a key range a -> b: seal at a,
                            // install at b entangled with a's version, then
                            // run the DPR commit barrier (cut must cover the
                            // installed version before the move counts)
    kMigrateDuringPartition,  // same, but with the finder link partitioned
                              // (remote) or a's device failing writes
                              // (local) while the barrier runs
    kMigrateDuringRollback,   // migrate a -> b, then crash a before the
                              // barrier: the world-line fence must abandon
                              // the move and the installed (uncommitted)
                              // records must roll back at b
    kDeltaCheckpoint,      // commit an index-image checkpoint on a (the
                           // store chains it as a delta), then crash a:
                           // recovery must restore over the delta chain,
                           // not just the newest full image
    kCheckpointStorm,      // burst of rapid image checkpoints on a, racing
                           // the workload — long chains, back-to-back
                           // flushes, and the cadence paths under pressure
  };
  Kind kind = Kind::kCrashWorker;
  uint32_t step = 0;
  uint32_t a = 0;
  uint32_t b = 0;

  std::string ToString() const;
};

/// Which transport carries the worker<->finder link on remote_finder runs.
/// Seed-derived so chaos coverage rotates across every production backend;
/// a kernel without io_uring support runs kTcpUring schedules over epoll
/// (logged, but the schedule string — the replay contract — is unchanged).
enum class FinderLink : uint8_t {
  kInMemory = 0,
  kTcpEpoll = 1,
  kTcpUring = 2,
};

/// A fully-determined chaos run: rig shape plus the ordered fault schedule.
/// Generate() is a pure function of ChaosOptions (in particular of the
/// seed) — regenerating from the same seed yields a byte-identical
/// ToString(), which is the replay contract chaos_test verifies.
struct ChaosSchedule {
  uint64_t seed = 0;
  FinderKind finder = FinderKind::kApprox;
  /// Deploy the tracking plane behind a DprFinderServer reached through a
  /// batching RemoteDprFinder over the transport in `finder_link`.
  bool remote_finder = false;
  FinderLink finder_link = FinderLink::kInMemory;
  uint64_t exception_list_cap = ~0ull;
  std::vector<ChaosEvent> events;  // sorted by (step, kind, a, b)

  static ChaosSchedule Generate(const ChaosOptions& options);
  std::string ToString() const;
};

/// What a run did and whether the checkers stayed green.
struct ChaosReport {
  ChaosSchedule schedule;
  uint64_t ops = 0;         // client operations that were admitted
  uint64_t commits = 0;     // checkpoints triggered by the workload
  uint64_t recoveries = 0;  // recovery sequences run
  /// FaultPlane::ReportString() at teardown: per-point hit/fire counters.
  std::string fault_report;
  /// Empty when every invariant held; otherwise the first violation, with
  /// the seed embedded so the failure can be replayed.
  std::string violation;
};

/// Runs one seeded chaos schedule end to end: builds a D-FASTER rig shaped
/// by the schedule, applies the fault schedule while driving a random
/// multi-session workload, and validates the DPR invariants throughout
/// (monotone commit points, dependency-closed cuts, no reneged guarantees,
/// bounded-time progress after faults stop, and value-level prefix
/// consistency against a shadow history). Prints the seed at start so any
/// failure is replayable. Returns OK iff no invariant was violated;
/// the violation (if any) is also in `report->violation`.
Status RunChaos(const ChaosOptions& options, ChaosReport* report);

}  // namespace dpr

#endif  // DPR_HARNESS_CHAOS_H_
