#ifndef DPR_COMMON_SYNC_H_
#define DPR_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

/// Compile-time concurrency-correctness plane.
///
/// Two cooperating layers live here:
///
///  1. Clang thread-safety annotations (the canonical macro set from
///     https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under clang
///     with -Wthread-safety (cmake -DDPR_ANALYZE=ON) every GUARDED_BY field
///     access and REQUIRES contract is checked at compile time; under other
///     compilers the macros expand to nothing and cost nothing.
///
///  2. A runtime lock-rank checker. Every dpr::Mutex/SharedMutex/SpinLatch
///     may carry a LockRank; a thread must acquire ranked locks in strictly
///     decreasing rank order (outermost subsystem first). An inversion — the
///     seed of a potential deadlock cycle — aborts immediately with the
///     acquisition stacks of both locks involved, turning "deadlocks if the
///     timing is unlucky" into a deterministic test failure. Unranked locks
///     (LockRank::kNone) skip the checker entirely and cost nothing.
///
/// All new code must use these wrappers; dprlint's `sync-prim` check (run
/// by scripts/check_analysis.sh and `ctest -L analysis`) rejects naked
/// std::mutex / std::lock_guard outside this header.

// --- thread-safety annotation macros ----------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define DPR_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define DPR_TS_ATTRIBUTE__(x)  // no-op outside clang
#endif

#define CAPABILITY(x) DPR_TS_ATTRIBUTE__(capability(x))
#define SCOPED_CAPABILITY DPR_TS_ATTRIBUTE__(scoped_lockable)
#define GUARDED_BY(x) DPR_TS_ATTRIBUTE__(guarded_by(x))
#define PT_GUARDED_BY(x) DPR_TS_ATTRIBUTE__(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) DPR_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) DPR_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))
#define REQUIRES(...) DPR_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DPR_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) DPR_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DPR_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DPR_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DPR_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  DPR_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  DPR_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  DPR_TS_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) DPR_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) DPR_TS_ATTRIBUTE__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  DPR_TS_ATTRIBUTE__(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) DPR_TS_ATTRIBUTE__(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  DPR_TS_ATTRIBUTE__(no_thread_safety_analysis)

namespace dpr {

// --- lock ranks -------------------------------------------------------------

/// Global lock-acquisition order, outermost first. A thread holding a lock of
/// rank R may only acquire locks of rank strictly less than R (kNone-ranked
/// locks are exempt). Two locks that can nest must therefore carry distinct
/// ranks; locks that never nest with anything may share a band or stay
/// unranked. The table mirrors the call structure documented in DESIGN.md §4f.
enum class LockRank : int {
  kNone = 0,  // unranked: checker skips this lock entirely

  // Leaf utilities — safe to take under anything.
  kObs = 20,            // obs::MetricsRegistry
  kFinderPublish = 24,  // finder's last published cut (leaf: held only to
                        // copy it in or out)
  kFault = 40,          // FaultPlane probe table
  kStorageIoWait = 44,  // stack SyncWaiter of SyncIo::Write/Read (taken by
                        // completion callbacks under any storage lock)
  kStorageEngine = 46,  // IoEngine submission queues / SQ tail (leaf-most
                        // storage lock: devices submit while holding kStorage)
  kStorage = 50,        // Device (leaf below consumers, above the engine)
  kStorageGroupCommit = 52,  // a sync root's group-commit state (taken by
                             // SyncIo::Fsync under kStorageWal or kMetadata,
                             // and by its completion; released before the
                             // leader calls Device::SubmitFsync)
  kStorageWal = 55,     // WriteAheadLog tail (held across device writes)
  kExecutor = 58,       // shared request executor queue (submitted to while
                        // holding transport locks, never the reverse)
  kTransport = 60,      // tcp/in-memory transports (output queues, pending)
  kTransportLoop = 62,  // event-loop post queue + server conn registry (may
                        // precede per-conn kTransport locks on loop threads)
  kMetadata = 70,       // MetadataStore

  // DPR tracking plane.
  kDepTracker = 80,     // VersionDependencyTracker shard latches
  kSession = 100,       // DprSession
  kHarnessTopology = 105,  // harness cluster address/migration registries
                           // (taken under kClientEndpoints by the client's
                           // lazy-connect resolver; connects under it take
                           // only transport locks)
  kClientEndpoints = 108,  // dfaster client endpoint/connection registry
                           // (leaf: never nested with window/session locks)
  kClientTimer = 109,   // dfaster client retry-timer queue (leaf: taken with
                        // no other lock held — by transport callbacks
                        // scheduling retries and by the timer thread; tasks
                        // themselves run outside the lock)
  kClientWindow = 110,  // dredis/dfaster client pending-window locks

  // Finder plane (FinderCore: gate > compute > stage; remote: flush > queue
  // > snapshot — the two families never nest with each other).
  kFinderSnapshot = 112,
  kFinderStage = 114,
  kFinderQueue = 116,
  kFinderCompute = 118,
  kFinderIngestGate = 120,
  kFinderFlush = 122,

  // Store plane (flush pipeline may consult the checkpoint table).
  kStoreLog = 136,        // LogAllocator page table
  kStoreCheckpoints = 138,
  kStoreFlush = 142,      // flush/save pipeline locks, store maps

  // Worker / server plane.
  kMigrationChannel = 143,  // migration channel (acquired under
                            // kMigrationSeal to hand a batch to the RPC
                            // connection)
  kMigrationSeal = 145,  // per-partition seal state during live migration:
                         // serializes forwarded writes with drain chunks.
                         // Below kWorkerVersionLatch (taken while executing a
                         // batch under the shared latch), above store locks.
  kCkptLoop = 148,  // checkpoint tick loop sleep (src/ckpt/)
  kWorkerVersionLatch = 150,  // held across store checkpoints + finder reads
  kServer = 170,              // dredis/dfaster/resp server request locks

  // Cluster control plane — outermost; held across whole worker rollbacks.
  kClusterMembers = 190,
  kClusterRecovery = 200,
};

namespace lockrank {

/// Per-thread bookkeeping hooks, called by the wrappers below (and by the
/// annotated spin latches in common/latch.h). `lock` is an identity key;
/// `name` must outlive the lock (string literals only). OnAcquire aborts the
/// process on a rank inversion, printing the acquisition stack of the
/// youngest conflicting held lock alongside the current stack.
void OnAcquire(const void* lock, LockRank rank, const char* name);
void OnRelease(const void* lock, LockRank rank);

/// Number of ranked locks the calling thread currently holds (test hook).
int HeldCount();
/// Smallest rank currently held by the calling thread, or INT_MAX (test hook).
int MinHeldRank();

/// Acquisition stacks are recorded per held lock only when
/// DPR_LOCKRANK_STACKS=1 is in the environment (unwinding on every ranked
/// acquire is too slow for hot paths); the inversion report always includes
/// the *current* stack. Returns whether capture is enabled (test hook).
bool StacksEnabled();

}  // namespace lockrank

// --- mutex wrappers ---------------------------------------------------------

/// Annotated std::mutex with an optional lock rank. Exposes both Google-style
/// Lock()/Unlock() and BasicLockable lock()/unlock() so std::unique_lock and
/// CondVar interoperate (the lowercase aliases keep the rank bookkeeping).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::OnAcquire(this, rank_, name_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    // Rank bookkeeping strictly BEFORE the underlying release: the moment
    // mu_.unlock() returns, a woken waiter may destroy this Mutex (the
    // ~Session/WaitForAll pattern), so no member may be touched after it.
    lockrank::OnRelease(this, rank_);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A successful try-lock joins the held set like any acquire; a try-lock
    // that *would* invert ranks is still an ordering bug (the failure path
    // just hid it), so it checks too.
    lockrank::OnAcquire(this, rank_, name_);
    return true;
  }

  // BasicLockable / Lockable, for std::unique_lock<dpr::Mutex> and CondVar.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_ = LockRank::kNone;
  const char* const name_ = "mutex";
};

/// Annotated std::shared_mutex. Shared and exclusive acquisitions follow the
/// same rank discipline (a reader can participate in a deadlock cycle with a
/// writer just as easily as two writers can).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank, const char* name = "shared_mutex")
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::OnAcquire(this, rank_, name_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    // Bookkeeping before the release — see Mutex::Unlock.
    lockrank::OnRelease(this, rank_);
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockrank::OnAcquire(this, rank_, name_);
    return true;
  }
  void LockShared() ACQUIRE_SHARED() {
    lockrank::OnAcquire(this, rank_, name_);
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    // Bookkeeping before the release — see Mutex::Unlock.
    lockrank::OnRelease(this, rank_);
    mu_.unlock_shared();
  }
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lockrank::OnAcquire(this, rank_, name_);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_ = LockRank::kNone;
  const char* const name_ = "shared_mutex";
};

// --- scoped guards ----------------------------------------------------------

/// RAII exclusive guard over dpr::Mutex (the std::lock_guard replacement).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive guard over dpr::SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared guard over dpr::SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// --- condition variable -----------------------------------------------------

/// Annotated condition variable bound to dpr::Mutex. Built on
/// condition_variable_any so waits go through Mutex::lock()/unlock() and the
/// lock-rank bookkeeping stays exact across the wait's release/reacquire.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu, std::move(pred));
  }

  /// Returns false on timeout.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, timeout);
  }

  /// Returns pred()'s value at wakeup (false = timed out with pred false).
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Pred pred) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, timeout, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace dpr

#endif  // DPR_COMMON_SYNC_H_
