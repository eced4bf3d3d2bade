#ifndef DPR_DFASTER_CLIENT_H_
#define DPR_DFASTER_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "dfaster/protocol.h"
#include "dfaster/worker.h"
#include "dpr/cluster_manager.h"
#include "dpr/session.h"
#include "metadata/metadata_store.h"
#include "net/rpc.h"
#include "workload/ycsb.h"

namespace dpr {

struct DFasterClientConfig {
  uint32_t num_workers = 1;
  /// b: ops accumulated per worker before a batch is sent (paper §7.1).
  uint32_t batch_size = 64;
  /// w: max outstanding (sent, unresponded) ops; issuing blocks beyond it.
  uint32_t window = 1024;
  /// Recovery-info source for failure handling (in-process deployments).
  ClusterManager* cluster_manager = nullptr;
  /// Ownership-table source; when set, kNotOwner responses trigger a cache
  /// refresh and transparent re-routing of the affected ops (paper 5.3).
  MetadataStore* metadata = nullptr;
  /// Elastic membership (DESIGN.md §4i): opens a connection to a worker the
  /// client has no endpoint for yet. When the ownership table routes a key
  /// to an unknown worker (it joined after this client was created), the
  /// client resolves the endpoint lazily instead of failing the op. May
  /// return nullptr for an id that does not exist (yet).
  std::function<std::unique_ptr<RpcConnection>(WorkerId)> connect_worker;
};

/// Client-side D-FASTER library: owns the routing table (hash partitioning,
/// §5.3), connections to remote workers, and direct pointers to co-located
/// workers (shared-memory execution, §5.2). Thread-safe; sessions are not —
/// use one session per application thread.
class DFasterClient {
 public:
  explicit DFasterClient(DFasterClientConfig config);
  ~DFasterClient();

  void AddRemoteWorker(WorkerId id, std::unique_ptr<RpcConnection> conn);
  void AddLocalWorker(DFasterWorker* worker);

  class Session;
  std::unique_ptr<Session> NewSession(uint64_t session_id);

  /// Worker currently routed for `key` per the cached ownership view.
  WorkerId RouteOf(uint64_t key) const;

  /// Re-reads the ownership table from the metadata service (clients cache
  /// it and only consult the service when changes occur, paper 5.3).
  void RefreshOwnership();

  /// Every worker this client can currently reach or route to: union of the
  /// endpoint registry and the routing table. Grows as ownership moves to
  /// workers that joined after the client was created.
  std::vector<WorkerId> KnownWorkers() const;

  const DFasterClientConfig& config() const { return config_; }

 private:
  friend class Session;

  /// Connection for `worker`, resolving lazily through connect_worker when
  /// the endpoint is unknown. nullptr when unresolvable. The returned
  /// pointer stays valid for the client's lifetime (endpoints are never
  /// removed).
  RpcConnection* Connection(WorkerId worker);
  DFasterWorker* Local(WorkerId worker) const;

  /// Runs `fn` after `delay_us` on the client's timer thread (started
  /// lazily). Transport response callbacks must not block their delivery
  /// thread — with the io_uring client every connection in the process
  /// shares one loop thread, so a SleepMicros inside a callback stalls all
  /// client traffic (including the finder reports recovery depends on).
  /// Batch retries and re-routes schedule themselves here instead.
  void RunAfter(uint64_t delay_us, std::function<void()> fn);

  DFasterClientConfig config_;
  // Endpoint registry: connections and co-located workers, keyed by id.
  // Guarded so lazy connects racing request threads are safe; entries are
  // never removed, so raw pointers handed out stay valid.
  mutable Mutex endpoints_mu_{LockRank::kClientEndpoints,
                              "dfaster.client.endpoints"};
  std::map<WorkerId, std::unique_ptr<RpcConnection>> remote_
      GUARDED_BY(endpoints_mu_);
  std::map<WorkerId, DFasterWorker*> local_ GUARDED_BY(endpoints_mu_);
  // Cached routing table, partition -> worker, read on every issued op.
  // relaxed: each entry is a routing hint that reaches no other memory; an
  // op routes on one entry alone, and a stale one is corrected by the
  // worker's kNotOwner answer and a refresh.
  std::array<std::atomic<WorkerId>, YcsbWorkload::kNumPartitions> routes_;

  void TimerLoop();

  struct DelayedTask {
    uint64_t due_us;
    std::function<void()> fn;
  };
  mutable Mutex timer_mu_{LockRank::kClientTimer, "dfaster.client.timer"};
  CondVar timer_cv_;
  std::vector<DelayedTask> timer_queue_ GUARDED_BY(timer_mu_);
  bool timer_stop_ GUARDED_BY(timer_mu_) = false;
  std::thread timer_thread_ GUARDED_BY(timer_mu_);
};

/// A client session: batched, windowed, asynchronous single-key operations
/// with DPR tracking (libDPR client side). Every batch is numbered when it
/// is issued and resolved when its response arrives (relaxed DPR); a
/// co-located worker answers in place through shared memory, a remote one
/// over its connection.
class DFasterClient::Session {
 public:
  using OpCallback = std::function<void(KvResult, uint64_t value)>;

  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Async ops; `callback` (optional) fires on completion, possibly on a
  /// transport thread. Ops buffer until batch_size accumulates for the
  /// target worker; call Flush() to force dispatch of partial batches.
  void Read(uint64_t key, OpCallback callback = nullptr);
  void Upsert(uint64_t key, uint64_t value, OpCallback callback = nullptr);
  void Rmw(uint64_t key, uint64_t delta, OpCallback callback = nullptr);
  void Delete(uint64_t key, OpCallback callback = nullptr);

  /// Dispatches all partially-filled batches.
  void Flush();

  /// Blocks until every dispatched op has a response (CompletePending).
  Status WaitForAll(uint64_t timeout_ms = 30000);

  /// Blocks until everything issued so far is covered by a DPR guarantee
  /// (the traditional durable-store experience, paper §2).
  Status WaitForCommit(uint64_t timeout_ms = 30000);

  /// True once a response revealed a failure (newer world-line).
  bool needs_failure_handling() const {
    return dpr_session_.needs_failure_handling();
  }

  /// Fetches the recovery cut from the cluster manager, computes the
  /// surviving prefix (returned via `survivors`), and moves the session onto
  /// the new world-line so it can continue operating.
  Status RecoverFromFailure(DprSession::CommitPoint* survivors);

  DprSession& dpr() { return dpr_session_; }

  uint64_t ops_issued() const { return ops_issued_; }
  uint64_t ops_failed() const {
    return ops_failed_.load(std::memory_order_relaxed);
  }

 private:
  friend class DFasterClient;
  Session(DFasterClient* client, uint64_t session_id);

  struct PendingBatch {
    std::vector<KvOp> ops;
    std::vector<OpCallback> callbacks;
    int reroute_attempts = 0;
    uint64_t start_seqno = 0;  // set by SendBatch (IssuePending)
    int attempt = 0;           // kRetryLater resends so far
  };

  void Issue(KvOp op, OpCallback callback);
  void Dispatch(WorkerId worker);
  /// Issues a batch whose window slots are already reserved: numbers its
  /// ops (IssuePending) and sends it.
  void SendBatch(WorkerId worker, PendingBatch batch);
  /// One attempt: a co-located worker executes the batch in place, a remote
  /// one gets it encoded over its connection. Either way the outcome goes to
  /// OnResponse.
  void Exchange(WorkerId worker, std::shared_ptr<PendingBatch> batch);
  /// Schedules a kRetryLater resend, or resolves the batch in the session
  /// and finishes it. `delivered` is false when no response arrived.
  void OnResponse(WorkerId worker, std::shared_ptr<PendingBatch> batch,
                  bool delivered, const KvBatchResponse& resp);
  /// Completes `batch`: calls back every finished op, releases its window
  /// slots and schedules kNotOwner re-routes. `resp` is null when the batch
  /// failed. Takes it by reference: re-routed ops' callbacks are moved out.
  void FinishBatch(PendingBatch& batch, const KvBatchResponse* resp);
  /// Empty batch whose response refreshes the session's cut; true when the
  /// worker answered with kOk.
  bool SendPing(WorkerId worker);

  DFasterClient* client_;
  DprSession dpr_session_;
  std::map<WorkerId, PendingBatch> building_;  // app-thread only
  uint64_t ops_issued_ = 0;
  // relaxed: failure stat bumped on transport callbacks, read for reporting.
  std::atomic<uint64_t> ops_failed_{0};

  Mutex mu_{LockRank::kClientWindow, "dfaster.client.window"};
  CondVar window_cv_;
  uint64_t outstanding_ GUARDED_BY(mu_) = 0;
};

}  // namespace dpr

#endif  // DPR_DFASTER_CLIENT_H_
