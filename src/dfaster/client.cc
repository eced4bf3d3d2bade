#include "dfaster/client.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {
constexpr int kMaxBatchRetries = 400;     // paired with 1 ms backoff: covers
constexpr uint64_t kRetryDelayUs = 1000;  // several recovery windows
// Re-route attempts per op before reporting kNotOwner to the caller, and the
// backoff before each re-route.
constexpr int kMaxRerouteAttempts = 8;
constexpr uint64_t kRerouteDelayUs = 500;

struct ClientMetrics {
  ShardedHistogram* batch_fill;  // ops per dispatched batch (vs. batch_size)
  Counter* batches;
  Counter* flush_dispatches;  // partial batches forced out by Flush()
};

const ClientMetrics& Metrics() {
  static const ClientMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return ClientMetrics{r.histogram("dfaster.client.batch_fill"),
                         r.counter("dfaster.client.batches"),
                         r.counter("dfaster.client.flush_dispatches")};
  }();
  return m;
}

}  // namespace

DFasterClient::DFasterClient(DFasterClientConfig config)
    : config_(std::move(config)) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    // relaxed: pre-publication init; sessions start after the constructor.
    routes_[vp].store(YcsbWorkload::DefaultOwner(vp, config_.num_workers),
                      std::memory_order_relaxed);
  }
  RefreshOwnership();
}

DFasterClient::~DFasterClient() {
  std::thread timer;
  {
    MutexLock guard(timer_mu_);
    timer_stop_ = true;
    timer.swap(timer_thread_);
  }
  timer_cv_.NotifyAll();
  if (timer.joinable()) timer.join();
}

void DFasterClient::RunAfter(uint64_t delay_us, std::function<void()> fn) {
  {
    MutexLock guard(timer_mu_);
    if (!timer_thread_.joinable()) {
      timer_thread_ = std::thread([this] { TimerLoop(); });
    }
    timer_queue_.push_back({NowMicros() + delay_us, std::move(fn)});
  }
  timer_cv_.NotifyAll();
}

void DFasterClient::TimerLoop() {
  for (;;) {
    std::function<void()> ready;
    {
      MutexLock guard(timer_mu_);
      for (;;) {
        if (timer_stop_) return;
        if (timer_queue_.empty()) {
          timer_cv_.Wait(timer_mu_, [this]() REQUIRES(timer_mu_) {
            return timer_stop_ || !timer_queue_.empty();
          });
          continue;
        }
        auto it = std::min_element(timer_queue_.begin(), timer_queue_.end(),
                                   [](const DelayedTask& a,
                                      const DelayedTask& b) {
                                     return a.due_us < b.due_us;
                                   });
        const uint64_t now = NowMicros();
        if (it->due_us > now) {
          timer_cv_.WaitFor(timer_mu_,
                            std::chrono::microseconds(it->due_us - now));
          continue;
        }
        ready = std::move(it->fn);
        timer_queue_.erase(it);
        break;
      }
    }
    ready();  // outside the lock: tasks resend batches / take client locks
  }
}

WorkerId DFasterClient::RouteOf(uint64_t key) const {
  // relaxed: a route is a hint that reaches no other memory (see routes_).
  return routes_[YcsbWorkload::PartitionOf(key)].load(
      std::memory_order_relaxed);
}

void DFasterClient::RefreshOwnership() {
  if (config_.metadata == nullptr) return;
  for (const auto& [vp, worker] : config_.metadata->GetOwnership()) {
    if (vp < routes_.size()) {
      // relaxed: per-entry atomicity is all an op routing alone can see.
      routes_[vp].store(worker, std::memory_order_relaxed);
    }
  }
}

void DFasterClient::AddRemoteWorker(WorkerId id,
                                    std::unique_ptr<RpcConnection> conn) {
  MutexLock guard(endpoints_mu_);
  remote_[id] = std::move(conn);
}

void DFasterClient::AddLocalWorker(DFasterWorker* worker) {
  MutexLock guard(endpoints_mu_);
  local_[worker->id()] = worker;
}

RpcConnection* DFasterClient::Connection(WorkerId worker) {
  MutexLock guard(endpoints_mu_);
  auto it = remote_.find(worker);
  if (it != remote_.end()) return it->second.get();
  if (!config_.connect_worker) return nullptr;
  // Lazy connect (elastic membership): the worker joined after this client
  // was built. Resolved under the endpoint lock so concurrent request
  // threads produce one connection, not one each.
  // dprlint: allowed(callback-lock) connect_worker only dials a transport
  // endpoint; it takes no DPR locks, and holding endpoints_mu_ is what
  // dedups concurrent dials.
  std::unique_ptr<RpcConnection> conn = config_.connect_worker(worker);
  if (conn == nullptr) return nullptr;
  return (remote_[worker] = std::move(conn)).get();
}

DFasterWorker* DFasterClient::Local(WorkerId worker) const {
  MutexLock guard(endpoints_mu_);
  auto it = local_.find(worker);
  return it == local_.end() ? nullptr : it->second;
}

std::vector<WorkerId> DFasterClient::KnownWorkers() const {
  std::vector<WorkerId> ids;
  {
    MutexLock guard(endpoints_mu_);
    for (const auto& [id, conn] : remote_) ids.push_back(id);
    for (const auto& [id, w] : local_) ids.push_back(id);
  }
  for (const std::atomic<WorkerId>& route : routes_) {
    // relaxed: a routing hint, like RouteOf's load.
    ids.push_back(route.load(std::memory_order_relaxed));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::unique_ptr<DFasterClient::Session> DFasterClient::NewSession(
    uint64_t session_id) {
  return std::unique_ptr<Session>(new Session(this, session_id));
}

DFasterClient::Session::Session(DFasterClient* client, uint64_t session_id)
    : client_(client), dpr_session_(session_id) {}

DFasterClient::Session::~Session() {
  Status s = WaitForAll();
  if (!s.ok()) {
    DPR_WARN("session %llu destroyed with unresolved ops: %s",
             static_cast<unsigned long long>(dpr_session_.session_id()),
             s.ToString().c_str());
  }
}

void DFasterClient::Session::Read(uint64_t key, OpCallback callback) {
  Issue(KvOp{KvOp::Type::kRead, key, 0}, std::move(callback));
}

void DFasterClient::Session::Upsert(uint64_t key, uint64_t value,
                                    OpCallback callback) {
  Issue(KvOp{KvOp::Type::kUpsert, key, value}, std::move(callback));
}

void DFasterClient::Session::Rmw(uint64_t key, uint64_t delta,
                                 OpCallback callback) {
  Issue(KvOp{KvOp::Type::kRmw, key, delta}, std::move(callback));
}

void DFasterClient::Session::Delete(uint64_t key, OpCallback callback) {
  Issue(KvOp{KvOp::Type::kDelete, key, 0}, std::move(callback));
}

void DFasterClient::Session::Issue(KvOp op, OpCallback callback) {
  const WorkerId worker = client_->RouteOf(op.key);
  PendingBatch& batch = building_[worker];
  batch.ops.push_back(op);
  batch.callbacks.push_back(std::move(callback));
  ++ops_issued_;
  if (batch.ops.size() >= client_->config_.batch_size) Dispatch(worker);
}

void DFasterClient::Session::Flush() {
  for (auto& [worker, batch] : building_) {
    if (!batch.ops.empty()) {
      Metrics().flush_dispatches->Add();
      Dispatch(worker);
    }
  }
}

void DFasterClient::Session::Dispatch(WorkerId worker) {
  // The batch takes the slot's buffers (a moved-from vector is empty); the
  // slot gets fresh ones of full size, so the next batch fills without
  // regrowing.
  PendingBatch& slot = building_[worker];
  PendingBatch batch = std::move(slot);
  slot.ops.reserve(client_->config_.batch_size);
  slot.callbacks.reserve(client_->config_.batch_size);
  const uint64_t n = batch.ops.size();
  Metrics().batches->Add();
  Metrics().batch_fill->Record(n);
  // Windowing: block while w outstanding ops are in flight (paper §7.1).
  {
    MutexLock lock(mu_);
    window_cv_.Wait(mu_, [&]() REQUIRES(mu_) {
      return outstanding_ + n <= client_->config_.window;
    });
    outstanding_ += n;
  }
  SendBatch(worker, std::move(batch));
}

void DFasterClient::Session::SendBatch(WorkerId worker, PendingBatch batch) {
  batch.start_seqno = dpr_session_.IssuePending(worker, batch.ops.size());
  Exchange(worker, std::make_shared<PendingBatch>(std::move(batch)));
}

void DFasterClient::Session::Exchange(WorkerId worker,
                                      std::shared_ptr<PendingBatch> batch) {
  KvBatchResponse resp;
  if (DFasterWorker* local = client_->Local(worker)) {
    // Co-located worker: shared-memory execution, nothing encoded (§5.2).
    KvBatchRequest req;
    req.header = dpr_session_.MakeHeader();
    req.ops = std::move(batch->ops);  // lent to the request, returned below
    local->ExecuteBatch(req, &resp);
    batch->ops = std::move(req.ops);
    OnResponse(worker, std::move(batch), /*delivered=*/true, resp);
    return;
  }
  RpcConnection* conn = client_->Connection(worker);
  if (conn == nullptr) {
    OnResponse(worker, std::move(batch), /*delivered=*/false, resp);
    return;
  }
  std::string encoded;
  KvBatchRequest::Encode(dpr_session_.MakeHeader(), /*install=*/false,
                         batch->ops, &encoded);
  conn->CallAsync(std::move(encoded),
                  [this, worker, batch](Status s, Slice payload) mutable {
                    KvBatchResponse decoded;
                    const bool delivered =
                        s.ok() && decoded.DecodeFrom(payload);
                    OnResponse(worker, std::move(batch), delivered, decoded);
                  });
}

void DFasterClient::Session::OnResponse(WorkerId worker,
                                        std::shared_ptr<PendingBatch> batch,
                                        bool delivered,
                                        const KvBatchResponse& resp) {
  using BatchStatus = DprResponseHeader::BatchStatus;
  if (delivered && resp.header.status == BatchStatus::kRetryLater &&
      batch->attempt < kMaxBatchRetries) {
    // Worker mid-recovery (or behind our world-line): back off and resend
    // with a refreshed header. The ops keep their seqnos. The backoff is
    // scheduled, never slept inline: a remote response runs on the
    // transport's delivery thread, and with the io_uring client that one
    // thread serves every connection in the process (~Session keeps `this`
    // alive while the batch is outstanding).
    ++batch->attempt;
    client_->RunAfter(kRetryDelayUs,
                      [this, worker, batch = std::move(batch)]() mutable {
                        Exchange(worker, std::move(batch));
                      });
    return;
  }
  const bool executed = delivered && resp.header.status == BatchStatus::kOk;
  if (executed) {
    dpr_session_.ResolvePending(batch->start_seqno, resp.header);
  } else {
    // World-line shift, retries exhausted or no transport: the batch never
    // executed, so its ops commit vacuously as no-ops.
    dpr_session_.ResolvePending(batch->start_seqno, DprResponseHeader{});
    if (delivered) dpr_session_.Observe(resp.header);
  }
  FinishBatch(*batch, executed && resp.results.size() == batch->ops.size()
                          ? &resp
                          : nullptr);
}

void DFasterClient::Session::FinishBatch(PendingBatch& batch,
                                         const KvBatchResponse* resp) {
  // Ownership may have moved (paper 5.3): refresh the routing cache and
  // transparently re-route rejected ops; the key is momentarily unowned
  // during a transfer, so bounded retries are expected.
  const bool may_reroute =
      resp != nullptr && batch.reroute_attempts < kMaxRerouteAttempts;
  std::map<WorkerId, PendingBatch> reroutes;
  uint64_t finished = 0;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const KvResult result =
        resp != nullptr ? resp->results[i].result : KvResult::kError;
    if (result == KvResult::kNotOwner && may_reroute) {
      if (reroutes.empty()) client_->RefreshOwnership();
      PendingBatch& rb = reroutes[client_->RouteOf(batch.ops[i].key)];
      rb.reroute_attempts = batch.reroute_attempts + 1;
      rb.ops.push_back(batch.ops[i]);
      rb.callbacks.push_back(std::move(batch.callbacks[i]));
      continue;
    }
    if (batch.callbacks[i]) {
      batch.callbacks[i](result, resp != nullptr ? resp->results[i].value : 0);
    }
    ++finished;
  }
  if (resp == nullptr) {
    ops_failed_.fetch_add(batch.ops.size(), std::memory_order_relaxed);
  }
  {
    // Notify under mu_: ~Session's WaitForAll may destroy the cv the instant
    // its predicate holds, so the broadcast must complete before the waiter
    // can re-acquire the mutex and return.
    MutexLock guard(mu_);
    DPR_CHECK_MSG(outstanding_ >= finished,
                  "session %llu completes %llu ops with %llu outstanding",
                  static_cast<unsigned long long>(dpr_session_.session_id()),
                  static_cast<unsigned long long>(finished),
                  static_cast<unsigned long long>(outstanding_));
    outstanding_ -= finished;
    window_cv_.NotifyAll();
  }
  // Re-routed ops keep their window slots. They are resent after a short
  // backoff (mid-transfer the partition has no owner yet), scheduled like a
  // retry rather than slept on this thread.
  for (auto& [target, rb] : reroutes) {
    client_->RunAfter(kRerouteDelayUs,
                      [this, target, rb = std::move(rb)]() mutable {
                        SendBatch(target, std::move(rb));
                      });
  }
}

Status DFasterClient::Session::WaitForAll(uint64_t timeout_ms) {
  Flush();
  MutexLock lock(mu_);
  const bool done = window_cv_.WaitFor(
      mu_, std::chrono::milliseconds(timeout_ms),
      [&]() REQUIRES(mu_) { return outstanding_ == 0; });
  return done ? Status::OK() : Status::TimedOut("ops still outstanding");
}

bool DFasterClient::Session::SendPing(WorkerId worker) {
  KvBatchRequest req;
  req.header = dpr_session_.MakeHeader();
  KvBatchResponse resp;
  if (DFasterWorker* local = client_->Local(worker)) {
    local->ExecuteBatch(req, &resp);
  } else {
    RpcConnection* conn = client_->Connection(worker);
    std::string encoded;
    req.EncodeTo(&encoded);
    std::string response;
    if (conn == nullptr || !conn->Call(encoded, &response).ok() ||
        !resp.DecodeFrom(response)) {
      return false;
    }
  }
  dpr_session_.Observe(resp.header);
  return resp.header.status == DprResponseHeader::BatchStatus::kOk;
}

Status DFasterClient::Session::WaitForCommit(uint64_t timeout_ms) {
  DPR_RETURN_NOT_OK(WaitForAll(timeout_ms));
  const uint64_t target = dpr_session_.next_seqno();
  const Stopwatch timer;
  for (size_t round = 0;; ++round) {
    const DprSession::CommitPoint point = dpr_session_.GetCommitPoint();
    if (point.prefix_end >= target && point.excluded.empty()) {
      return Status::OK();
    }
    if (needs_failure_handling()) {
      return Status::Aborted("failure observed; call RecoverFromFailure");
    }
    if (timer.ElapsedMillis() > timeout_ms) {
      return Status::TimedOut("commit did not arrive in time");
    }
    // Commit notifications piggyback on responses and every worker serves
    // the whole cut, so one answered ping per round suffices (paper §2:
    // sessions may wait for commit). Each round starts one worker further
    // on, so a worker in a process whose finder copy lags cannot pin it.
    const std::vector<WorkerId> workers = client_->KnownWorkers();
    for (size_t i = 0; i < workers.size(); ++i) {
      if (SendPing(workers[(round + i) % workers.size()])) break;
    }
    SleepMicros(2000);
  }
}

Status DFasterClient::Session::RecoverFromFailure(
    DprSession::CommitPoint* survivors) {
  ClusterManager* manager = client_->config_.cluster_manager;
  if (manager == nullptr) {
    return Status::NotSupported("no cluster manager configured");
  }
  DPR_RETURN_NOT_OK(WaitForAll());
  const WorldLine target = dpr_session_.observed_world_line();
  // Resolve world-lines one at a time in case several failures stacked up.
  for (WorldLine wl = dpr_session_.world_line() + 1; wl <= target; ++wl) {
    DprCut cut;
    if (!manager->GetRecoveryCut(wl, &cut)) {
      return Status::Unavailable("recovery cut not yet published");
    }
    const DprSession::CommitPoint point = dpr_session_.HandleFailure(wl, cut);
    if (survivors != nullptr) *survivors = point;
  }
  return Status::OK();
}

}  // namespace dpr
