#include "dpr/finder_service.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "dpr/header.h"
#include "fault/fault_plane.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

// Reports per kReportBatch RPC.
constexpr size_t kMaxBatchSize = 256;

// Retry causes are split by status taxonomy so a chaos run can tell "the
// coordinator was slow" (timeouts) from "the link was flapping" (transient).
struct RemoteMetrics {
  Counter* reports_enqueued;
  Counter* reports_stale;
  Counter* batches_sent;
  Counter* reports_sent;
  Counter* reports_rejected;
  Counter* retries_timeout;
  Counter* retries_transient;
  Counter* retries_other;
  Counter* batches_abandoned;
  Counter* snapshot_refreshes;
  Gauge* pending_depth;
};

const RemoteMetrics& Metrics() {
  static const RemoteMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return RemoteMetrics{r.counter("dpr.remote.reports_enqueued"),
                         r.counter("dpr.remote.reports_stale"),
                         r.counter("dpr.remote.batches_sent"),
                         r.counter("dpr.remote.reports_sent"),
                         r.counter("dpr.remote.reports_rejected"),
                         r.counter("dpr.remote.retries_timeout"),
                         r.counter("dpr.remote.retries_transient"),
                         r.counter("dpr.remote.retries_other"),
                         r.counter("dpr.remote.batches_abandoned"),
                         r.counter("dpr.remote.snapshot_refreshes"),
                         r.gauge("dpr.remote.pending_depth")};
  }();
  return m;
}

// Retired single-report and single-read methods keep their numbers (3, 5-7)
// unused, so an old client's request is rejected as unknown.
enum Method : uint8_t {
  kAddWorker = 1,
  kRemoveWorker = 2,
  kComputeCut = 4,
  kBeginRecovery = 8,
  kEndRecovery = 9,
  kReportBatch = 10,
  kSnapshot = 11,
};

}  // namespace

// ------------------------------------------------------------ server side

DprFinderServer::DprFinderServer(DprFinder* finder,
                                 std::unique_ptr<RpcServer> server)
    : finder_(finder), server_(std::move(server)) {}

DprFinderServer::~DprFinderServer() { Stop(); }

Status DprFinderServer::Start() {
  DPR_RETURN_NOT_OK(server_->Start(
      [this](Slice request, std::string* response) {
        Handle(request, response);
      }));
  address_ = server_->address();
  return Status::OK();
}

void DprFinderServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

void DprFinderServer::Handle(Slice request, std::string* response) {
  // Injected RPC error burst: the request reaches the service but fails
  // before dispatch, as if an overloaded coordinator shed it. Clients see a
  // retryable code, exercising every caller's retry policy.
  if (FaultPlane::Instance().ShouldFire(faults::kFinderRpcError)) {
    response->push_back(static_cast<char>(Status::Code::kTransient));
    return;
  }
  if (request.empty()) {
    response->push_back(static_cast<char>(Status::Code::kInvalidArgument));
    return;
  }
  Decoder dec(Slice(request.data() + 1, request.size() - 1));
  const uint8_t method = static_cast<uint8_t>(request.data()[0]);
  Status status;
  std::string payload;
  switch (method) {
    case kAddWorker: {
      uint32_t w;
      uint64_t start;
      if (dec.GetFixed32(&w) && dec.GetFixed64(&start)) {
        status = finder_->AddWorker(w, start);
      } else {
        status = Status::InvalidArgument("bad AddWorker");
      }
      break;
    }
    case kRemoveWorker: {
      uint32_t w;
      status = dec.GetFixed32(&w) ? finder_->RemoveWorker(w)
                                  : Status::InvalidArgument("bad Remove");
      break;
    }
    case kReportBatch: {
      // [u64 world_line][u32 count] count × ([u32 w][u64 v][deps]).
      // Response payload: [u32 processed][u32 rejected]. Stale reports are
      // rejected individually (counted), not an error for the batch.
      uint64_t wl;
      uint32_t count;
      if (!dec.GetFixed64(&wl) || !dec.GetFixed32(&count)) {
        status = Status::InvalidArgument("bad ReportBatch");
        break;
      }
      uint32_t processed = 0;
      uint32_t rejected = 0;
      for (uint32_t i = 0; i < count && status.ok(); ++i) {
        uint32_t w;
        uint64_t v;
        DprCut deps;
        if (!dec.GetFixed32(&w) || !dec.GetFixed64(&v) ||
            !DecodeCut(&dec, &deps)) {
          status = Status::InvalidArgument("bad ReportBatch entry");
          break;
        }
        Status r =
            finder_->ReportPersistedVersion(wl, WorkerVersion{w, v}, deps);
        if (r.ok()) {
          ++processed;
        } else if (r.IsAborted()) {
          ++rejected;
        } else {
          status = r;
        }
      }
      PutFixed32(&payload, processed);
      PutFixed32(&payload, rejected);
      break;
    }
    case kComputeCut:
      status = finder_->ComputeCut();
      break;
    case kSnapshot: {
      // World-line, Vmax and the published cut in one round trip; clients
      // cache this and republish the cut to their workers. The published
      // cut keeps removed workers' final entries: their ids follow, so the
      // client's GetCut can leave them out as the local finder's does.
      WorldLine wl;
      DprCut members;
      finder_->GetCut(&wl, &members);
      const PublishedCut published = finder_->LastPublished();
      PutFixed64(&payload, wl);
      PutFixed64(&payload, finder_->MaxPersistedVersion());
      PutFixed64(&payload, published.epoch);
      EncodeCut(&payload, published.cut);
      std::vector<WorkerId> retired;
      for (const auto& [w, v] : published.cut) {
        if (members.count(w) == 0) retired.push_back(w);
      }
      PutFixed32(&payload, static_cast<uint32_t>(retired.size()));
      for (WorkerId w : retired) PutFixed32(&payload, w);
      break;
    }
    case kBeginRecovery: {
      WorldLine wl;
      DprCut cut;
      status = finder_->BeginRecovery(&wl, &cut);
      if (status.ok()) {
        PutFixed64(&payload, wl);
        EncodeCut(&payload, cut);
      }
      break;
    }
    case kEndRecovery:
      status = finder_->EndRecovery();
      break;
    default:
      status = Status::InvalidArgument("unknown finder method");
  }
  response->push_back(static_cast<char>(status.code()));
  response->append(payload);
}

// ------------------------------------------------------------ client side

RemoteDprFinder::RemoteDprFinder(std::unique_ptr<RpcConnection> conn,
                                 RemoteDprFinderOptions options)
    : conn_(std::move(conn)), options_(options) {
  flusher_ = std::thread([this] { FlusherLoop(); });
}

RemoteDprFinder::~RemoteDprFinder() {
  {
    MutexLock guard(queue_mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
}

Status RemoteDprFinder::Call(uint8_t method, Slice payload,
                             std::string* response) const {
  std::string request(1, static_cast<char>(method));
  request.append(payload.data(), payload.size());
  std::string raw;
  DPR_RETURN_NOT_OK(conn_->Call(request, &raw));
  if (raw.empty()) return Status::Corruption("empty finder response");
  const auto code = static_cast<Status::Code>(raw[0]);
  if (code != Status::Code::kOk) return Status(code, "finder error");
  if (response != nullptr) response->assign(raw.data() + 1, raw.size() - 1);
  return Status::OK();
}

Status RemoteDprFinder::SendBatch(
    const std::vector<PendingReport>& batch) const {
  std::string request(1, static_cast<char>(kReportBatch));
  PutFixed64(&request, batch.front().world_line);
  PutFixed32(&request, static_cast<uint32_t>(batch.size()));
  for (const PendingReport& r : batch) {
    PutFixed32(&request, r.wv.worker);
    PutFixed64(&request, r.wv.version);
    EncodeCut(&request, r.deps);
  }
  // Transport errors are retried with bounded exponential backoff.
  // Re-sending is safe: reports are idempotent upserts server-side, so a
  // batch whose response was lost can be applied twice without harm.
  uint64_t backoff = options_.retry_backoff_us;
  Status last = Status::OK();
  const int attempts = std::max(1, options_.max_send_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (last.IsTimedOut()) {
        Metrics().retries_timeout->Add();
      } else if (last.IsTransient()) {
        Metrics().retries_transient->Add();
      } else {
        Metrics().retries_other->Add();
      }
      SleepMicros(backoff);
      backoff = std::min(backoff * 2, options_.retry_backoff_max_us);
    }
    std::string raw;
    last = conn_->Call(request, &raw);
    if (!last.ok()) continue;  // transport error: retry
    if (raw.empty()) return Status::Corruption("empty finder response");
    const auto code = static_cast<Status::Code>(raw[0]);
    if (code != Status::Code::kOk) {
      last = Status(code, "finder error");
      // A retryable server-side code (busy/overloaded coordinator) rides
      // the same backoff loop as a transport error; anything else is a
      // semantic rejection that retrying will not fix.
      if (last.IsRetryable()) continue;
      return last;
    }
    Decoder dec(Slice(raw.data() + 1, raw.size() - 1));
    uint32_t processed = 0;
    uint32_t rejected = 0;
    if (!dec.GetFixed32(&processed) || !dec.GetFixed32(&rejected)) {
      return Status::Corruption("bad ReportBatch response");
    }
    Metrics().batches_sent->Add();
    Metrics().reports_sent->Add(batch.size());
    Metrics().reports_rejected->Add(rejected);
    return Status::OK();
  }
  Metrics().batches_abandoned->Add();
  return Status::Transient("finder report batch not delivered: " +
                           last.ToString());
}

Status RemoteDprFinder::FlushPending() const {
  MutexLock flush_guard(flush_mu_);
  bool sent_any = false;
  Status result = Status::OK();
  while (true) {
    std::vector<PendingReport> batch;
    {
      MutexLock guard(queue_mu_);
      if (pending_.empty()) break;
      // One batch carries one world-line (reports spanning a recovery are
      // split; the stale half gets rejected server-side).
      const WorldLine wl = pending_.front().world_line;
      while (!pending_.empty() && batch.size() < kMaxBatchSize &&
             pending_.front().world_line == wl) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }
    Status s = SendBatch(batch);
    if (!s.ok()) {
      // Undelivered: re-queue at the front, preserving report order. No
      // WorkerVersion is ever dropped on a transport failure.
      MutexLock guard(queue_mu_);
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        pending_.push_front(std::move(*it));
      }
      result = s;
      break;
    }
    sent_any = true;
  }
  {
    MutexLock guard(queue_mu_);
    Metrics().pending_depth->Set(static_cast<int64_t>(pending_.size()));
  }
  // Anything the server just ingested may move Vmax/cut; drop the cached
  // snapshot so the next read observes our own reports.
  if (sent_any) InvalidateSnapshot();
  return result;
}

Status RemoteDprFinder::Flush() { return FlushPending(); }

Status RemoteDprFinder::RefreshSnapshot(bool force) const {
  MutexLock guard(snap_mu_);
  const uint64_t now = NowMicros();
  if (!force && snapshot_.fetched_us != 0 &&
      now - snapshot_.fetched_us < options_.snapshot_ttl_us) {
    return Status::OK();
  }
  std::string payload;
  DPR_RETURN_NOT_OK(Call(kSnapshot, Slice(), &payload));
  Decoder dec(payload);
  uint64_t wl;
  uint64_t vmax;
  PublishedCut published;
  uint32_t n;
  if (!dec.GetFixed64(&wl) || !dec.GetFixed64(&vmax) ||
      !dec.GetFixed64(&published.epoch) ||
      !DecodeCut(&dec, &published.cut) || !dec.GetFixed32(&n) ||
      n > dec.remaining() / 4) {
    return Status::Corruption("bad Snapshot response");
  }
  std::vector<WorkerId> retired(n);
  for (WorkerId& w : retired) {
    if (!dec.GetFixed32(&w)) return Status::Corruption("bad Snapshot response");
  }
  snapshot_.world_line = wl;
  snapshot_.vmax = vmax;
  snapshot_.retired = std::move(retired);
  snapshot_.fetched_us = NowMicros();
  Metrics().snapshot_refreshes->Add();
  // Under snap_mu_, which orders refreshes, so the newest one wins even if
  // the server finder was rebuilt with a different epoch sequence.
  Publish(std::move(published));
  return Status::OK();
}

void RemoteDprFinder::InvalidateSnapshot() const {
  MutexLock guard(snap_mu_);
  snapshot_.fetched_us = 0;
}

void RemoteDprFinder::FlusherLoop() {
  while (true) {
    bool stopping;
    {
      MutexLock lock(queue_mu_);
      queue_cv_.WaitFor(
          queue_mu_, std::chrono::microseconds(options_.flush_interval_us),
          [this]() REQUIRES(queue_mu_) {
            return stop_ || pending_.size() >= kMaxBatchSize;
          });
      stopping = stop_;
    }
    // On persistent transport failure FlushPending leaves the batch queued
    // and we come back around — the wait above doubles as pacing.
    Status s = FlushPending();
    if (!s.ok() && !stopping) {
      DPR_WARN("finder report flush: %s", s.ToString().c_str());
    }
    if (stopping) return;  // final drain done
    // A process that runs workers learns each cut advance within one flush
    // interval (or snapshot TTL, whichever is longer), for its workers'
    // responses. A failed refresh is retried on the next pass.
    if (serves_workers_.load(std::memory_order_relaxed)) {
      (void)RefreshSnapshot(/*force=*/false);
    }
  }
}

Status RemoteDprFinder::AddWorker(WorkerId worker, Version start_version) {
  DPR_RETURN_NOT_OK(FlushPending());
  std::string payload;
  PutFixed32(&payload, worker);
  PutFixed64(&payload, start_version);
  DPR_RETURN_NOT_OK(Call(kAddWorker, payload, nullptr));
  serves_workers_.store(true, std::memory_order_relaxed);
  InvalidateSnapshot();
  return Status::OK();
}

Status RemoteDprFinder::RemoveWorker(WorkerId worker) {
  DPR_RETURN_NOT_OK(FlushPending());
  std::string payload;
  PutFixed32(&payload, worker);
  DPR_RETURN_NOT_OK(Call(kRemoveWorker, payload, nullptr));
  InvalidateSnapshot();
  return Status::OK();
}

Status RemoteDprFinder::ReportPersistedVersion(WorldLine world_line,
                                               WorkerVersion wv,
                                               const DependencySet& deps) {
  // Validate the world-line client-side against the cached snapshot so a
  // stale reporter learns synchronously, like with a local finder. A report
  // from a world-line the snapshot has not caught up to forces one refresh
  // before the verdict.
  Status s = RefreshSnapshot(/*force=*/false);
  WorldLine known;
  {
    MutexLock guard(snap_mu_);
    known = snapshot_.world_line;
  }
  if (world_line != known || !s.ok()) {
    DPR_RETURN_NOT_OK(RefreshSnapshot(/*force=*/true));
    MutexLock guard(snap_mu_);
    if (world_line != snapshot_.world_line) {
      Metrics().reports_stale->Add();
      return Status::Aborted("report from stale world-line");
    }
  }
  size_t depth;
  {
    MutexLock guard(queue_mu_);
    pending_.push_back(PendingReport{world_line, wv, deps});
    depth = pending_.size();
  }
  Metrics().reports_enqueued->Add();
  Metrics().pending_depth->Set(static_cast<int64_t>(depth));
  // The timer flushes small queues; a full batch is worth waking the
  // flusher for immediately.
  if (depth >= kMaxBatchSize) queue_cv_.NotifyOne();
  return Status::OK();
}

Status RemoteDprFinder::ComputeCut() {
  DPR_RETURN_NOT_OK(FlushPending());
  DPR_RETURN_NOT_OK(Call(kComputeCut, Slice(), nullptr));
  // Publish the round's outcome before returning, as the local finder does.
  return RefreshSnapshot(/*force=*/true);
}

void RemoteDprFinder::GetCut(WorldLine* world_line, DprCut* cut) const {
  if (!FlushPending().ok() || !RefreshSnapshot(/*force=*/false).ok()) {
    if (cut != nullptr) cut->clear();
    return;
  }
  MutexLock guard(snap_mu_);
  if (world_line != nullptr) *world_line = snapshot_.world_line;
  if (cut != nullptr) {
    *cut = LastPublished().cut;
    for (WorkerId w : snapshot_.retired) cut->erase(w);
  }
}

Version RemoteDprFinder::MaxPersistedVersion() const {
  if (!FlushPending().ok() || !RefreshSnapshot(/*force=*/false).ok()) {
    return kInvalidVersion;
  }
  MutexLock guard(snap_mu_);
  return snapshot_.vmax;
}

WorldLine RemoteDprFinder::CurrentWorldLine() const {
  if (!RefreshSnapshot(/*force=*/true).ok()) return kInitialWorldLine;
  MutexLock guard(snap_mu_);
  return snapshot_.world_line;
}

Status RemoteDprFinder::BeginRecovery(WorldLine* new_world_line,
                                      DprCut* cut) {
  // Best-effort flush: anything still queued is from the failing world-line
  // and is about to be lost to the rollback regardless.
  (void)FlushPending();
  std::string payload;
  DPR_RETURN_NOT_OK(Call(kBeginRecovery, Slice(), &payload));
  Decoder dec(payload);
  uint64_t wl;
  DprCut parsed;
  if (!dec.GetFixed64(&wl) || !DecodeCut(&dec, &parsed)) {
    return Status::Corruption("bad BeginRecovery response");
  }
  {
    // Pending reports all predate the new world-line: drop them instead of
    // shipping them to certain rejection.
    MutexLock guard(queue_mu_);
    pending_.clear();
  }
  {
    MutexLock guard(snap_mu_);
    snapshot_.world_line = wl;
    snapshot_.vmax = kInvalidVersion;
    snapshot_.fetched_us = 0;  // force a refresh before the next read
  }
  if (new_world_line != nullptr) *new_world_line = wl;
  if (cut != nullptr) *cut = std::move(parsed);
  return Status::OK();
}

Status RemoteDprFinder::EndRecovery() {
  return Call(kEndRecovery, Slice(), nullptr);
}

}  // namespace dpr
