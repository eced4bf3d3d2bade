#include "dredis/dredis.h"

#include <utility>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"

namespace dpr {

// ------------------------------------------------------------ RespStoreServer

RespStoreServer::RespStoreServer(RespStore* store,
                                 std::unique_ptr<RpcServer> server)
    : store_(store), server_(std::move(server)) {}

RespStoreServer::~RespStoreServer() { Stop(); }

Status RespStoreServer::Start() {
  DPR_RETURN_NOT_OK(server_->Start([this](Slice req, std::string* resp) {
    Status s = store_->ExecuteBatch(req, resp);
    if (!s.ok()) {
      resp->clear();
      RespReply reply;
      reply.status = s;
      reply.EncodeTo(resp);
    }
  }));
  address_ = server_->address();
  return Status::OK();
}

void RespStoreServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

// ----------------------------------------------------------- PassThroughProxy

PassThroughProxy::PassThroughProxy(std::unique_ptr<RpcConnection> backend,
                                   std::unique_ptr<RpcServer> server)
    : backend_(std::move(backend)), server_(std::move(server)) {}

PassThroughProxy::~PassThroughProxy() { Stop(); }

Status PassThroughProxy::Start() {
  DPR_RETURN_NOT_OK(server_->Start([this](Slice req, std::string* resp) {
    Status s = backend_->Call(req, resp);
    if (!s.ok()) {
      resp->clear();
      RespReply reply;
      reply.status = s;
      reply.EncodeTo(resp);
    }
  }));
  address_ = server_->address();
  return Status::OK();
}

void PassThroughProxy::Stop() {
  if (server_ != nullptr) server_->Stop();
}

// ------------------------------------------------------ RemoteRespStateObject

RemoteRespStateObject::RemoteRespStateObject(
    std::unique_ptr<RpcConnection> conn, RespStore* crash_handle)
    : conn_(std::move(conn)), crash_handle_(crash_handle) {
  poll_thread_ = std::thread([this] { PollLoop(); });
}

RemoteRespStateObject::~RemoteRespStateObject() {
  {
    MutexLock guard(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (poll_thread_.joinable()) poll_thread_.join();
}

namespace {

Status SendCommand(RpcConnection* conn, RespOp op, uint64_t arg,
                   RespReply* reply) {
  RespCommand cmd;
  cmd.op = op;
  cmd.value.assign(reinterpret_cast<const char*>(&arg), 8);
  std::string encoded;
  cmd.EncodeTo(&encoded);
  std::string response;
  DPR_RETURN_NOT_OK(conn->Call(encoded, &response));
  size_t consumed = 0;
  if (!reply->DecodeFrom(response, &consumed)) {
    return Status::Corruption("bad reply");
  }
  return reply->status;
}

}  // namespace

Status RemoteRespStateObject::PerformCheckpoint(
    Version target_version, PersistCallback on_persist, Version* out_token,
    const CheckpointHints& /*hints*/) {
  const Version token = version_.load(std::memory_order_acquire);
  if (target_version <= token) {
    return Status::InvalidArgument("target version must exceed current");
  }
  {
    MutexLock guard(mu_);
    if (!outstanding_.empty()) return Status::Busy("BGSAVE in progress");
  }
  // BGSAVE draws the version boundary on the unmodified store; the caller
  // (DprWorker) holds the exclusive batch latch so no batch straddles it.
  RespReply reply;
  DPR_RETURN_NOT_OK(SendCommand(conn_.get(), RespOp::kBgSave, token, &reply));
  version_.store(target_version, std::memory_order_release);
  {
    MutexLock guard(mu_);
    outstanding_.push_back(Outstanding{token, std::move(on_persist)});
  }
  cv_.NotifyAll();
  if (out_token != nullptr) *out_token = token;
  return Status::OK();
}

void RemoteRespStateObject::PollLoop() {
  // Periodic LASTSAVE in the background determines when a checkpoint has
  // finished (paper §6).
  for (;;) {
    Outstanding job;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        return stop_ || !outstanding_.empty();
      });
      if (stop_) return;
      job = std::move(outstanding_.front());
      outstanding_.pop_front();
    }
    for (;;) {
      RespReply reply;
      Status s = SendCommand(conn_.get(), RespOp::kLastSave, 0, &reply);
      if (s.ok() && reply.value.size() == 8) {
        uint64_t last;
        memcpy(&last, reply.value.data(), 8);
        if (last >= job.token) break;
      }
      {
        MutexLock lock(mu_);
        if (stop_) return;
      }
      SleepMicros(2000);
    }
    if (job.callback) job.callback(job.token);
  }
}

Status RemoteRespStateObject::RestoreCheckpoint(Version version,
                                                Version* restored_token) {
  {
    // Drop checkpoints that will never complete (pre-crash BGSAVEs).
    MutexLock guard(mu_);
    outstanding_.clear();
  }
  RespReply reply;
  DPR_RETURN_NOT_OK(SendCommand(conn_.get(), RespOp::kRestore, version,
                                &reply));
  uint64_t restored = 0;
  if (reply.value.size() == 8) memcpy(&restored, reply.value.data(), 8);
  // Resume strictly above anything pre-rollback.
  const Version v_old = version_.load(std::memory_order_acquire);
  version_.store(v_old + 1, std::memory_order_release);
  if (restored_token != nullptr) *restored_token = restored;
  return Status::OK();
}

void RemoteRespStateObject::SimulateCrash() {
  if (crash_handle_ != nullptr) crash_handle_->SimulateCrash();
}

// ------------------------------------------------------------------ DRedisProxy

DRedisProxy::DRedisProxy(Options options,
                         std::unique_ptr<RpcConnection> store_conn,
                         std::unique_ptr<RpcServer> server,
                         RespStore* crash_handle)
    : options_(options), server_(std::move(server)) {
  state_object_ = std::make_unique<RemoteRespStateObject>(
      std::move(store_conn), crash_handle);
  options_.dpr.worker_id = options_.id;
  dpr_worker_ =
      std::make_unique<DprWorker>(state_object_.get(), options_.dpr);
}

DRedisProxy::~DRedisProxy() { Stop(); }

Status DRedisProxy::Start() {
  DPR_RETURN_NOT_OK(dpr_worker_->Start());
  DPR_RETURN_NOT_OK(server_->Start([this](Slice req, std::string* resp) {
    Handle(req, resp);
  }));
  address_ = server_->address();
  return Status::OK();
}

void DRedisProxy::Stop() {
  if (server_ != nullptr) server_->Stop();
  if (dpr_worker_ != nullptr) dpr_worker_->Stop();
}

void DRedisProxy::Handle(Slice request, std::string* response) {
  DprRequestHeader header;
  size_t consumed = 0;
  DprResponseHeader resp_header;
  if (!header.DecodeFrom(request, &consumed)) {
    dpr_worker_->FillResponse(header, kInvalidVersion,
                              DprResponseHeader::BatchStatus::kRetryLater,
                              &resp_header);
    resp_header.EncodeTo(response);
    return;
  }
  Slice body(request.data() + consumed, request.size() - consumed);
  Version version = kInvalidVersion;
  Status admit = dpr_worker_->BeginBatch(header, &version);
  if (!admit.ok()) {
    const auto status = admit.IsAborted()
                            ? DprResponseHeader::BatchStatus::kWorldLineShift
                            : DprResponseHeader::BatchStatus::kRetryLater;
    dpr_worker_->FillResponse(header, kInvalidVersion, status, &resp_header);
    resp_header.EncodeTo(response);
    return;
  }
  // Forward the raw batch to the unmodified store while holding the shared
  // version latch, so the whole batch lands in one version (paper §6).
  std::string replies;
  Status s = state_object_->connection()->Call(body, &replies);
  dpr_worker_->EndBatch();
  if (!s.ok()) {
    dpr_worker_->FillResponse(header, kInvalidVersion,
                              DprResponseHeader::BatchStatus::kRetryLater,
                              &resp_header);
    resp_header.EncodeTo(response);
    return;
  }
  dpr_worker_->FillResponse(header, version,
                            DprResponseHeader::BatchStatus::kOk, &resp_header);
  resp_header.EncodeTo(response);
  response->append(replies);
}

}  // namespace dpr
