#include "dredis/client.h"

#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace dpr {

DRedisClient::DRedisClient(DRedisClientConfig config)
    : config_(std::move(config)) {}

void DRedisClient::AddShard(uint32_t shard,
                            std::unique_ptr<RpcConnection> conn) {
  shards_[shard] = std::move(conn);
}

uint32_t DRedisClient::ShardOf(uint64_t key, uint32_t num_shards) {
  return static_cast<uint32_t>(Mix64(key ^ 0x5bd1e995) % num_shards);
}

std::unique_ptr<DRedisClient::Session> DRedisClient::NewSession(
    uint64_t session_id) {
  return std::unique_ptr<Session>(new Session(this, session_id));
}

DRedisClient::Session::Session(DRedisClient* client, uint64_t session_id)
    : client_(client), dpr_session_(session_id) {}

DRedisClient::Session::~Session() {
  Status s = WaitForAll();
  if (!s.ok()) DPR_WARN("D-Redis session teardown: %s", s.ToString().c_str());
}

void DRedisClient::Session::Set(uint64_t key, uint64_t value,
                                OpCallback callback) {
  RespCommand cmd;
  cmd.op = RespOp::kSet;
  cmd.key.assign(reinterpret_cast<const char*>(&key), 8);
  cmd.value.assign(reinterpret_cast<const char*>(&value), 8);
  Issue(ShardOf(key, client_->config_.num_shards), cmd, std::move(callback));
}

void DRedisClient::Session::Get(uint64_t key, OpCallback callback) {
  RespCommand cmd;
  cmd.op = RespOp::kGet;
  cmd.key.assign(reinterpret_cast<const char*>(&key), 8);
  Issue(ShardOf(key, client_->config_.num_shards), cmd, std::move(callback));
}

void DRedisClient::Session::Issue(uint32_t shard, const RespCommand& cmd,
                                  OpCallback callback) {
  Batch& batch = building_[shard];
  cmd.EncodeTo(&batch.body);
  batch.count += 1;
  batch.callbacks.push_back(std::move(callback));
  ++ops_issued_;
  if (batch.count >= client_->config_.batch_size) Dispatch(shard);
}

void DRedisClient::Session::Flush() {
  for (auto& [shard, batch] : building_) {
    if (batch.count > 0) Dispatch(shard);
  }
}

void DRedisClient::Session::Dispatch(uint32_t shard) {
  auto batch = std::make_shared<Batch>(std::move(building_[shard]));
  building_[shard] = Batch{};
  const uint32_t n = batch->count;
  {
    MutexLock lock(mu_);
    window_cv_.Wait(mu_, [&]() REQUIRES(mu_) {
      return outstanding_ + n <= client_->config_.window;
    });
    outstanding_ += n;
  }
  auto it = client_->shards_.find(shard);
  if (it == client_->shards_.end()) {
    RunCallbacks(*batch, Slice(), Status::Unavailable("no such shard"));
    return;
  }
  std::string message;
  uint64_t start_seqno = 0;
  if (client_->config_.use_dpr) {
    start_seqno = dpr_session_.IssuePending(shard, n);
    DprRequestHeader header = dpr_session_.MakeHeader();
    header.EncodeTo(&message);
  }
  message.append(batch->body);
  it->second->CallAsync(
      std::move(message),
      [this, batch, start_seqno](Status s, Slice payload) {
        OnResponse(batch, start_seqno, std::move(s), payload);
      });
}

void DRedisClient::Session::OnResponse(std::shared_ptr<Batch> batch,
                                       uint64_t start_seqno, Status transport,
                                       Slice payload) {
  if (!client_->config_.use_dpr) {
    RunCallbacks(*batch, payload, transport);
    return;
  }
  DprResponseHeader header;
  size_t consumed = 0;
  if (transport.ok() && header.DecodeFrom(payload, &consumed) &&
      header.status == DprResponseHeader::BatchStatus::kOk) {
    dpr_session_.ResolvePending(start_seqno, header);
    RunCallbacks(*batch,
                 Slice(payload.data() + consumed, payload.size() - consumed),
                 Status::OK());
    return;
  }
  DprResponseHeader vacuous;
  dpr_session_.ResolvePending(start_seqno, vacuous);
  if (transport.ok()) dpr_session_.Observe(header);
  RunCallbacks(*batch, Slice(),
               transport.ok() ? Status::Aborted("batch rejected")
                              : transport);
}

void DRedisClient::Session::RunCallbacks(const Batch& batch, Slice replies,
                                         const Status& error) {
  size_t pos = 0;
  RespReply reply;
  for (const OpCallback& cb : batch.callbacks) {
    Status op_status = error;
    Slice value;
    if (error.ok()) {
      size_t consumed = 0;
      if (reply.DecodeFrom(Slice(replies.data() + pos, replies.size() - pos),
                           &consumed)) {
        pos += consumed;
        op_status = reply.status;
        value = Slice(reply.value);
      } else {
        op_status = Status::Corruption("short reply batch");
      }
    }
    if (cb) cb(op_status, value);
  }
  // Notify under mu_: ~Session's WaitForAll may destroy the cv the instant
  // its predicate holds, so the broadcast must finish before it can return.
  MutexLock guard(mu_);
  outstanding_ -= batch.count;
  window_cv_.NotifyAll();
}

Status DRedisClient::Session::WaitForAll(uint64_t timeout_ms) {
  Flush();
  MutexLock lock(mu_);
  const bool done = window_cv_.WaitFor(
      mu_, std::chrono::milliseconds(timeout_ms),
      [&]() REQUIRES(mu_) { return outstanding_ == 0; });
  return done ? Status::OK() : Status::TimedOut("ops still outstanding");
}

}  // namespace dpr
