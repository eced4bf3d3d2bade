#include "respstore/resp_store.h"

#include <utility>

#include "common/coding.h"
#include "common/logging.h"

namespace dpr {

namespace {
// Snapshot-log record kinds.
constexpr uint64_t kRollbackMarker = ~uint64_t{0};

std::string SerializeMap(const std::unordered_map<std::string, std::string>& m) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(m.size()));
  for (const auto& [k, v] : m) {
    PutLengthPrefixed(&out, k);
    PutLengthPrefixed(&out, v);
  }
  return out;
}

bool DeserializeMap(Slice payload,
                    std::unordered_map<std::string, std::string>* m) {
  Decoder dec(payload);
  uint32_t n;
  if (!dec.GetFixed32(&n)) return false;
  m->clear();
  m->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice k;
    Slice v;
    if (!dec.GetLengthPrefixed(&k) || !dec.GetLengthPrefixed(&v)) return false;
    m->emplace(k.ToString(), v.ToString());
  }
  return true;
}

}  // namespace

void RespCommand::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(op));
  PutLengthPrefixed(dst, key);
  PutLengthPrefixed(dst, value);
}

bool RespCommand::DecodeFrom(Slice input, size_t* consumed) {
  Decoder dec(input);
  uint8_t op_byte;
  Slice k;
  Slice v;
  if (!dec.GetBytes(&op_byte, 1) || !dec.GetLengthPrefixed(&k) ||
      !dec.GetLengthPrefixed(&v)) {
    return false;
  }
  op = static_cast<RespOp>(op_byte);
  key = k.ToString();
  value = v.ToString();
  if (consumed != nullptr) *consumed = input.size() - dec.remaining();
  return true;
}

void RespReply::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(dst, value);
}

bool RespReply::DecodeFrom(Slice input, size_t* consumed) {
  Decoder dec(input);
  uint8_t code;
  Slice v;
  if (!dec.GetBytes(&code, 1) || !dec.GetLengthPrefixed(&v)) return false;
  status = Status(static_cast<Status::Code>(code), "");
  value = v.ToString();
  if (consumed != nullptr) *consumed = input.size() - dec.remaining();
  return true;
}

RespStore::RespStore(RespStoreOptions options)
    : options_(std::move(options)),
      snap_log_(options_.snapshot_device != nullptr
                    ? std::move(options_.snapshot_device)
                    : std::make_unique<MemoryDevice>()) {
  if (options_.aof_enabled && options_.aof_device == nullptr) {
    options_.aof_device = std::make_unique<MemoryDevice>();
  }
  LoadDurableSnapshots();
  save_thread_ = std::thread([this] { SaveLoop(); });
}

RespStore::~RespStore() {
  {
    MutexLock guard(save_mu_);
    stop_save_ = true;
  }
  save_cv_.NotifyAll();
  if (save_thread_.joinable()) save_thread_.join();
}

void RespStore::LoadDurableSnapshots() {
  MutexLock guard(save_mu_);
  durable_snapshots_.clear();
  Status s = snap_log_.Replay([this](uint64_t offset, Slice record) {
    if (record.size() < 8) return;
    const uint64_t tag = DecodeFixed64(record.data());
    if (tag == kRollbackMarker) {
      if (record.size() < 16) return;
      const uint64_t keep = DecodeFixed64(record.data() + 8);
      for (auto it = durable_snapshots_.upper_bound(keep);
           it != durable_snapshots_.end();) {
        it = durable_snapshots_.erase(it);
      }
    } else {
      durable_snapshots_[tag] = offset;
    }
  });
  DPR_CHECK_MSG(s.ok(), "snapshot log replay: %s", s.ToString().c_str());
}

Status RespStore::AppendAof(const RespCommand& command) {
  std::string rec;
  command.EncodeTo(&rec);
  DPR_RETURN_NOT_OK(SyncIo::Write(options_.aof_device.get(),
                                  options_.aof_device->Size(), rec.data(),
                                  rec.size()));
  // appendfsync=always; concurrent AOF appends coalesce into one fsync per
  // group (SyncIo::Fsync).
  return SyncIo::Fsync(options_.aof_device.get());
}

RespReply RespStore::Execute(const RespCommand& command) {
  RespReply reply;
  switch (command.op) {
    case RespOp::kGet: {
      MutexLock guard(mu_);
      auto it = map_.find(command.key);
      if (it == map_.end()) {
        reply.status = Status::NotFound();
      } else {
        reply.value = it->second;
      }
      return reply;
    }
    case RespOp::kSet: {
      {
        MutexLock guard(mu_);
        map_[command.key] = command.value;
      }
      if (options_.aof_enabled) reply.status = AppendAof(command);
      return reply;
    }
    case RespOp::kDel: {
      {
        MutexLock guard(mu_);
        map_.erase(command.key);
      }
      if (options_.aof_enabled) reply.status = AppendAof(command);
      return reply;
    }
    case RespOp::kIncr: {
      uint64_t delta = 0;
      if (command.value.size() == 8) {
        memcpy(&delta, command.value.data(), 8);
      }
      uint64_t updated;
      {
        MutexLock guard(mu_);
        std::string& cell = map_[command.key];
        uint64_t cur = 0;
        if (cell.size() == 8) memcpy(&cur, cell.data(), 8);
        updated = cur + delta;
        cell.assign(reinterpret_cast<const char*>(&updated), 8);
      }
      reply.value.assign(reinterpret_cast<const char*>(&updated), 8);
      if (options_.aof_enabled) reply.status = AppendAof(command);
      return reply;
    }
    case RespOp::kBgSave: {
      uint64_t token = 0;
      if (command.value.size() == 8) memcpy(&token, command.value.data(), 8);
      return DoBgSave(token);
    }
    case RespOp::kLastSave: {
      const uint64_t last = LastSave();
      reply.value.assign(reinterpret_cast<const char*>(&last), 8);
      return reply;
    }
    case RespOp::kRestore: {
      uint64_t version = 0;
      if (command.value.size() == 8) memcpy(&version, command.value.data(), 8);
      return DoRestore(version);
    }
  }
  reply.status = Status::InvalidArgument("unknown command");
  return reply;
}

Status RespStore::ExecuteBatch(Slice batch, std::string* replies) {
  size_t pos = 0;
  RespCommand command;
  while (pos < batch.size()) {
    size_t consumed = 0;
    if (!command.DecodeFrom(Slice(batch.data() + pos, batch.size() - pos),
                            &consumed)) {
      return Status::Corruption("malformed command batch");
    }
    pos += consumed;
    RespReply reply = Execute(command);
    reply.EncodeTo(replies);
  }
  return Status::OK();
}

RespReply RespStore::DoBgSave(uint64_t token) {
  RespReply reply;
  std::string payload;
  {
    // Snapshot the map. Real Redis forks for copy-on-write; copying under
    // the command lock has the same observable semantics (a point-in-time
    // image) at the cost of a brief pause — see DESIGN.md.
    MutexLock guard(mu_);
    payload = SerializeMap(map_);
  }
  {
    MutexLock guard(save_mu_);
    save_queue_.push_back(SaveJob{token, std::move(payload)});
  }
  save_cv_.NotifyOne();
  return reply;
}

void RespStore::SaveLoop() {
  for (;;) {
    SaveJob job;
    {
      MutexLock lock(save_mu_);
      save_cv_.Wait(save_mu_,
                    [this] { return stop_save_ || !save_queue_.empty(); });
      if (stop_save_ && save_queue_.empty()) return;
      job = std::move(save_queue_.front());
      save_queue_.pop_front();
      save_in_progress_ = true;
    }
    std::string record;
    PutFixed64(&record, job.token);
    record += job.payload;
    uint64_t offset = 0;
    Status s = snap_log_.Append(record, &offset);
    if (s.ok()) s = snap_log_.Sync();
    {
      MutexLock guard(save_mu_);
      if (s.ok()) {
        durable_snapshots_[job.token] = offset;
      } else {
        DPR_ERROR("bgsave v%llu failed: %s",
                  static_cast<unsigned long long>(job.token),
                  s.ToString().c_str());
      }
      save_in_progress_ = false;
    }
    save_done_cv_.NotifyAll();
  }
}

void RespStore::WaitForSave() {
  MutexLock lock(save_mu_);
  save_done_cv_.Wait(
      save_mu_, [this] { return save_queue_.empty() && !save_in_progress_; });
}

uint64_t RespStore::LastSave() const {
  MutexLock guard(save_mu_);
  return durable_snapshots_.empty() ? 0 : durable_snapshots_.rbegin()->first;
}

RespReply RespStore::DoRestore(uint64_t version) {
  RespReply reply;
  WaitForSave();
  uint64_t token = 0;
  uint64_t offset = 0;
  bool found = false;
  {
    MutexLock guard(save_mu_);
    for (auto it = durable_snapshots_.rbegin();
         it != durable_snapshots_.rend(); ++it) {
      if (it->first <= version) {
        token = it->first;
        offset = it->second;
        found = true;
        break;
      }
    }
  }
  std::unordered_map<std::string, std::string> image;
  if (found) {
    // Locate the payload by replaying to the recorded offset.
    bool loaded = false;
    Status s = snap_log_.Replay([&](uint64_t off, Slice record) {
      if (off == offset && record.size() >= 8) {
        loaded = DeserializeMap(
            Slice(record.data() + 8, record.size() - 8), &image);
      }
    });
    if (!s.ok() || !loaded) {
      reply.status = Status::Corruption("snapshot load failed");
      return reply;
    }
  }
  {
    MutexLock guard(mu_);
    map_ = std::move(image);
  }
  // Durably discard newer snapshots so LASTSAVE never reports rolled-back
  // tokens after a crash.
  std::string marker;
  PutFixed64(&marker, kRollbackMarker);
  PutFixed64(&marker, token);
  Status s = snap_log_.Append(marker);
  if (s.ok()) s = snap_log_.Sync();
  if (s.ok()) {
    MutexLock guard(save_mu_);
    for (auto it = durable_snapshots_.upper_bound(token);
         it != durable_snapshots_.end();) {
      it = durable_snapshots_.erase(it);
    }
  }
  reply.status = s;
  reply.value.assign(reinterpret_cast<const char*>(&token), 8);
  return reply;
}

void RespStore::SimulateCrash() {
  WaitForSave();
  {
    MutexLock guard(mu_);
    map_.clear();
  }
  snap_log_.device()->SimulateCrash();
  if (options_.aof_device != nullptr) options_.aof_device->SimulateCrash();
  LoadDurableSnapshots();
}

uint64_t RespStore::size() const {
  MutexLock guard(mu_);
  return map_.size();
}

}  // namespace dpr
