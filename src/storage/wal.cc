#include "storage/wal.h"

// dprlint: allowed-file(lock-blocking) the WAL serializes appends by design:
// LockRank::kStorageWal is documented as held across device writes, and
// group commit (the part worth overlapping) lives in SyncIo::Fsync.

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace dpr {

namespace {
constexpr size_t kHeaderSize = 8;  // u32 length + u32 crc
// Replay reads this much at each record: the header, and all of a short
// record, in one device read.
constexpr size_t kReplayRead = 48;
}  // namespace

WriteAheadLog::WriteAheadLog(std::unique_ptr<Device> device)
    : device_(std::move(device)), tail_(device_->Size()) {}

Status WriteAheadLog::Append(Slice record, uint64_t* offset) {
  MutexLock guard(mu_);
  char header[kHeaderSize];
  const uint32_t len = static_cast<uint32_t>(record.size());
  const uint32_t crc = Crc32c(record.data(), record.size());
  memcpy(header, &len, 4);
  memcpy(header + 4, &crc, 4);
  const uint64_t start = tail_;
  DPR_RETURN_NOT_OK(SyncIo::Write(device_.get(), start, header, kHeaderSize));
  DPR_RETURN_NOT_OK(SyncIo::Write(device_.get(), start + kHeaderSize,
                                  record.data(), record.size()));
  tail_ = start + kHeaderSize + record.size();
  if (offset != nullptr) *offset = start;
  return Status::OK();
}

Status WriteAheadLog::Sync() { return SyncIo::Fsync(device_.get()); }

Status WriteAheadLog::Replay(
    const std::function<void(uint64_t, Slice)>& visitor, uint32_t max_visit) {
  MutexLock guard(mu_);
  const uint64_t end = device_->Size();
  uint64_t pos = 0;
  std::vector<char> buf;
  while (pos + kHeaderSize <= end) {
    char head[kReplayRead];
    const size_t got = std::min<uint64_t>(end - pos, kReplayRead);
    DPR_RETURN_NOT_OK(SyncIo::Read(device_.get(), pos, head, got));
    uint32_t len;
    uint32_t crc;
    memcpy(&len, head, 4);
    memcpy(&crc, head + 4, 4);
    if (pos + kHeaderSize + len > end) break;  // torn tail record
    if (len > max_visit) {
      pos += kHeaderSize + len;
      continue;
    }
    const char* body = head + kHeaderSize;
    if (kHeaderSize + len > got) {
      buf.resize(len);
      DPR_RETURN_NOT_OK(
          SyncIo::Read(device_.get(), pos + kHeaderSize, buf.data(), len));
      body = buf.data();
    }
    if (Crc32c(body, len) != crc) break;  // corrupt tail record
    // dprlint: allowed(callback-lock) the visitor runs under mu_ by
    // contract: replay is single-threaded recovery and the lock only
    // fences tail_ against a concurrent Append.
    visitor(pos, Slice(body, len));
    pos += kHeaderSize + len;
  }
  tail_ = pos;
  return Status::OK();
}

Status WriteAheadLog::ReadRecord(uint64_t offset, std::string* record) {
  const uint64_t end = device_->Size();
  if (offset > end || end - offset < kHeaderSize) {
    return Status::Corruption("WAL record header past end of log");
  }
  char header[kHeaderSize];
  DPR_RETURN_NOT_OK(SyncIo::Read(device_.get(), offset, header, kHeaderSize));
  uint32_t len;
  uint32_t crc;
  memcpy(&len, header, 4);
  memcpy(&crc, header + 4, 4);
  if (end - offset - kHeaderSize < len) {
    return Status::Corruption("WAL record body past end of log");
  }
  record->resize(len);
  DPR_RETURN_NOT_OK(
      SyncIo::Read(device_.get(), offset + kHeaderSize, record->data(), len));
  if (Crc32c(record->data(), len) != crc) {
    return Status::Corruption("WAL record checksum mismatch");
  }
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  MutexLock guard(mu_);
  device_->Truncate(0);
  DPR_RETURN_NOT_OK(SyncIo::Fsync(device_.get()));
  tail_ = 0;
  return Status::OK();
}

}  // namespace dpr
