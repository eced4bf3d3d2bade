#include "storage/checkpoint_file.h"

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "storage/fsync_scheduler.h"

namespace dpr {

namespace {
constexpr uint64_t kMagic = 0xd1c7b10bcafef00dULL;
constexpr size_t kHeaderSize = 8 + 8 + 8 + 4;  // magic, token, len, crc
constexpr uint64_t kImageAddressMask = (uint64_t{1} << 48) - 1;
}  // namespace

Status CheckpointBlob::Write(Device* device, uint64_t offset,
                             uint64_t version_token, Slice payload,
                             GroupCommitScheduler* scheduler) {
  char header[kHeaderSize];
  const uint64_t len = payload.size();
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  memcpy(header, &kMagic, 8);
  memcpy(header + 8, &version_token, 8);
  memcpy(header + 16, &len, 8);
  memcpy(header + 24, &crc, 4);
  // Payload first, header last: a torn write cannot produce a blob whose
  // header validates but whose body is incomplete.
  DPR_RETURN_NOT_OK(SyncIo::Write(device, offset + kHeaderSize,
                                  payload.data(), payload.size()));
  DPR_RETURN_NOT_OK(SyncIo::Write(device, offset, header, kHeaderSize));
  if (scheduler != nullptr) return scheduler->SyncNow(device);
  return SyncIo::Fsync(device);
}

void IndexImage::AppendTo(std::string* out) const {
  PutFixed64(out, pairs.size());
  uint32_t prev = 0;
  for (const auto& [bucket, word] : pairs) {
    DPR_CHECK(bucket >= prev);
    PutVarint64(out, bucket - prev);
    PutVarint64(out, word & kImageAddressMask);
    const uint16_t high = static_cast<uint16_t>(word >> 48);
    out->append(reinterpret_cast<const char*>(&high), 2);
    prev = bucket;
  }
}

bool IndexImage::ParseFrom(Decoder* dec) {
  uint64_t count;
  if (!dec->GetFixed64(&count)) return false;
  // Each pair takes at least four bytes; this bounds the reservation.
  if (dec->remaining() / 4 < count) return false;
  pairs.clear();
  pairs.reserve(count);
  uint64_t bucket = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap;
    uint64_t address;
    uint16_t high;
    if (!dec->GetVarint64(&gap) || !dec->GetVarint64(&address) ||
        !dec->GetBytes(&high, 2) || address > kImageAddressMask ||
        gap > UINT32_MAX - bucket) {
      return false;
    }
    bucket += gap;
    pairs.emplace_back(static_cast<uint32_t>(bucket),
                       uint64_t{high} << 48 | address);
  }
  return true;
}

Status CheckpointBlob::Read(Device* device, uint64_t offset,
                            std::string* payload, uint64_t* version_token) {
  if (device->Size() < offset + kHeaderSize) {
    return Status::NotFound("no checkpoint blob");
  }
  char header[kHeaderSize];
  DPR_RETURN_NOT_OK(SyncIo::Read(device, offset, header, kHeaderSize));
  uint64_t magic;
  uint64_t token;
  uint64_t len;
  uint32_t crc;
  memcpy(&magic, header, 8);
  memcpy(&token, header + 8, 8);
  memcpy(&len, header + 16, 8);
  memcpy(&crc, header + 24, 4);
  if (magic != kMagic) return Status::NotFound("bad checkpoint magic");
  if (device->Size() < offset + kHeaderSize + len) {
    return Status::Corruption("truncated checkpoint blob");
  }
  payload->resize(len);
  DPR_RETURN_NOT_OK(
      SyncIo::Read(device, offset + kHeaderSize, payload->data(), len));
  if (Crc32c(payload->data(), len) != crc) {
    return Status::Corruption("checkpoint blob checksum mismatch");
  }
  if (version_token != nullptr) *version_token = token;
  return Status::OK();
}

}  // namespace dpr
