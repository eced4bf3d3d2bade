#include "storage/checkpoint_file.h"

#include <cstdint>

#include "common/logging.h"

namespace dpr {

namespace {
constexpr uint64_t kImageAddressMask = (uint64_t{1} << 48) - 1;
}  // namespace

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

}  // namespace dpr
