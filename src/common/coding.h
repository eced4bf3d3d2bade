#ifndef DPR_COMMON_CODING_H_
#define DPR_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace dpr {

/// Little-endian fixed-width encoders/decoders used by all wire and disk
/// formats in this repo (x86-64 targets; we memcpy rather than cast for
/// alignment safety).

inline void PutFixed32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

/// LEB128 varint: 7 bits per byte, low bits first, at most 10 bytes.
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

inline void PutLengthPrefixed(std::string* dst, Slice value) {
  PutFixed32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

/// Cursor-style reader with bounds checking; all Get* return false on
/// underflow, leaving the cursor unspecified.
class Decoder {
 public:
  explicit Decoder(Slice input) : p_(input.data()), end_(input.data() + input.size()) {}

  bool GetFixed32(uint32_t* v) {
    if (p_ + 4 > end_) return false;
    *v = DecodeFixed32(p_);
    p_ += 4;
    return true;
  }

  bool GetFixed64(uint64_t* v) {
    if (p_ + 8 > end_) return false;
    *v = DecodeFixed64(p_);
    p_ += 8;
    return true;
  }

  bool GetVarint64(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64 && p_ < end_; shift += 7) {
      const uint64_t byte = static_cast<unsigned char>(*p_++);
      result |= (byte & 0x7f) << shift;
      if (byte < 0x80) {
        *v = result;
        return true;
      }
    }
    return false;  // truncated, or longer than 10 bytes
  }

  bool GetLengthPrefixed(Slice* out) {
    uint32_t len;
    if (!GetFixed32(&len)) return false;
    if (p_ + len > end_) return false;
    *out = Slice(p_, len);
    p_ += len;
    return true;
  }

  bool GetBytes(void* out, size_t n) {
    if (p_ + n > end_) return false;
    memcpy(out, p_, n);
    p_ += n;
    return true;
  }

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  const char* position() const { return p_; }
  void Skip(size_t n) { p_ += n; }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace dpr

#endif  // DPR_COMMON_CODING_H_
