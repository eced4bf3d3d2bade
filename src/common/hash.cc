#include "common/hash.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dpr {

uint64_t HashBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

namespace {

struct CrcTable {
  uint32_t table[256];
  constexpr CrcTable() : table{} {
    // CRC32C (Castagnoli) polynomial, reflected.
    constexpr uint32_t kPoly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      table[i] = crc;
    }
  }
};

constexpr CrcTable kCrcTable{};

}  // namespace

uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrcTable.table[(crc ^ p[i]) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)

bool Crc32cHardwareSupported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t n,
                                                          uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

#else

bool Crc32cHardwareSupported() { return false; }

uint32_t Crc32cHardware(const void* data, size_t n, uint32_t seed) {
  return Crc32cTable(data, n, seed);
}

#endif

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  return Crc32cHardwareSupported() ? Crc32cHardware(data, n, seed)
                                   : Crc32cTable(data, n, seed);
}

}  // namespace dpr
