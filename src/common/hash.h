#ifndef DPR_COMMON_HASH_H_
#define DPR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace dpr {

/// 64-bit finalizer from MurmurHash3; good avalanche behaviour for integer
/// keys, used by the hash index and key-to-shard routing.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// FNV-1a over an arbitrary byte range; used for string keys and metadata.
uint64_t HashBytes(const void* data, size_t n);

/// CRC32C (Castagnoli) used to checksum log and checkpoint records. Runs
/// the SSE4.2 `crc32` instruction 8 bytes at a time when the CPU has it,
/// else a byte-at-a-time table loop; both give the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The two implementations behind Crc32c, exposed for the test that checks
/// they agree. Crc32cHardware may only be called when
/// Crc32cHardwareSupported() is true.
uint32_t Crc32cTable(const void* data, size_t n, uint32_t seed);
uint32_t Crc32cHardware(const void* data, size_t n, uint32_t seed);
bool Crc32cHardwareSupported();

}  // namespace dpr

#endif  // DPR_COMMON_HASH_H_
