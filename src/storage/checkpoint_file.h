#ifndef DPR_STORAGE_CHECKPOINT_FILE_H_
#define DPR_STORAGE_CHECKPOINT_FILE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"

namespace dpr {

/// Serialized hash-index image riding inside a checkpoint meta record: a
/// pair count followed by (bucket, entry word) pairs, the word packing the
/// entry's tag (high 16 bits) with its sub-boundary head address (low 48
/// bits). A full image lists every entry with a sub-boundary head; a delta
/// lists only entries dirtied since the chain base. Pairs are sorted by
/// bucket and each is encoded as varint(bucket gap), varint(address), then
/// the two tag bytes: about 7 bytes a pair. The image is framed by the
/// surrounding WAL record (length + CRC), so it carries no checksum of its
/// own.
struct IndexImage {
  std::vector<std::pair<uint32_t, uint64_t>> pairs;  // (bucket, entry word)

  /// `pairs` must be sorted by bucket.
  void AppendTo(std::string* out) const;
  /// Consumes one image from `dec`. Fails (false) on a truncated record.
  bool ParseFrom(Decoder* dec);
};

}  // namespace dpr

#endif  // DPR_STORAGE_CHECKPOINT_FILE_H_
