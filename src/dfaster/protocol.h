#ifndef DPR_DFASTER_PROTOCOL_H_
#define DPR_DFASTER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "dpr/header.h"

namespace dpr {

/// One key-value operation inside a D-FASTER batch.
struct KvOp {
  enum class Type : uint8_t { kRead = 1, kUpsert = 2, kRmw = 3, kDelete = 4 };
  Type type = Type::kRead;
  uint64_t key = 0;
  uint64_t value = 0;  // upsert value / RMW delta
};

/// Per-op result codes (kept to one byte on the wire).
enum class KvResult : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kNotOwner = 2,
  kError = 3,
};

struct KvOpResult {
  KvResult result = KvResult::kOk;
  uint64_t value = 0;
};

/// Request batch: DPR header, a flags byte, then the op list. An empty op
/// list is a valid "ping" used to learn commit watermarks.
///
/// `install` marks the batch as a migration-install batch (cluster plane):
/// the receiving worker applies the ops to a partition it does not (yet) own,
/// skipping the per-op ownership check. Install batches are only ever sent
/// worker-to-worker by the migration driver, never by clients.
struct KvBatchRequest {
  DprRequestHeader header;
  bool install = false;
  std::vector<KvOp> ops;

  /// Appends the encoded request to `dst`, reserving its exact size first.
  void EncodeTo(std::string* dst) const { Encode(header, install, ops, dst); }
  /// The same encoding from parts, so a caller that keeps its ops elsewhere
  /// need not copy them into a request first.
  static void Encode(const DprRequestHeader& header, bool install,
                     std::span<const KvOp> ops, std::string* dst);
  bool DecodeFrom(Slice input);
};

/// Response batch: DPR response header followed by per-op results (empty on
/// rejection).
struct KvBatchResponse {
  DprResponseHeader header;
  std::vector<KvOpResult> results;

  /// Appends the encoded response to `dst`, reserving its exact size first.
  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input);
};

}  // namespace dpr

#endif  // DPR_DFASTER_PROTOCOL_H_
