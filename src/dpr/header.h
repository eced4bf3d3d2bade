#ifndef DPR_DPR_HEADER_H_
#define DPR_DPR_HEADER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "dpr/types.h"

namespace dpr {

class Decoder;

/// Wire form of a cut or dependency set, shared by the DPR headers and the
/// finder RPCs: [u32 n] n × ([u32 worker][u64 version]).
void EncodeCut(std::string* dst, const DprCut& cut);
bool DecodeCut(Decoder* dec, DprCut* cut);

/// DPR header prepended to every request batch (paper §6, Fig. 9): carries
/// the session's world-line, its version clock Vs, the compacted
/// dependency set of uncommitted prior operations, and the epoch of the
/// latest cut the session holds.
struct DprRequestHeader {
  uint64_t session_id = 0;
  WorldLine world_line = kInitialWorldLine;
  Version version = kInvalidVersion;  // Vs: largest version the session saw
  DependencySet deps;                 // per-worker max uncommitted version
  uint64_t cut_epoch = 0;             // epoch of the session's cut

  /// Bytes EncodeTo appends: four fixed64s, then the EncodeCut of deps.
  size_t EncodedSize() const { return 36 + 12 * deps.size(); }
  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input, size_t* consumed = nullptr);
};

/// Per-batch response header: which version the batch executed in, the
/// worker's world-line, and the worker's copy of the committed DPR cut —
/// the piggybacked commit notification that lets clients learn prefix
/// durability lazily (§4.2). The cut's entries ride along only when the
/// request's cut epoch differs from the worker's, so a session that is up
/// to date pays one epoch on the wire.
struct DprResponseHeader {
  enum class BatchStatus : uint8_t {
    kOk = 0,
    kWorldLineShift = 1,  // worker is on a newer world-line: session must
                          // compute its surviving prefix before continuing
    kRetryLater = 2,      // worker mid-recovery or behind the client's
                          // world-line; client should retry
  };

  BatchStatus status = BatchStatus::kOk;
  WorldLine world_line = kInitialWorldLine;
  Version executed_version = kInvalidVersion;  // version the batch ran in
  uint64_t cut_epoch = 0;  // epoch of the worker's cut
  DprCut cut;              // its entries; empty when the epochs matched

  /// Bytes EncodeTo appends: the status byte, three fixed64s, then the
  /// EncodeCut of cut.
  size_t EncodedSize() const { return 29 + 12 * cut.size(); }
  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input, size_t* consumed = nullptr);
};

}  // namespace dpr

#endif  // DPR_DPR_HEADER_H_
