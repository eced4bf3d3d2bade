#ifndef DPR_DFASTER_MIGRATION_CHANNEL_H_
#define DPR_DFASTER_MIGRATION_CHANNEL_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "common/sync.h"
#include "dfaster/protocol.h"
#include "net/rpc.h"

namespace dpr {

/// Path from a sealed source partition to its migration target (cluster
/// plane; DESIGN.md §4i). The source worker pushes two kinds of traffic
/// through it during the dual-ownership window: per-op forwards of new
/// writes, and bulk drain chunks of pre-existing records. Both are install
/// batches (KvBatchRequest::install) that bypass the target's ownership
/// check.
///
/// Install() is synchronous and is called with the source worker's version
/// latch held *shared* plus the partition's seal lock. The target must
/// therefore never run its admission on the calling thread: the two
/// workers' version latches share a lock rank, and equal-rank nesting is an
/// ordering bug the runtime rank checker aborts on. The channel encodes
/// install batches and sends them over an RpcConnection (in-memory or TCP),
/// so the target executes them on its transport's executor pool and
/// migrations exercise the same transport client traffic uses.
class MigrationChannel {
 public:
  MigrationChannel(WorkerId target, std::unique_ptr<RpcConnection> connection)
      : target_(target), connection_(std::move(connection)) {}

  /// Worker id of the migration target, used for dependency-set entries.
  WorkerId target() const { return target_; }

  /// Executes `request` at the target as a migration-install batch.
  /// Transport-level failure returns non-OK; a DPR-level rejection (e.g. the
  /// target shifted world-lines) surfaces in `response->header.status`.
  Status Install(const KvBatchRequest& request, KvBatchResponse* response);

 private:
  const WorkerId target_;
  // Serializes calls so installs arrive at the target in submission order
  // (the seal lock already serializes callers per partition; this guards the
  // channel if one is ever shared).
  Mutex mu_{LockRank::kMigrationChannel, "dfaster.migration_rpc"};
  std::unique_ptr<RpcConnection> connection_ PT_GUARDED_BY(mu_);
};

}  // namespace dpr

#endif  // DPR_DFASTER_MIGRATION_CHANNEL_H_
