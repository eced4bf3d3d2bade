#include "dfaster/migration_channel.h"

namespace dpr {

Status MigrationChannel::Install(const KvBatchRequest& request,
                                 KvBatchResponse* response) {
  std::string payload;
  if (request.install) {
    request.EncodeTo(&payload);
  } else {
    KvBatchRequest flagged = request;
    flagged.install = true;
    flagged.EncodeTo(&payload);
  }
  std::string response_bytes;
  {
    MutexLock lock(mu_);
    DPR_RETURN_NOT_OK(connection_->Call(payload, &response_bytes));
  }
  if (!response->DecodeFrom(response_bytes)) {
    return Status::IOError("undecodable migration-install response");
  }
  return Status::OK();
}

}  // namespace dpr
