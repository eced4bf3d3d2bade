#ifndef DPR_DREDIS_CLIENT_H_
#define DPR_DREDIS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "dpr/session.h"
#include "net/rpc.h"
#include "respstore/resp_store.h"

namespace dpr {

struct DRedisClientConfig {
  uint32_t num_shards = 1;
  uint32_t batch_size = 16;  // pre-computed command batches (paper §7.1)
  uint32_t window = 1024;    // outstanding commands
  /// true  -> talk to D-Redis proxies (DPR header + libDPR tracking);
  /// false -> talk to plain Redis / pass-through proxies (raw batches).
  bool use_dpr = true;
};

/// Client for Redis-style deployments: plain Redis, Redis-behind-proxy, or
/// D-Redis (DPR). Keys are 8-byte integers serialized into the string key
/// space; values are 8-byte integers.
class DRedisClient {
 public:
  explicit DRedisClient(DRedisClientConfig config);

  void AddShard(uint32_t shard, std::unique_ptr<RpcConnection> conn);

  class Session {
   public:
    using OpCallback = std::function<void(Status, Slice value)>;

    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    void Set(uint64_t key, uint64_t value, OpCallback callback = nullptr);
    void Get(uint64_t key, OpCallback callback = nullptr);

    void Flush();
    Status WaitForAll(uint64_t timeout_ms = 30000);

    DprSession& dpr() { return dpr_session_; }
    uint64_t ops_issued() const { return ops_issued_; }

   private:
    friend class DRedisClient;
    Session(DRedisClient* client, uint64_t session_id);

    struct Batch {
      std::string body;  // encoded commands
      uint32_t count = 0;
      std::vector<OpCallback> callbacks;
    };

    void Issue(uint32_t shard, const RespCommand& cmd, OpCallback callback);
    void Dispatch(uint32_t shard);
    void OnResponse(std::shared_ptr<Batch> batch, uint64_t start_seqno,
                    Status transport, Slice payload);
    void RunCallbacks(const Batch& batch, Slice replies, const Status& error);

    DRedisClient* client_;
    DprSession dpr_session_;
    std::map<uint32_t, Batch> building_;
    uint64_t ops_issued_ = 0;

    Mutex mu_{LockRank::kClientWindow, "dredis.client.window"};
    CondVar window_cv_;
    uint64_t outstanding_ GUARDED_BY(mu_) = 0;
  };

  std::unique_ptr<Session> NewSession(uint64_t session_id);

  const DRedisClientConfig& config() const { return config_; }

  static uint32_t ShardOf(uint64_t key, uint32_t num_shards);

 private:
  friend class Session;
  DRedisClientConfig config_;
  std::map<uint32_t, std::unique_ptr<RpcConnection>> shards_;
};

}  // namespace dpr

#endif  // DPR_DREDIS_CLIENT_H_
