#ifndef DPR_DREDIS_DREDIS_H_
#define DPR_DREDIS_DREDIS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "dpr/worker.h"
#include "net/rpc.h"
#include "respstore/resp_store.h"

namespace dpr {

/// Serves an unmodified RespStore ("Redis") over RPC: each message is an
/// encoded command batch, each response the encoded replies. The transport
/// invokes the handler from its shared executor pool, so concurrent batches
/// hit the store simultaneously; RespStore's internal map/save locks make
/// that safe.
class RespStoreServer {
 public:
  RespStoreServer(RespStore* store, std::unique_ptr<RpcServer> server);
  ~RespStoreServer();

  Status Start();
  void Stop();
  const std::string& address() const { return address_; }

 private:
  RespStore* store_;
  std::unique_ptr<RpcServer> server_;
  std::string address_;
};

/// Forwards every message unchanged to a backend endpoint — the paper's
/// "Redis + proxy" control configuration that isolates the cost of the extra
/// network hop from the cost of DPR itself (§7.5).
class PassThroughProxy {
 public:
  PassThroughProxy(std::unique_ptr<RpcConnection> backend,
                   std::unique_ptr<RpcServer> server);
  ~PassThroughProxy();

  Status Start();
  void Stop();
  const std::string& address() const { return address_; }

 private:
  std::unique_ptr<RpcConnection> backend_;
  std::unique_ptr<RpcServer> server_;
  std::string address_;
};

/// StateObject adapter over an *unmodified* remote cache-store: Commit() is
/// BGSAVE + LASTSAVE polling, Restore() is the store's snapshot reload
/// ("restarting the Redis instance", §6). The version counter lives here in
/// the wrapper; the store never learns about DPR.
class RemoteRespStateObject : public StateObject {
 public:
  /// `crash_handle` (optional) lets failure tests crash the backing store;
  /// it is not part of the protocol.
  RemoteRespStateObject(std::unique_ptr<RpcConnection> conn,
                        RespStore* crash_handle = nullptr);
  ~RemoteRespStateObject() override;

  /// RESP BGSAVE has no index image to attach, so `hints` are ignored.
  Status PerformCheckpoint(Version target_version, PersistCallback on_persist,
                           Version* out_token,
                           const CheckpointHints& hints) override;
  Status RestoreCheckpoint(Version version, Version* restored_token) override;
  Version CurrentVersion() const override {
    return version_.load(std::memory_order_acquire);
  }
  void SimulateCrash() override;

  RpcConnection* connection() { return conn_.get(); }

 private:
  void PollLoop();

  std::unique_ptr<RpcConnection> conn_;
  RespStore* crash_handle_;
  // release on checkpoint/rollback, acquire on read: a reader that observes
  // version v must also observe every state mutation published before the
  // bump (batches are fenced by the worker's version latch).
  std::atomic<uint64_t> version_{1};

  // Taken under the worker's exclusive version latch (PerformCheckpoint), so
  // it ranks with the store-side flush locks; never held across an RPC.
  Mutex mu_{LockRank::kStoreFlush, "dredis.stateobj"};
  CondVar cv_;
  struct Outstanding {
    Version token;
    PersistCallback callback;
  };
  std::deque<Outstanding> outstanding_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread poll_thread_;
};

/// The D-Redis proxy (paper Fig. 9): server-side libDPR (DprWorker) in front
/// of an unmodified store. Request wire format:
///   [DprRequestHeader][u32 op-count][encoded command batch]
/// Response:
///   [DprResponseHeader][encoded replies]
class DRedisProxy {
 public:
  struct Options {
    WorkerId id = 0;
    DprWorkerOptions dpr;  // finder + checkpoint interval
  };

  DRedisProxy(Options options, std::unique_ptr<RpcConnection> store_conn,
              std::unique_ptr<RpcServer> server,
              RespStore* crash_handle = nullptr);
  ~DRedisProxy();

  Status Start();
  void Stop();
  const std::string& address() const { return address_; }
  DprWorker* dpr_worker() { return dpr_worker_.get(); }

 private:
  void Handle(Slice request, std::string* response);

  Options options_;
  std::unique_ptr<DprWorker> dpr_worker_;
  // Declared after the worker so it is destroyed first: its poll thread
  // fires persistence callbacks into dpr_worker_ until it is joined.
  std::unique_ptr<RemoteRespStateObject> state_object_;
  std::unique_ptr<RpcServer> server_;
  std::string address_;
};

}  // namespace dpr

#endif  // DPR_DREDIS_DREDIS_H_
