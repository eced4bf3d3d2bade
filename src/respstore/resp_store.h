#ifndef DPR_RESPSTORE_RESP_STORE_H_
#define DPR_RESPSTORE_RESP_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/wal.h"

namespace dpr {

/// Command set of the Redis stand-in. Commands are length-prefixed binary
/// (equivalent in role to RESP); batches are concatenations of commands.
enum class RespOp : uint8_t {
  kGet = 1,
  kSet = 2,
  kDel = 3,
  kIncr = 4,      // 8-byte little-endian integer add
  kBgSave = 5,    // argument: version token; starts a background snapshot
  kLastSave = 6,  // returns the largest durable snapshot token
  kRestore = 7,   // argument: version; reload largest snapshot <= version
};

struct RespCommand {
  RespOp op;
  std::string key;
  std::string value;  // also carries the u64 argument for BGSAVE/RESTORE

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input, size_t* consumed);
};

struct RespReply {
  Status status;
  std::string value;

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice input, size_t* consumed);
};

struct RespStoreOptions {
  /// Device holding snapshot images (BGSAVE target).
  std::unique_ptr<Device> snapshot_device;
  /// When set, every write is appended to this append-only file and fsync'd
  /// before the command returns — Redis's appendfsync=always, used for the
  /// "synchronous recoverability" comparison (paper §7.6).
  std::unique_ptr<Device> aof_device;
  bool aof_enabled = false;
};

/// Unmodified-cache-store stand-in for Redis (paper §6): a single-threaded
/// in-memory hash map with BGSAVE-style background snapshots, LASTSAVE
/// polling, and restart-based restore. It knows nothing about DPR — the
/// D-Redis wrapper adds that from the outside via libDPR.
class RespStore {
 public:
  explicit RespStore(RespStoreOptions options);
  ~RespStore();

  RespStore(const RespStore&) = delete;
  RespStore& operator=(const RespStore&) = delete;

  /// Executes one command (serialized internally; Redis is single-threaded).
  RespReply Execute(const RespCommand& command);

  /// Executes an encoded command batch, appending encoded replies.
  Status ExecuteBatch(Slice batch, std::string* replies);

  /// Largest durable snapshot token (LASTSAVE).
  uint64_t LastSave() const;

  /// Drops all volatile state and unsynced storage, as a crash would;
  /// the caller restores via a kRestore command afterwards.
  void SimulateCrash();

  /// Blocks until no background save is running (test helper).
  void WaitForSave();

  uint64_t size() const;

 private:
  RespReply DoBgSave(uint64_t token);
  RespReply DoRestore(uint64_t version);
  void SaveLoop();
  Status AppendAof(const RespCommand& command);
  void LoadDurableSnapshots();

  RespStoreOptions options_;
  // Protects map_ (single-threaded-store emulation).
  mutable Mutex mu_{LockRank::kStoreFlush, "respstore.map"};
  std::unordered_map<std::string, std::string> map_ GUARDED_BY(mu_);

  // Snapshot pipeline. save_mu_ is held across snap-log replay, so it ranks
  // above kStorage; it never nests with mu_ (BgSave serializes the image
  // under mu_, releases, then enqueues under save_mu_).
  WriteAheadLog snap_log_;
  mutable Mutex save_mu_{LockRank::kStoreCheckpoints, "respstore.save"};
  CondVar save_cv_;
  CondVar save_done_cv_;
  struct SaveJob {
    uint64_t token;
    std::string payload;  // serialized map image
  };
  std::deque<SaveJob> save_queue_ GUARDED_BY(save_mu_);
  bool save_in_progress_ GUARDED_BY(save_mu_) = false;
  bool stop_save_ GUARDED_BY(save_mu_) = false;
  std::thread save_thread_;
  // token -> log offset
  std::map<uint64_t, uint64_t> durable_snapshots_ GUARDED_BY(save_mu_);
};

}  // namespace dpr

#endif  // DPR_RESPSTORE_RESP_STORE_H_
