#ifndef DPR_FASTER_FASTER_STORE_H_
#define DPR_FASTER_FASTER_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "dpr/state_object.h"
#include "epoch/light_epoch.h"
#include "faster/hash_index.h"
#include "faster/log_allocator.h"
#include "storage/device.h"
#include "storage/wal.h"

namespace dpr {

struct FasterOptions {
  /// 64-byte hash-index buckets of seven entries each, rounded up to a
  /// power of two. The default (8 MiB, ~917K entries) keeps a worker's
  /// ~500K keys almost entirely out of overflow buckets; tests shrink it to
  /// force overflow.
  uint64_t index_buckets = 1 << 17;
  /// log2 of the log page size.
  uint32_t page_bits = 20;
  /// Durable image of the record log (fold-over checkpoint target).
  std::unique_ptr<Device> log_device;
  /// Small device holding the checkpoint-metadata WAL.
  std::unique_ptr<Device> meta_device;
};

/// FASTER-style single-node key-value store (paper §5.1): a latch-free hash
/// index over a HybridLog with in-place updates in the mutable region,
/// read-copy-update below the read-only boundary, CPR-style fold-over
/// checkpoints, and the paper's non-blocking rollback state machine
/// REST -> THROW -> PURGE (§5.5, Fig. 8).
///
/// Checkpoint/version protocol (StateObject contract): operations execute in
/// the current version; PerformCheckpoint(target) stamps the boundary — a
/// metadata-only step — and flushes the log prefix asynchronously on the
/// background flush thread. Callers must guarantee no operation is
/// mid-flight across the PerformCheckpoint call itself (DprWorker's version
/// latch does, and DFasterWorker's batch latch in kEventual mode);
/// everything else — flushing, committing, rolling back with concurrent
/// readers — is non-blocking.
class FasterStore : public StateObject {
 public:
  explicit FasterStore(FasterOptions options);
  ~FasterStore() override;

  FasterStore(const FasterStore&) = delete;
  FasterStore& operator=(const FasterStore&) = delete;

  /// A session pins an epoch slot and is the unit of thread access; use one
  /// session per thread. Sessions are invalidated by SimulateCrash.
  class Session {
   public:
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    Status Read(uint64_t key, std::string* value);
    Status Read(uint64_t key, uint64_t* value);
    Status Upsert(uint64_t key, Slice value);
    Status Upsert(uint64_t key, uint64_t value);
    /// Atomic add for 8-byte values; inserts `delta` when absent.
    Status Rmw(uint64_t key, uint64_t delta, uint64_t* result = nullptr);
    Status Delete(uint64_t key);

    /// Starts loading the index buckets of `keys[0..n)` and then the head
    /// record of each key's chain, so a batch of ops that follows overlaps
    /// its cache misses instead of taking them one op at a time. A pure
    /// hint: it writes nothing, does nothing on a crashed store, and skips
    /// heads below the log's begin address (their pages may be freed).
    void Prefetch(const uint64_t* keys, size_t n);

    /// Re-publishes the epoch; call periodically from long-running loops.
    void Refresh();

   private:
    friend class FasterStore;
    explicit Session(FasterStore* store);
    FasterStore* store_;
    uint32_t ops_since_refresh_ = 0;
  };

  std::unique_ptr<Session> NewSession();

  // --- StateObject (libDPR) interface ---
  /// With default hints this is an image-less fold-over: ColdRecover
  /// rebuilds the index from an older image plus a scan of the log above
  /// it (or from the whole log). With hints.index_image the flush thread
  /// captures a hash-index image and persists it inside the checkpoint meta
  /// record, enabling chain restores that skip the full log scan. The flush
  /// thread picks the image: a delta over the newest durable image, or a
  /// full image when there is none, after a rollback or compaction, or when
  /// that image's chain already has kMaxChainLinks links.
  Status PerformCheckpoint(Version target_version, PersistCallback on_persist,
                           Version* out_token,
                           const CheckpointHints& hints) override;
  Status RestoreCheckpoint(Version version, Version* restored_token) override;
  Version CurrentVersion() const override {
    return version_.load(std::memory_order_acquire);
  }
  void SimulateCrash() override;

  // --- introspection ---
  LogAddress tail_address() const { return log_.tail(); }
  LogAddress read_only_address() const {
    return read_only_address_.load(std::memory_order_acquire);
  }
  /// Largest checkpoint token whose image is durable.
  Version LargestDurableToken() const;

  /// Visits the newest visible version of every live key (tombstones are
  /// skipped). Concurrent-safe but sees a fuzzy snapshot; used for key
  /// migration during ownership transfer.
  void Scan(const std::function<void(uint64_t key, Slice value)>& visitor)
      const;

  // --- log compaction / garbage collection ---
  // The paper requires that only entries inside the DPR guarantee are
  // garbage-collected. Compaction is two-phase:
  //  1. StartCompaction(safe_token): copies every live record below
  //     boundary(safe_token) to the tail (as ordinary writes in the current
  //     version) and takes a checkpoint containing the copies; returns that
  //     checkpoint's token.
  //  2. FinishCompaction(token, committed_watermark): once the DPR cut
  //     covers `token`, durably advances the log begin address, drops the
  //     now-unrestorable older checkpoints, and reclaims memory via an
  //     epoch-protected drain. Rejected while the cut lags.
  Status StartCompaction(Version safe_token, Version* compaction_token);
  Status FinishCompaction(Version compaction_token,
                          Version committed_watermark);
  LogAddress begin_address() const {
    return begin_.load(std::memory_order_acquire);
  }
  /// Blocks until no checkpoint flush is in flight (test helper).
  void WaitForCheckpoints();
  uint64_t approximate_record_count() const {
    return record_count_.load(std::memory_order_relaxed);
  }

 private:
  enum class RollbackState : int { kRest = 0, kThrow = 1, kPurge = 2 };

  struct FlushRequest {
    Version token;
    LogAddress boundary;
    PersistCallback callback;
    /// Enqueue time, for the stamp→durable checkpoint-latency histogram.
    uint64_t enqueue_us = 0;
    /// CheckpointHints::index_image, carried to the flush thread, which
    /// captures the image (full or delta is chosen at flush time, against
    /// durable state).
    bool index_image = false;
    /// Store-internal: the image must be full (a compaction checkpoint,
    /// which becomes the base of every later chain).
    bool force_full = false;
    /// Record count at the stamp, persisted with the image so a chain
    /// restore can reinstate the counter without scanning.
    uint64_t record_count = 0;
  };

  /// One durable checkpoint. `base` links a delta image to the newest
  /// durable image checkpoint it was diffed against (kInvalidVersion for
  /// full images and image-less checkpoints); `has_index` says the body
  /// of an index image for this token sits in the meta WAL at
  /// `image_offset`, making the token eligible as a delta base and as a
  /// chain-restore anchor.
  /// `links` counts the images a restore from this token installs (1 for a
  /// full image, 0 without an image).
  struct CkptEntry {
    LogAddress boundary = 0;
    Version base = kInvalidVersion;
    bool has_index = false;
    uint64_t image_offset = 0;
    uint32_t links = 0;
  };

  // PerformCheckpoint with the store-internal full-image demand.
  Status StampCheckpoint(Version target_version, PersistCallback on_persist,
                         Version* out_token, bool index_image,
                         bool force_full);
  Status ReadInternal(uint64_t key, std::string* out_str, uint64_t* out_int);
  Status UpsertInternal(uint64_t key, Slice value);
  // Walks `key`'s chain; returns the first visible matching record address
  // (kNullAddress if none) and the chain head observed.
  LogAddress FindRecord(uint64_t key, LogAddress* head_out) const;
  bool Visible(const RecordHeader* rec) const;
  LogAddress AppendRecord(uint64_t key, Slice value, bool tombstone,
                          LogAddress prev, uint32_t version);

  void FlushLoop();
  Status FlushRange(LogAddress from, LogAddress to);
  // `token` is the logical restore point; `boundary` is the flush boundary
  // of the largest durable checkpoint <= token (records below it all have
  // version <= token). When the restore point's own flush failed,
  // `cover_boundary` is the boundary of the next durable checkpoint above —
  // its flushed prefix still contains every record with version <= token —
  // and records in (token, cover] get purged. cover_boundary == boundary for
  // an exact-token restore.
  // `anchor` is the durable checkpoint whose boundary == cover_boundary
  // (the token itself on an exact restore): when it carries an index
  // image, recovery installs its delta chain instead of scanning the log;
  // otherwise it installs the newest image at or below `token` and scans
  // only the log above that image's boundary.
  Status ColdRecover(Version token, LogAddress boundary,
                     LogAddress cover_boundary, Version anchor);
  Status InMemoryRollback(Version token, LogAddress boundary,
                          LogAddress cover_boundary);
  // The steps both restore paths end with: durably forget checkpoints (and
  // pending compactions) above `token`, register a mid-gap restore point at
  // `cover_boundary` when it differs from `boundary`, force the next image
  // full, and return the rollback machine to REST.
  Status FinishRestore(Version token, LogAddress boundary,
                       LogAddress cover_boundary);
  Status AppendCheckpointMeta(uint8_t type, Version token,
                              LogAddress boundary);

  // --- delta-checkpoint machinery (DESIGN.md §4j) ---
  // Encodes the kMetaImageBody record for `req`, capturing the index image
  // on the flush thread. `base_boundary` is the flush boundary of the
  // delta's base, a durable image checkpoint (kNullAddress for a full
  // image).
  std::string EncodeImageBody(const FlushRequest& req,
                              LogAddress base_boundary);
  // The delta base for a new image: the largest durable image whose chain
  // has room for one more link, else kInvalidVersion (write a full image).
  Version DeltaBaseLocked() const REQUIRES(checkpoints_mu_);
  // Resolves the delta chain ending at `token` into the meta-WAL offsets of
  // its image bodies (ascending, base first). Fails (false) when any link
  // lacks an image or left the durable set.
  bool ResolveChainLocked(Version token, std::vector<uint64_t>* offsets) const
      REQUIRES(checkpoints_mu_);
  // The image a restore to `token` (anchored at `anchor`, see ColdRecover)
  // starts from: the anchor's own chain, else the newest checkpoint at or
  // below `token` whose chain resolves. Fills the chain's image offsets;
  // kInvalidVersion when there is none.
  Version NewestImageLocked(Version token, Version anchor,
                            std::vector<uint64_t>* offsets) const
      REQUIRES(checkpoints_mu_);
  // Reads (CRC-checked) the chain's image bodies at `offsets` and installs
  // them ascending, so deltas overlay their base. Touches only the index
  // and the meta WAL, so ColdRecover runs it beside the log load.
  Status InstallChainImages(const std::vector<uint64_t>& offsets,
                            uint64_t* restored_record_count);

  FasterOptions options_;
  LogAllocator log_;
  HashIndex index_;
  WriteAheadLog meta_wal_;
  // Declared after the structures its drain actions touch: ~LightEpoch runs
  // every pending action (a ReleasePagesBelow on log_), so it must be
  // destroyed while they are still alive.
  LightEpoch epoch_;

  // Store-state words read lock-free on every operation. release on the
  // writer side (version bump, checkpoint boundary install, rollback state
  // transition) / acquire on read: an op that observes the new word must
  // also observe the log/index state the transition published. They are
  // deliberately independent — in-place-update admission re-checks all of
  // them and the version latch fences batch boundaries.
  std::atomic<uint64_t> version_{1};
  std::atomic<LogAddress> begin_{LogAllocator::kBeginAddress};
  std::atomic<LogAddress> read_only_address_{LogAllocator::kBeginAddress};
  std::atomic<LogAddress> flushed_until_{LogAllocator::kBeginAddress};
  std::atomic<int> rollback_state_{static_cast<int>(RollbackState::kRest)};
  // Records with version in (ignore_low, ignore_high] are being rolled back
  // and must be ignored by all lookups (Fig. 8). Disabled when high == 0.
  // Release stores install/clear the window; lookups load-acquire high
  // first, so a nonzero high guarantees they see the matching low.
  std::atomic<uint64_t> ignore_low_{0};
  std::atomic<uint64_t> ignore_high_{0};
  // relaxed would do for these two (crash flag is a test hook checked at op
  // entry; record_count_ is a stat), but they ride the default seq_cst via
  // plain load/store at non-hot call sites.
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> record_count_{0};

  // Set after a rollback (either path): the next image checkpoint must be
  // full, because rollback invalid-marks records and registers image-less
  // covering entries — a chain must never span a world-line change.
  // release on set / acquire on the flush-thread read.
  std::atomic<bool> force_full_next_{false};

  // Durable checkpoints: token -> entry. Never nests with flush_mu_.
  mutable Mutex checkpoints_mu_{LockRank::kStoreCheckpoints,
                                "faster.checkpoints"};
  std::map<Version, CkptEntry> checkpoints_ GUARDED_BY(checkpoints_mu_);
  // In-flight compactions: compaction checkpoint token -> new begin address.
  std::map<Version, LogAddress> pending_compactions_
      GUARDED_BY(checkpoints_mu_);
  // How long the last SimulateCrash's meta-WAL replay took: the first stage
  // of the cold restore that follows it (faster.restore.total_us).
  uint64_t crash_replay_us_ GUARDED_BY(checkpoints_mu_) = 0;

  // Flush pipeline. flush_mu_ is held only for queue push/pop — never
  // across device I/O or the persistence callback.
  Mutex flush_mu_{LockRank::kStoreFlush, "faster.flush"};
  CondVar flush_cv_;
  CondVar flush_idle_cv_;
  std::deque<FlushRequest> flush_queue_ GUARDED_BY(flush_mu_);
  bool flush_in_progress_ GUARDED_BY(flush_mu_) = false;
  // CAS-claimed by PerformCheckpoint (one in flight), release-cleared when
  // the flush completes; acquire-read by the in-place-update admission check
  // so no mutation lands in a version being captured.
  std::atomic<bool> checkpoint_active_{false};
  std::thread flush_thread_;
  bool stop_flush_ GUARDED_BY(flush_mu_) = false;
};

}  // namespace dpr

#endif  // DPR_FASTER_FASTER_STORE_H_
