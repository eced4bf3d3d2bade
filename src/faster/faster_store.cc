#include "faster/faster_store.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/checkpoint_file.h"

namespace dpr {

namespace {
// Checkpoint-metadata WAL record types (DESIGN.md §4j):
//   kMetaCheckpoint: type, token, boundary (an image-less checkpoint)
//   kMetaRollback:   type, token, boundary
//   kMetaBegin:      type, token, boundary (log-begin advance, compaction)
//   kMetaFullIndex:  type, token, boundary, body offset
//   kMetaDelta:      type, token, boundary, base_token, body offset
//   kMetaImageBody:  type, record_count, IndexImage (a delta lists only the
//                    entries dirtied since base_token)
// An image checkpoint appends its body, then the descriptor (full or
// delta) naming the body's offset, and one Sync covers both. A crash replay
// reads only records up to kMetaReplayCap bytes, so it registers every
// descriptor and skips the image bodies unread; a restore reads and
// CRC-checks just the bodies of the chain it installs.
constexpr uint8_t kMetaCheckpoint = 1;
constexpr uint8_t kMetaRollback = 2;
constexpr uint8_t kMetaBegin = 3;
constexpr uint8_t kMetaFullIndex = 4;
constexpr uint8_t kMetaDelta = 5;
constexpr uint8_t kMetaImageBody = 6;
// Every record but an image body fits (a delta descriptor is 33 bytes); a
// body under the cap (a handful of pairs) is read and ignored.
constexpr uint32_t kMetaReplayCap = 48;
constexpr size_t kMaxValueSize = 4096;
// A delta chain (a full image plus the deltas over it) never grows past
// this many links: the next image after a full chain is full, which bounds
// both a chain restore's image reads and the meta WAL a chain pins.
constexpr uint32_t kMaxChainLinks = 16;

struct StoreMetrics {
  Counter* checkpoints_stamped;
  Counter* checkpoints_flushed;
  Counter* flush_failures;
  Gauge* flush_queue_depth;
  ShardedHistogram* stamp_us;        // metadata-only version-bump phase
  ShardedHistogram* flush_us;        // I/O phase, dequeue -> durable
  ShardedHistogram* stamp_to_durable_us;  // enqueue -> callback, total
  // ckpt.* plane: per-checkpoint byte accounting and restore-path counts.
  Counter* ckpt_full;                // durable checkpoints with a full image
  Counter* ckpt_delta;               // durable checkpoints with a delta image
  Counter* ckpt_log_bytes;           // log bytes flushed for checkpoints
  Counter* ckpt_index_bytes;         // meta-WAL bytes for checkpoint records
  Counter* ckpt_chain_restores;      // restores served from an image chain
  Counter* ckpt_scan_restores;       // restores that fell back to a log scan
  ShardedHistogram* ckpt_chain_length;  // images installed per chain restore
  // faster.restore.*: the stages of one cold restore.
  ShardedHistogram* restore_meta_replay_us;     // SimulateCrash's WAL replay
  ShardedHistogram* restore_log_load_us;        // durable log prefix read
  ShardedHistogram* restore_image_install_us;   // chain images, helper thread
  ShardedHistogram* restore_total_us;           // replay + ColdRecover
};

// type, token, boundary: how every meta-WAL record but an image body starts.
std::string MetaRecord(uint8_t type, Version token, LogAddress boundary) {
  std::string rec(1, static_cast<char>(type));
  PutFixed64(&rec, token);
  PutFixed64(&rec, boundary);
  return rec;
}

// The one log walk: visits every record in [from, to) as visit(pos, rec),
// skipping the zeroed remainder at the end of each page (too short for a
// header, or never written). `Log` is LogAllocator or const LogAllocator, so
// `rec` is mutable exactly when the log is. A template, so each caller's
// visitor inlines into the loop.
template <typename Log, typename Visit>
void ForEachRecord(Log& log, LogAddress from, LogAddress to, Visit&& visit) {
  const uint64_t page_mask = log.page_size() - 1;
  LogAddress pos = from;
  while (pos < to) {
    if (log.page_size() - (pos & page_mask) < sizeof(RecordHeader)) {
      pos = (pos | page_mask) + 1;
      continue;
    }
    auto* rec = log.RecordAt(pos);
    if (rec->key == 0 && rec->version == 0 && rec->value_size == 0 &&
        rec->LoadFlags() == 0) {
      pos = (pos | page_mask) + 1;
      continue;
    }
    visit(pos, rec);
    pos += rec->size();
  }
}

const StoreMetrics& Metrics() {
  static const StoreMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return StoreMetrics{r.counter("faster.checkpoints_stamped"),
                        r.counter("faster.checkpoints_flushed"),
                        r.counter("faster.flush_failures"),
                        r.gauge("faster.flush_queue_depth"),
                        r.histogram("faster.checkpoint.stamp_us"),
                        r.histogram("faster.checkpoint.flush_us"),
                        r.histogram("faster.checkpoint.stamp_to_durable_us"),
                        r.counter("ckpt.full"),
                        r.counter("ckpt.delta"),
                        r.counter("ckpt.log_bytes_persisted"),
                        r.counter("ckpt.index_bytes_persisted"),
                        r.counter("ckpt.chain_restores"),
                        r.counter("ckpt.scan_restores"),
                        r.histogram("ckpt.chain_length"),
                        r.histogram("faster.restore.meta_replay_us"),
                        r.histogram("faster.restore.log_load_us"),
                        r.histogram("faster.restore.image_install_us"),
                        r.histogram("faster.restore.total_us")};
  }();
  return m;
}

}  // namespace

FasterStore::FasterStore(FasterOptions options)
    : options_(std::move(options)),
      log_(options_.page_bits),
      index_(options_.index_buckets),
      meta_wal_(options_.meta_device != nullptr
                    ? std::move(options_.meta_device)
                    : std::make_unique<MemoryDevice>()) {
  if (options_.log_device == nullptr) {
    options_.log_device = std::make_unique<MemoryDevice>();
  }
  flush_thread_ = std::thread([this] { FlushLoop(); });
}

FasterStore::~FasterStore() {
  {
    MutexLock guard(flush_mu_);
    stop_flush_ = true;
  }
  flush_cv_.NotifyAll();
  if (flush_thread_.joinable()) flush_thread_.join();
}

// ---------------------------------------------------------------- sessions

FasterStore::Session::Session(FasterStore* store) : store_(store) {
  store_->epoch_.Protect();
}

FasterStore::Session::~Session() { store_->epoch_.Unprotect(); }

std::unique_ptr<FasterStore::Session> FasterStore::NewSession() {
  return std::unique_ptr<Session>(new Session(this));
}

void FasterStore::Session::Refresh() { store_->epoch_.Refresh(); }

void FasterStore::Session::Prefetch(const uint64_t* keys, size_t n) {
  const FasterStore* s = store_;
  if (s->crashed_.load(std::memory_order_acquire)) return;
  // Two passes: every bucket miss is in flight before the first Head waits
  // on one, and every head record before the batch's first op reads it.
  for (size_t i = 0; i < n; ++i) s->index_.Prefetch(keys[i]);
  const LogAddress begin = s->begin_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    const LogAddress head = s->index_.Head(keys[i]);
    if (head != kNullAddress && head >= begin) {
      __builtin_prefetch(s->log_.RecordAt(head));
    }
  }
}

Status FasterStore::Session::Read(uint64_t key, std::string* value) {
  if (++ops_since_refresh_ >= 256) {
    ops_since_refresh_ = 0;
    Refresh();
  }
  return store_->ReadInternal(key, value, nullptr);
}

Status FasterStore::Session::Read(uint64_t key, uint64_t* value) {
  if (++ops_since_refresh_ >= 256) {
    ops_since_refresh_ = 0;
    Refresh();
  }
  return store_->ReadInternal(key, nullptr, value);
}

Status FasterStore::Session::Upsert(uint64_t key, Slice value) {
  if (++ops_since_refresh_ >= 256) {
    ops_since_refresh_ = 0;
    Refresh();
  }
  return store_->UpsertInternal(key, value);
}

Status FasterStore::Session::Upsert(uint64_t key, uint64_t value) {
  return Upsert(key, Slice(reinterpret_cast<const char*>(&value), 8));
}

Status FasterStore::Session::Delete(uint64_t key) {
  if (++ops_since_refresh_ >= 256) {
    ops_since_refresh_ = 0;
    Refresh();
  }
  return store_->UpsertInternal(key, Slice(nullptr, 0));
}

Status FasterStore::Session::Rmw(uint64_t key, uint64_t delta,
                                 uint64_t* result) {
  if (++ops_since_refresh_ >= 256) {
    ops_since_refresh_ = 0;
    Refresh();
  }
  FasterStore* s = store_;
  if (s->crashed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("store crashed; awaiting restore");
  }
  for (;;) {
    const uint64_t v = s->version_.load(std::memory_order_acquire);
    LogAddress head;
    const LogAddress found = s->FindRecord(key, &head);
    if (found != kNullAddress) {
      RecordHeader* rec = s->log_.RecordAt(found);
      if (!rec->tombstone() && rec->value_size == 8 &&
          found >= s->read_only_address_.load(std::memory_order_acquire) &&
          s->rollback_state_.load(std::memory_order_acquire) ==
              static_cast<int>(RollbackState::kRest) &&
          !s->checkpoint_active_.load(std::memory_order_acquire)) {
        // In-place atomic add in the mutable region.
        std::atomic_ref<uint64_t> cell(
            *reinterpret_cast<uint64_t*>(rec->value()));
        const uint64_t updated =
            cell.fetch_add(delta, std::memory_order_acq_rel) + delta;
        if (result != nullptr) *result = updated;
        return Status::OK();
      }
    }
    // RCU: read-modify-write into a fresh record at the tail.
    uint64_t base = 0;
    if (found != kNullAddress) {
      const RecordHeader* rec = s->log_.RecordAt(found);
      if (!rec->tombstone() && rec->value_size == 8) {
        memcpy(&base, rec->value(), 8);
      }
    }
    const uint64_t updated = base + delta;
    LogAddress expected = head;
    const LogAddress fresh = s->AppendRecord(
        key, Slice(reinterpret_cast<const char*>(&updated), 8),
        /*tombstone=*/false, expected, static_cast<uint32_t>(v));
    if (s->index_.CasHead(key, &expected, fresh)) {
      if (result != nullptr) *result = updated;
      s->record_count_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    // Lost the CAS: the chain advanced; seal the orphan and retry the whole
    // RMW against the fresh head.
    s->log_.RecordAt(fresh)->SetFlag(RecordHeader::kInvalid);
  }
}

// ------------------------------------------------------------------- reads

bool FasterStore::Visible(const RecordHeader* rec) const {
  if (rec->invalid()) return false;
  const uint64_t high = ignore_high_.load(std::memory_order_acquire);
  if (high != 0) {
    const uint64_t low = ignore_low_.load(std::memory_order_acquire);
    if (rec->version > low && rec->version <= high) return false;
  }
  return true;
}

LogAddress FasterStore::FindRecord(uint64_t key, LogAddress* head_out) const {
  const LogAddress head = index_.Head(key);
  if (head_out != nullptr) *head_out = head;
  LogAddress addr = head;
  const LogAddress begin = begin_.load(std::memory_order_acquire);
  while (addr != kNullAddress && addr >= begin) {
    const RecordHeader* rec = log_.RecordAt(addr);
    if (rec->key == key && Visible(rec)) return addr;
    addr = rec->prev;
  }
  return kNullAddress;
}

Status FasterStore::ReadInternal(uint64_t key, std::string* out_str,
                                 uint64_t* out_int) {
  if (crashed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("store crashed; awaiting restore");
  }
  const LogAddress found = FindRecord(key, nullptr);
  if (found == kNullAddress) return Status::NotFound();
  const RecordHeader* rec = log_.RecordAt(found);
  if (rec->tombstone()) return Status::NotFound();
  if (out_int != nullptr) {
    if (rec->value_size != 8) {
      return Status::InvalidArgument("value is not 8 bytes");
    }
    *out_int = std::atomic_ref<const uint64_t>(
                   *reinterpret_cast<const uint64_t*>(rec->value()))
                   .load(std::memory_order_acquire);
  }
  if (out_str != nullptr) {
    // Values longer than 8 bytes are never updated in place, so this copy
    // cannot tear; 8-byte values are read atomically above the memcpy.
    if (rec->value_size == 8) {
      uint64_t v = std::atomic_ref<const uint64_t>(
                       *reinterpret_cast<const uint64_t*>(rec->value()))
                       .load(std::memory_order_acquire);
      out_str->assign(reinterpret_cast<const char*>(&v), 8);
    } else {
      out_str->assign(rec->value(), rec->value_size);
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------------ writes

LogAddress FasterStore::AppendRecord(uint64_t key, Slice value, bool tombstone,
                                     LogAddress prev, uint32_t version) {
  const uint64_t size = RecordHeader::SizeWith(
      static_cast<uint16_t>(value.size()));
  const LogAddress addr = log_.Allocate(size);
  RecordHeader* rec = log_.RecordAt(addr);
  rec->prev = prev;
  rec->key = key;
  rec->version = version;
  rec->value_size = static_cast<uint16_t>(value.size());
  rec->flags = tombstone ? RecordHeader::kTombstone : 0;
  if (!value.empty()) memcpy(rec->value(), value.data(), value.size());
  return addr;
}

Status FasterStore::UpsertInternal(uint64_t key, Slice value) {
  if (crashed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("store crashed; awaiting restore");
  }
  if (value.size() > kMaxValueSize) {
    return Status::InvalidArgument("value too large");
  }
  const bool tombstone = value.data() == nullptr;
  for (;;) {
    LogAddress head;
    const LogAddress found = FindRecord(key, &head);
    const uint64_t v = version_.load(std::memory_order_acquire);
    if (!tombstone && found != kNullAddress) {
      RecordHeader* rec = log_.RecordAt(found);
      if (!rec->tombstone() && rec->value_size == 8 && value.size() == 8 &&
          found >= read_only_address_.load(std::memory_order_acquire) &&
          rollback_state_.load(std::memory_order_acquire) ==
              static_cast<int>(RollbackState::kRest) &&
          !checkpoint_active_.load(std::memory_order_acquire)) {
        // In-place update: mutable-region records belong to the current
        // version, so no new version stamp is needed. While a checkpoint is
        // in flight the store runs in CPR's reduced-performance mode — all
        // updates take the RCU path (paper §5.5 / §7.2: frequent
        // checkpoints over slow storage keep the store in the slow path).
        std::atomic_ref<uint64_t> cell(
            *reinterpret_cast<uint64_t*>(rec->value()));
        uint64_t nv;
        memcpy(&nv, value.data(), 8);
        cell.store(nv, std::memory_order_release);
        return Status::OK();
      }
    }
    LogAddress expected = head;
    const LogAddress fresh =
        AppendRecord(key, tombstone ? Slice("", 0) : value, tombstone,
                     expected, static_cast<uint32_t>(v));
    if (tombstone) log_.RecordAt(fresh)->SetFlag(RecordHeader::kTombstone);
    if (index_.CasHead(key, &expected, fresh)) {
      record_count_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    log_.RecordAt(fresh)->SetFlag(RecordHeader::kInvalid);
  }
}

// ------------------------------------------------------------- checkpoints

Status FasterStore::PerformCheckpoint(Version target_version,
                                      PersistCallback on_persist,
                                      Version* out_token,
                                      const CheckpointHints& hints) {
  return StampCheckpoint(target_version, std::move(on_persist), out_token,
                         hints.index_image, /*force_full=*/false);
}

Status FasterStore::StampCheckpoint(Version target_version,
                                    PersistCallback on_persist,
                                    Version* out_token, bool index_image,
                                    bool force_full) {
  if (crashed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("store crashed");
  }
  if (rollback_state_.load(std::memory_order_acquire) !=
      static_cast<int>(RollbackState::kRest)) {
    return Status::Busy("rollback in progress");
  }
  bool expected = false;
  if (!checkpoint_active_.compare_exchange_strong(expected, true)) {
    return Status::Busy("checkpoint already in progress");
  }
  const Version token = version_.load(std::memory_order_acquire);
  if (target_version <= token) {
    checkpoint_active_.store(false, std::memory_order_release);
    return Status::InvalidArgument("target version must exceed current");
  }
  DPR_CHECK_MSG(target_version < (uint64_t{1} << 32),
                "version overflows record stamp");
  const uint64_t start_us = NowMicros();
  // Draw the boundary: everything below `boundary` belongs to versions
  // <= token and becomes immutable (fold-over); new operations run in
  // target_version above it. Metadata-only — the flush is asynchronous.
  const LogAddress boundary = log_.tail();
  read_only_address_.store(boundary, std::memory_order_release);
  version_.store(target_version, std::memory_order_release);
  const uint64_t enqueue_us = NowMicros();
  {
    MutexLock guard(flush_mu_);
    flush_queue_.push_back(FlushRequest{
        token, boundary, std::move(on_persist), enqueue_us, index_image,
        force_full, record_count_.load(std::memory_order_relaxed)});
    Metrics().flush_queue_depth->Set(
        static_cast<int64_t>(flush_queue_.size()));
  }
  flush_cv_.NotifyAll();
  Metrics().checkpoints_stamped->Add();
  Metrics().stamp_us->Record(enqueue_us - start_us);
  if (out_token != nullptr) *out_token = token;
  return Status::OK();
}

Status FasterStore::FlushRange(LogAddress from, LogAddress to) {
  // The range is immutable (below the read-only boundary); copy it out in
  // page-sized chunks and submit them asynchronously — the chunks complete
  // out of order on the I/O engine, with a bounded in-flight window so a
  // huge range cannot pin unbounded copy buffers.
  constexpr size_t kMaxInflightChunks = 8;
  struct BatchState {
    Mutex mu{LockRank::kStorageIoWait, "faster.flush_batch"};
    CondVar cv;
    size_t outstanding GUARDED_BY(mu) = 0;
    Status first_error GUARDED_BY(mu);
  };
  auto state = std::make_shared<BatchState>();
  const uint64_t chunk = log_.page_size();
  LogAddress pos = from;
  while (pos < to) {
    const uint64_t page_end = (pos | (chunk - 1)) + 1;
    const uint64_t n = std::min<uint64_t>(page_end, to) - pos;
    auto buf = std::make_shared<std::vector<char>>(n);
    memcpy(buf->data(), log_.Resolve(pos), n);
    {
      MutexLock guard(state->mu);
      while (state->outstanding >= kMaxInflightChunks) {
        state->cv.Wait(state->mu);
      }
      ++state->outstanding;
    }
    // `buf` is captured by the completion, keeping the copy alive until the
    // engine is done with it.
    options_.log_device->SubmitWrite(
        pos, buf->data(), n, [state, buf](Status s) {
          MutexLock guard(state->mu);
          if (!s.ok() && state->first_error.ok()) {
            state->first_error = std::move(s);
          }
          --state->outstanding;
          state->cv.NotifyAll();
        });
    pos += n;
  }
  {
    MutexLock guard(state->mu);
    while (state->outstanding > 0) state->cv.Wait(state->mu);
    DPR_RETURN_NOT_OK(state->first_error);
  }
  return SyncIo::Fsync(options_.log_device.get());
}

Status FasterStore::AppendCheckpointMeta(uint8_t type, Version token,
                                         LogAddress boundary) {
  DPR_RETURN_NOT_OK(meta_wal_.Append(MetaRecord(type, token, boundary)));
  return meta_wal_.Sync();
}

void FasterStore::FlushLoop() {
  for (;;) {
    FlushRequest req;
    {
      MutexLock lock(flush_mu_);
      flush_cv_.Wait(flush_mu_,
                     [this]() REQUIRES(flush_mu_) {
                       return stop_flush_ || !flush_queue_.empty();
                     });
      if (stop_flush_ && flush_queue_.empty()) return;
      req = std::move(flush_queue_.front());
      flush_queue_.pop_front();
      Metrics().flush_queue_depth->Set(
          static_cast<int64_t>(flush_queue_.size()));
      flush_in_progress_ = true;
    }
    const uint64_t flush_start_us = NowMicros();
    const LogAddress from = flushed_until_.load(std::memory_order_acquire);
    Status s = Status::OK();
    if (req.boundary > from) s = FlushRange(from, req.boundary);
    uint64_t meta_bytes = 0;
    Version base = kInvalidVersion;
    uint64_t image_offset = 0;
    uint32_t links = 0;
    if (s.ok()) {
      if (req.index_image) {
        // Full or delta is decided here, at flush time, against the
        // *durable* checkpoint set: a failed earlier flush simply widens the
        // delta (dirtiness is judged per entry against the base's boundary,
        // which is valid for any durable image base — entry addresses only
        // grow).
        LogAddress base_boundary = kNullAddress;
        links = 1;
        if (!req.force_full &&
            !force_full_next_.load(std::memory_order_acquire)) {
          MutexLock guard(checkpoints_mu_);
          base = DeltaBaseLocked();
          if (base != kInvalidVersion) {
            const CkptEntry& b = checkpoints_.at(base);
            base_boundary = b.boundary;
            links = b.links + 1;
          }
        }
        const std::string body = EncodeImageBody(req, base_boundary);
        s = meta_wal_.Append(body, &image_offset);
        if (s.ok()) {
          std::string desc = MetaRecord(
              base == kInvalidVersion ? kMetaFullIndex : kMetaDelta,
              req.token, req.boundary);
          if (base != kInvalidVersion) PutFixed64(&desc, base);
          PutFixed64(&desc, image_offset);
          meta_bytes = body.size() + desc.size();
          s = meta_wal_.Append(desc);
        }
        if (s.ok()) s = meta_wal_.Sync();
      } else {
        s = AppendCheckpointMeta(kMetaCheckpoint, req.token, req.boundary);
        meta_bytes = 17;
      }
    }
    if (s.ok()) {
      {
        MutexLock guard(checkpoints_mu_);
        checkpoints_[req.token] = CkptEntry{req.boundary, base,
                                            req.index_image, image_offset,
                                            links};
      }
      if (req.index_image && base == kInvalidVersion) {
        force_full_next_.store(false, std::memory_order_release);
      }
      if (req.boundary > from) {
        flushed_until_.store(req.boundary, std::memory_order_release);
      }
      const uint64_t done_us = NowMicros();
      Metrics().checkpoints_flushed->Add();
      Metrics().flush_us->Record(done_us - flush_start_us);
      if (req.enqueue_us != 0 && done_us > req.enqueue_us) {
        Metrics().stamp_to_durable_us->Record(done_us - req.enqueue_us);
      }
      if (req.boundary > from) {
        Metrics().ckpt_log_bytes->Add(req.boundary - from);
      }
      Metrics().ckpt_index_bytes->Add(meta_bytes);
      if (req.index_image) {
        (base == kInvalidVersion ? Metrics().ckpt_full
                                 : Metrics().ckpt_delta)
            ->Add();
      }
    } else {
      // Failure path invariants (regression-tested with the kDevWriteFail
      // probe): flushed_until_ stays at `from`, so the next checkpoint's
      // flush idempotently re-covers [from, its boundary); the token is
      // NOT registered durable and the callback never fires, so DPR never
      // reports it; checkpoint_active_/flush_in_progress_ are still reset
      // below, so the next PerformCheckpoint is admitted and
      // WaitForCheckpoints cannot hang on a wedged pipeline.
      Metrics().flush_failures->Add();
      DPR_ERROR("checkpoint v%llu flush failed: %s",
                static_cast<unsigned long long>(req.token),
                s.ToString().c_str());
    }
    // Fire the persistence callback before reporting idle, so
    // WaitForCheckpoints() implies the commit was reported.
    if (s.ok() && req.callback) req.callback(req.token);
    {
      MutexLock guard(flush_mu_);
      flush_in_progress_ = false;
      // Success or failure, release the checkpoint claim once the queue is
      // drained (PerformCheckpoint admits one request at a time, so the
      // queue is empty here in practice; the guard is belt-and-braces for
      // future multi-request producers).
      if (flush_queue_.empty()) {
        checkpoint_active_.store(false, std::memory_order_release);
      }
    }
    flush_idle_cv_.NotifyAll();
  }
}

// Only the largest durable checkpoint carrying an index image is a valid
// delta base (dirtiness is judged against what that image already covers),
// and only while its chain is shorter than kMaxChainLinks.
Version FasterStore::DeltaBaseLocked() const {
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (!it->second.has_index) continue;
    return it->second.links < kMaxChainLinks ? it->first : kInvalidVersion;
  }
  return kInvalidVersion;
}

std::string FasterStore::EncodeImageBody(const FlushRequest& req,
                                         LogAddress base_boundary) {
  std::string rec(1, static_cast<char>(kMetaImageBody));
  PutFixed64(&rec, req.record_count);
  // Capture the image under epoch protection: a concurrent FinishCompaction
  // may otherwise reclaim pages below a freshly advanced begin address while
  // we walk chains into them.
  epoch_.Protect();
  const LogAddress begin = begin_.load(std::memory_order_acquire);
  IndexImage image;
  index_.ForEachEntry([&](uint64_t bucket, uint64_t word) {
    // Sub-boundary address: everything at or above the checkpoint boundary
    // belongs to later versions and must not leak into this image. Only
    // entries updated since the stamp need a walk, and it only dereferences
    // addresses >= boundary > begin, which cannot be reclaimed while we are
    // epoch-protected.
    LogAddress addr = HashIndex::AddressOf(word);
    while (addr != kNullAddress && addr >= req.boundary) {
      addr = log_.RecordAt(addr)->prev;
    }
    if (addr == kNullAddress || addr < begin) return;
    // A delta keeps the entry iff its sub-boundary address lies at or above
    // the base's boundary. Entry addresses only grow and everything
    // appended after the base's stamp lies above its boundary, so an
    // address below it is exactly what the base image recorded. (In-place
    // updates change no address; rollback and compaction force a full
    // image.) A full image passes base_boundary = null and keeps all.
    if (addr < base_boundary) return;
    image.pairs.emplace_back(static_cast<uint32_t>(bucket),
                             HashIndex::WithAddress(word, addr));
  });
  epoch_.Unprotect();
  image.AppendTo(&rec);
  return rec;
}

bool FasterStore::ResolveChainLocked(Version token,
                                     std::vector<uint64_t>* offsets) const {
  offsets->clear();
  Version cur = token;
  for (;;) {
    auto it = checkpoints_.find(cur);
    if (it == checkpoints_.end() || !it->second.has_index) {
      offsets->clear();
      return false;
    }
    offsets->push_back(it->second.image_offset);
    if (it->second.base == kInvalidVersion) break;  // reached the full image
    cur = it->second.base;
  }
  std::reverse(offsets->begin(), offsets->end());
  return true;
}

Version FasterStore::NewestImageLocked(Version token, Version anchor,
                                      std::vector<uint64_t>* offsets) const {
  if (ResolveChainLocked(anchor, offsets)) return anchor;
  for (auto it = checkpoints_.upper_bound(token);
       it != checkpoints_.begin();) {
    --it;
    if (ResolveChainLocked(it->first, offsets)) return it->first;
  }
  return kInvalidVersion;
}

Status FasterStore::InstallChainImages(const std::vector<uint64_t>& offsets,
                                       uint64_t* restored_record_count) {
  uint64_t record_count = 0;
  std::string rec;
  for (const uint64_t offset : offsets) {
    DPR_RETURN_NOT_OK(meta_wal_.ReadRecord(offset, &rec));
    Decoder dec{Slice(rec)};
    uint8_t type;
    if (!dec.GetBytes(&type, 1) || type != kMetaImageBody) {
      return Status::Corruption("chain link is not an image body");
    }
    IndexImage image;
    if (!dec.GetFixed64(&record_count) || !image.ParseFrom(&dec)) {
      return Status::Corruption("truncated chain image");
    }
    for (const auto& [bucket, word] : image.pairs) {
      if (bucket >= index_.bucket_count()) {
        return Status::Corruption("chain image bucket out of range");
      }
      index_.RestoreEntry(bucket, word);
    }
  }
  // The anchor (last link) stamped its record count with the image.
  *restored_record_count = record_count;
  return Status::OK();
}

void FasterStore::WaitForCheckpoints() {
  MutexLock lock(flush_mu_);
  flush_idle_cv_.Wait(flush_mu_, [this]() REQUIRES(flush_mu_) {
    return flush_queue_.empty() && !flush_in_progress_;
  });
}

void FasterStore::Scan(
    const std::function<void(uint64_t, Slice)>& visitor) const {
  ForEachRecord(log_, begin_.load(std::memory_order_acquire), log_.tail(),
                [&](LogAddress pos, const RecordHeader* rec) {
                  // Emit only if this record is the newest visible one for
                  // its key.
                  if (!rec->pad() && !rec->tombstone() && Visible(rec) &&
                      FindRecord(rec->key, nullptr) == pos) {
                    visitor(rec->key, Slice(rec->value(), rec->value_size));
                  }
                });
}

Status FasterStore::StartCompaction(Version safe_token,
                                    Version* compaction_token) {
  LogAddress until = kNullAddress;
  {
    MutexLock guard(checkpoints_mu_);
    auto it = checkpoints_.find(safe_token);
    if (it == checkpoints_.end()) {
      return Status::NotFound("safe token has no durable checkpoint");
    }
    until = it->second.boundary;
  }
  const LogAddress begin = begin_.load(std::memory_order_acquire);
  if (until <= begin) {
    return Status::InvalidArgument("nothing to compact below safe token");
  }
  // Copy every live record in [begin, until) to the tail. Copies are
  // ordinary writes in the current version: if they are later rolled back,
  // the originals are still present (begin has not moved yet).
  ForEachRecord(log_, begin, until, [&](LogAddress pos, RecordHeader* rec) {
    const uint64_t key = rec->key;
    if (rec->pad() || rec->tombstone() || !Visible(rec)) return;
    // Conditional copy-to-tail: give up if a newer record for the key
    // appears (a concurrent writer superseded the value being copied).
    for (;;) {
      LogAddress head;
      if (FindRecord(key, &head) != pos) break;  // superseded or deleted
      const uint64_t v = version_.load(std::memory_order_acquire);
      LogAddress expected = head;
      const LogAddress copy =
          AppendRecord(key, Slice(rec->value(), rec->value_size),
                       /*tombstone=*/false, expected, static_cast<uint32_t>(v));
      if (index_.CasHead(key, &expected, copy)) {
        record_count_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      log_.RecordAt(copy)->SetFlag(RecordHeader::kInvalid);
    }
  });
  // Checkpoint the copies; `token` is the compaction checkpoint. Forced
  // full-with-image: FinishCompaction drops every older checkpoint, so this
  // token becomes the terminating base for all post-compaction delta chains
  // (an image-less compaction checkpoint would doom them to scan restores).
  Status s;
  Version token = kInvalidVersion;
  for (int attempt = 0; attempt < 64; ++attempt) {
    s = StampCheckpoint(CurrentVersion() + 1, nullptr, &token,
                        /*index_image=*/true, /*force_full=*/true);
    if (!s.IsBusy()) break;
    WaitForCheckpoints();  // a timer-triggered checkpoint was in flight
  }
  DPR_RETURN_NOT_OK(s);
  WaitForCheckpoints();
  {
    MutexLock guard(checkpoints_mu_);
    pending_compactions_[token] = until;
  }
  if (compaction_token != nullptr) *compaction_token = token;
  return Status::OK();
}

Status FasterStore::FinishCompaction(Version compaction_token,
                                     Version committed_watermark) {
  if (committed_watermark < compaction_token) {
    // GC only entries inside the DPR guarantee: the copies are not yet
    // covered by the committed cut, so the originals must stay restorable.
    return Status::Busy("DPR cut has not covered the compaction checkpoint");
  }
  LogAddress until = kNullAddress;
  {
    MutexLock guard(checkpoints_mu_);
    auto it = pending_compactions_.find(compaction_token);
    if (it == pending_compactions_.end()) {
      return Status::NotFound("unknown compaction token");
    }
    until = it->second;
    pending_compactions_.erase(it);
    // Checkpoints older than the compaction checkpoint can no longer be
    // restored (their images reference the truncated region); DPR never
    // rolls back below the committed cut, so dropping them is safe.
    for (auto cit = checkpoints_.begin();
         cit != checkpoints_.end() && cit->first < compaction_token;) {
      cit = checkpoints_.erase(cit);
    }
  }
  DPR_RETURN_NOT_OK(AppendCheckpointMeta(kMetaBegin, compaction_token,
                                         until));
  begin_.store(until, std::memory_order_release);
  // Reclaim memory once every thread has observed the new begin address.
  epoch_.BumpEpoch([this, until] { log_.ReleasePagesBelow(until); });
  epoch_.TryDrain();
  return Status::OK();
}

Version FasterStore::LargestDurableToken() const {
  MutexLock guard(checkpoints_mu_);
  return checkpoints_.empty() ? kInvalidVersion : checkpoints_.rbegin()->first;
}

// ---------------------------------------------------------------- rollback

Status FasterStore::RestoreCheckpoint(Version version,
                                      Version* restored_token) {
  // Quiesce the flush pipeline first so PURGE never races a checkpoint
  // flush over the same byte range.
  WaitForCheckpoints();

  Version token = kInvalidVersion;
  Version anchor = kInvalidVersion;
  LogAddress boundary = LogAllocator::kBeginAddress;
  LogAddress cover_boundary = LogAllocator::kBeginAddress;
  {
    MutexLock guard(checkpoints_mu_);
    // Restore to the largest durable token <= the requested version (cut
    // entries from the approximate finder may not be exact local tokens).
    for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
      if (it->first <= version) {
        token = it->first;
        boundary = it->second.boundary;
        break;
      }
    }
    cover_boundary = boundary;
    anchor = token;
    if (token != version) {
      // The requested version sits in a token gap (its own checkpoint flush
      // failed). The cut only ever contains reported versions, so a later
      // durable checkpoint exists whose flushed prefix contains every record
      // with version <= the request (records are version-tagged): restore
      // from it and purge the (version, cover] overshoot, instead of
      // undershooting to `token` and losing committed writes.
      auto cover = checkpoints_.upper_bound(version);
      if (cover != checkpoints_.end()) {
        token = version;
        anchor = cover->first;
        cover_boundary = cover->second.boundary;
      }
    }
  }
  Status s = crashed_.load(std::memory_order_acquire)
                 ? ColdRecover(token, boundary, cover_boundary, anchor)
                 : InMemoryRollback(token, boundary, cover_boundary);
  if (s.ok() && restored_token != nullptr) *restored_token = token;
  return s;
}

Status FasterStore::InMemoryRollback(Version token, LogAddress boundary,
                                     LogAddress cover_boundary) {
  const uint64_t v_old = version_.load(std::memory_order_acquire);
  if (token == v_old) return Status::OK();  // nothing above the target
  // THROW (Fig. 8): hide versions (token, v_old] from every lookup, stop
  // in-place updates, and move operations to v_old + 1.
  ignore_low_.store(token, std::memory_order_release);
  ignore_high_.store(v_old, std::memory_order_release);
  rollback_state_.store(static_cast<int>(RollbackState::kThrow),
                        std::memory_order_release);
  version_.store(v_old + 1, std::memory_order_release);
  // Fuzzy end of the lost versions: records appended from here on carry
  // version v_old + 1 and are never purged.
  const LogAddress purge_end = log_.tail();

  // PURGE: mark every lost record invalid so the ignore window can be lifted.
  rollback_state_.store(static_cast<int>(RollbackState::kPurge),
                        std::memory_order_release);
  const LogAddress purge_from =
      std::max(boundary, begin_.load(std::memory_order_acquire));
  ForEachRecord(log_, purge_from, purge_end,
                [&](LogAddress, RecordHeader* rec) {
                  if (rec->version > token && rec->version <= v_old) {
                    rec->SetFlag(RecordHeader::kInvalid);
                  }
                });

  // If part of the purged range had already been flushed, rewrite it so the
  // invalid marks are durable — otherwise a later crash-recovery of a
  // post-rollback checkpoint would resurrect rolled-back records.
  const LogAddress flushed = flushed_until_.load(std::memory_order_acquire);
  if (flushed > boundary) {
    DPR_RETURN_NOT_OK(FlushRange(boundary, flushed));
  }
  // Nothing pre-rollback may be updated in place anymore.
  read_only_address_.store(purge_end, std::memory_order_release);
  return FinishRestore(token, boundary, cover_boundary);
}

Status FasterStore::FinishRestore(Version token, LogAddress boundary,
                                  LogAddress cover_boundary) {
  // Forget rolled-back checkpoints durably: their boundaries point above the
  // restored tail, into a region future flushes rewrite, so a later restore
  // picking one up would parse garbage. Cancel any in-flight compaction
  // whose checkpoint was itself rolled back (its copies are now invalid;
  // the originals below begin remain authoritative).
  {
    MutexLock guard(checkpoints_mu_);
    for (auto it = checkpoints_.upper_bound(token);
         it != checkpoints_.end();) {
      it = checkpoints_.erase(it);
    }
    for (auto it = pending_compactions_.upper_bound(token);
         it != pending_compactions_.end();) {
      it = pending_compactions_.erase(it);
    }
  }
  DPR_RETURN_NOT_OK(AppendCheckpointMeta(kMetaRollback, token, boundary));
  if (cover_boundary != boundary) {
    // Mid-gap restore point: the covering checkpoint's flushed prefix plus
    // the now-durable invalid marks form a consistent durable checkpoint at
    // the restore point itself — register it, or a second crash would
    // undershoot to `boundary` and lose the (boundary, cover] prefix again.
    {
      MutexLock guard(checkpoints_mu_);
      checkpoints_[token] = CkptEntry{cover_boundary};
    }
    DPR_RETURN_NOT_OK(
        AppendCheckpointMeta(kMetaCheckpoint, token, cover_boundary));
  }
  // A delta chain must never span a rollback: the registered mid-gap entry
  // is image-less, and invalid marks changed buckets behind every base.
  force_full_next_.store(true, std::memory_order_release);
  // Back to REST: the invalid flags now carry the information the ignore
  // window provided. This also clears a rollback machine that a failed
  // in-memory rollback left mid-THROW/PURGE before a crash escalated it to
  // a cold restore.
  ignore_high_.store(0, std::memory_order_release);
  ignore_low_.store(0, std::memory_order_release);
  rollback_state_.store(static_cast<int>(RollbackState::kRest),
                        std::memory_order_release);
  return Status::OK();
}

Status FasterStore::ColdRecover(Version token, LogAddress boundary,
                                LogAddress cover_boundary, Version anchor) {
  const uint64_t start_us = NowMicros();
  log_.Clear();
  index_.Clear();
  record_count_.store(0, std::memory_order_relaxed);
  // Install the newest usable index image, then walk the part of the
  // restored prefix it does not cover. The anchor's own chain covers the
  // whole prefix, so the walk only marks the (token, anchor] overshoot
  // invalid. Otherwise the newest image checkpoint at or below the token
  // covers the prefix below its boundary, and the walk installs the records
  // above it. With no image at all (only image-less or mid-gap entries),
  // the walk rebuilds the index from the log's begin.
  std::vector<uint64_t> chain;
  Version image = kInvalidVersion;
  LogAddress image_boundary = kNullAddress;
  uint64_t replay_us = 0;
  {
    MutexLock guard(checkpoints_mu_);
    image = NewestImageLocked(token, anchor, &chain);
    if (image != kInvalidVersion) {
      image_boundary = checkpoints_.at(image).boundary;
    }
    replay_us = crash_replay_us_;
  }
  // The install touches only the index and the meta WAL, the log load only
  // the log: install on a helper thread while this one loads. (Async reads
  // would not overlap them: io_uring serves page-cache reads inline, in the
  // submitting thread.)
  Status image_installed = Status::NotFound("no index image");
  uint64_t chain_count = 0;
  std::jthread installer;  // joins on every path out
  if (image != kInvalidVersion) {
    installer = std::jthread([&] {
      const uint64_t install_start_us = NowMicros();
      image_installed = InstallChainImages(chain, &chain_count);
      Metrics().restore_image_install_us->Record(NowMicros() -
                                                 install_start_us);
    });
  }
  // Bulk-load the durable log prefix, one log page at a time (Resolve()
  // pointers are only contiguous within a page). A boundary at the begin
  // address means no checkpoint ever flushed: restore to empty.
  const uint64_t load_start_us = NowMicros();
  const LogAddress load_from =
      std::min(begin_.load(std::memory_order_acquire), cover_boundary);
  log_.RestoreTo(load_from, cover_boundary);
  Status loaded;
  for (LogAddress pos = load_from; pos < cover_boundary && loaded.ok();) {
    const uint64_t page_end = (pos | (log_.page_size() - 1)) + 1;
    const uint64_t n = std::min<uint64_t>(page_end, cover_boundary) - pos;
    loaded = SyncIo::Read(options_.log_device.get(), pos, log_.Resolve(pos), n);
    pos += n;
  }
  Metrics().restore_log_load_us->Record(NowMicros() - load_start_us);
  if (installer.joinable()) installer.join();
  DPR_RETURN_NOT_OK(loaded);
  const LogAddress begin = begin_.load(std::memory_order_acquire);
  LogAddress install_from = begin;
  LogAddress walk_from = begin;
  if (image_installed.ok()) {
    Metrics().ckpt_chain_restores->Add();
    Metrics().ckpt_chain_length->Record(chain.size());
    install_from =
        image == anchor ? cover_boundary : std::max(image_boundary, begin);
    walk_from = std::min(install_from, std::max(boundary, begin));
  } else {
    if (!chain.empty()) index_.Clear();  // discard a partial install
    chain_count = 0;
    Metrics().ckpt_scan_restores->Add();
  }
  // The stored prev pointers are consistent within the restored prefix, so
  // installing each record as its entry's head in log order reproduces the
  // chains. Records above the token get invalid marks instead: they must
  // never resurrect once post-recovery versions reuse the same numbers.
  // Each installed key lands in a random bucket, so records are installed
  // in batches whose buckets are prefetched first, overlapping the misses.
  constexpr size_t kBatch = 32;
  std::pair<uint64_t, LogAddress> batch[kBatch];
  size_t batched = 0;
  auto install = [&] {
    for (size_t i = 0; i < batched; ++i) index_.Prefetch(batch[i].first);
    for (size_t i = 0; i < batched; ++i) {
      index_.SetHead(batch[i].first, batch[i].second);
    }
    batched = 0;
  };
  uint64_t installed = 0;
  uint64_t uncounted = 0;  // image-counted records the walk invalidated
  ForEachRecord(log_, walk_from, cover_boundary,
                [&](LogAddress at, RecordHeader* rec) {
                  if (rec->pad() || rec->invalid()) return;
                  if (rec->version > token) {
                    rec->SetFlag(RecordHeader::kInvalid);
                    if (at < install_from) ++uncounted;
                  } else if (at >= install_from) {
                    batch[batched++] = {rec->key, at};
                    if (batched == kBatch) install();
                    ++installed;
                  }
                });
  install();
  record_count_.store(
      chain_count > uncounted ? chain_count - uncounted + installed
                              : installed,
      std::memory_order_relaxed);
  if (cover_boundary > boundary) {
    // Persist the overshoot's invalid marks before trusting the restore.
    const LogAddress mark_base =
        std::max(boundary, begin_.load(std::memory_order_acquire));
    if (cover_boundary > mark_base) {
      DPR_RETURN_NOT_OK(FlushRange(mark_base, cover_boundary));
    }
  }
  flushed_until_.store(cover_boundary, std::memory_order_release);
  read_only_address_.store(cover_boundary, std::memory_order_release);
  version_.store(token + 1, std::memory_order_release);
  DPR_RETURN_NOT_OK(FinishRestore(token, boundary, cover_boundary));
  crashed_.store(false, std::memory_order_release);
  Metrics().restore_total_us->Record(replay_us + NowMicros() - start_us);
  return Status::OK();
}

void FasterStore::SimulateCrash() {
  WaitForCheckpoints();
  crashed_.store(true, std::memory_order_release);
  options_.log_device->SimulateCrash();
  meta_wal_.device()->SimulateCrash();
  log_.Clear();
  index_.Clear();
  // Reload durable checkpoint metadata as a restarted process would. Only
  // the small records are read; image bodies stay on the device until a
  // restore installs them.
  {
    MutexLock guard(checkpoints_mu_);
    const uint64_t replay_start_us = NowMicros();
    checkpoints_.clear();
    pending_compactions_.clear();
    begin_.store(LogAllocator::kBeginAddress, std::memory_order_release);
    Status s = meta_wal_.Replay([this](uint64_t, Slice record) {
      Decoder dec(record);
      uint8_t type;
      uint64_t token;
      uint64_t boundary;
      if (!dec.GetBytes(&type, 1) || !dec.GetFixed64(&token) ||
          !dec.GetFixed64(&boundary)) {
        return;
      }
      if (type == kMetaCheckpoint) {
        checkpoints_[token] = CkptEntry{boundary};
      } else if (type == kMetaFullIndex || type == kMetaDelta) {
        uint64_t base = kInvalidVersion;
        uint64_t body = 0;
        if ((type == kMetaDelta && !dec.GetFixed64(&base)) ||
            !dec.GetFixed64(&body)) {
          return;
        }
        // A delta whose base is gone cannot restore; counting its chain as
        // full makes the next image a fresh full one.
        uint32_t links = 1;
        if (type == kMetaDelta) {
          const auto b = checkpoints_.find(base);
          links =
              b != checkpoints_.end() ? b->second.links + 1 : kMaxChainLinks;
        }
        checkpoints_[token] = CkptEntry{boundary, base, true, body, links};
      } else if (type == kMetaRollback) {
        for (auto it = checkpoints_.upper_bound(token);
             it != checkpoints_.end();) {
          it = checkpoints_.erase(it);
        }
      } else if (type == kMetaBegin) {
        // token = compaction checkpoint; boundary = new begin address.
        begin_.store(boundary, std::memory_order_release);
        for (auto it = checkpoints_.begin();
             it != checkpoints_.end() && it->first < token;) {
          it = checkpoints_.erase(it);
        }
      }
    }, kMetaReplayCap);
    DPR_CHECK_MSG(s.ok(), "meta WAL replay: %s", s.ToString().c_str());
    crash_replay_us_ = NowMicros() - replay_start_us;
    Metrics().restore_meta_replay_us->Record(crash_replay_us_);
  }
}

}  // namespace dpr
