#include "dfaster/worker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

struct MigrationWorkerMetrics {
  Counter* forward_ops;
  Counter* forward_failures;
  Counter* readmissions;
  Counter* install_batches;
  Counter* install_records;
};

const MigrationWorkerMetrics& MigMetrics() {
  static const MigrationWorkerMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return MigrationWorkerMetrics{
        r.counter("cluster.migration.forward_ops"),
        r.counter("cluster.migration.forward_failures"),
        r.counter("cluster.migration.readmissions"),
        r.counter("cluster.migration.install_batches"),
        r.counter("cluster.migration.install_records")};
  }();
  return m;
}

}  // namespace

DFasterWorker::DFasterWorker(DFasterWorkerConfig config)
    : config_(std::move(config)),
      owners_(YcsbWorkload::kNumPartitions),
      seals_(YcsbWorkload::kNumPartitions) {
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    const WorkerId owner =
        config_.start_empty
            ? kInvalidWorker
            : YcsbWorkload::DefaultOwner(vp, config_.num_workers);
    // relaxed: pre-publication init; readers start after the constructor.
    owners_[vp].store(owner, std::memory_order_relaxed);
    seals_[vp] = std::make_unique<SealState>();
  }
  store_ = std::make_unique<FasterStore>(std::move(config_.faster));
  // The cadence controller's dirty-byte signal comes from this shard's
  // store (safe: store_ outlives the loops that sample it).
  if (!config_.dpr.ckpt_signals) {
    config_.dpr.ckpt_signals = [this] { return CollectCkptSignals(); };
  }
  if (config_.mode == RecoverabilityMode::kDpr) {
    config_.dpr.worker_id = config_.id;
    dpr_worker_ = std::make_unique<DprWorker>(store_.get(), config_.dpr);
  } else if (config_.mode == RecoverabilityMode::kEventual) {
    eventual_loop_ = std::make_unique<CkptLoop>(
        config_.dpr.checkpoint_interval_us, config_.dpr.ckpt_signals,
        [this] { return EventualCheckpoint(); });
  }
}

CkptSignals DFasterWorker::CollectCkptSignals() const {
  CkptSignals s;
  const LogAddress tail = store_->tail_address();
  const LogAddress ro = store_->read_only_address();
  s.dirty_bytes = tail > ro ? tail - ro : 0;
  // A kDpr shard never reads idle. The approximate cut is the minimum
  // persisted version over all workers, so a row that stopped advancing
  // would pin every peer's commits; and reads executed in the open version
  // commit only with the next checkpoint.
  if (dpr_worker_ != nullptr) {
    s.dirty_bytes = std::max<uint64_t>(s.dirty_bytes, 1);
  }
  return s;
}

Status DFasterWorker::EventualCheckpoint() {
  batch_latch_.LockExclusive();
  Version token;
  Status s = store_->PerformCheckpoint(store_->CurrentVersion() + 1, nullptr,
                                       &token,
                                       CheckpointHints{.index_image = true});
  batch_latch_.UnlockExclusive();
  return s;
}

DFasterWorker::~DFasterWorker() { Stop(); }

Status DFasterWorker::Start(std::unique_ptr<RpcServer> server) {
  stop_.store(false, std::memory_order_release);
  if (dpr_worker_ != nullptr) DPR_RETURN_NOT_OK(dpr_worker_->Start());
  if (eventual_loop_ != nullptr) eventual_loop_->Start();
  if (server != nullptr) {
    server_ = std::move(server);
    DPR_RETURN_NOT_OK(server_->Start(
        [this](Slice request, std::string* response) {
          ExecuteBatch(request, response);
        }));
    address_ = server_->address();
  }
  return Status::OK();
}

void DFasterWorker::Stop() {
  if (stop_.exchange(true)) return;
  if (server_ != nullptr) server_->Stop();
  if (dpr_worker_ != nullptr) dpr_worker_->Stop();
  if (eventual_loop_ != nullptr) eventual_loop_->Stop();
  store_->WaitForCheckpoints();
}

bool DFasterWorker::OwnsPartition(uint32_t partition) const {
  return owners_[partition].load(std::memory_order_acquire) == config_.id;
}

void DFasterWorker::AdoptPartition(uint32_t partition) {
  owners_[partition].store(config_.id, std::memory_order_release);
}

uint32_t DFasterWorker::OwnedPartitionCount() const {
  uint32_t count = 0;
  for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
    if (OwnsPartition(vp)) ++count;
  }
  return count;
}

Status DFasterWorker::SealPartition(uint32_t partition,
                                    std::shared_ptr<MigrationChannel> channel) {
  if (partition >= seals_.size() || channel == nullptr) {
    return Status::InvalidArgument("bad seal request");
  }
  if (!OwnsPartition(partition)) {
    return Status::InvalidArgument("cannot seal a partition we do not own");
  }
  SealState& seal = *seals_[partition];
  {
    MutexLock lock(seal.mu);
    if (seal.channel != nullptr) {
      return Status::Busy("partition already sealed");
    }
    seal.channel = std::move(channel);
    seal.failed.store(false, std::memory_order_relaxed);
    seal.sealed.store(true, std::memory_order_release);
  }
  // Seal barrier: batches admitted before the gate flipped hold the shared
  // version latch; TryCommit takes it exclusively, so once it returns every
  // such batch has fully executed and the drain's snapshot covers it. (A
  // Busy checkpoint outcome still took the latch — the barrier, not the
  // checkpoint itself, is what correctness needs here; the version boundary
  // additionally keeps ownership static within pre-seal versions.)
  if (dpr_worker_ != nullptr) {
    Status s = dpr_worker_->TryCommit();
    if (!s.ok() && !s.IsBusy()) {
      UnsealPartition(partition, /*disown=*/false);
      return s;
    }
  }
  return Status::OK();
}

void DFasterWorker::UnsealPartition(uint32_t partition, bool disown) {
  SealState& seal = *seals_[partition];
  MutexLock lock(seal.mu);
  if (disown) {
    // Completed migration: drop ownership under the seal lock, before the
    // channel goes away. An op already in the sealed slow path re-checks
    // ownership under this lock, so it either forwarded (pre-flip) or
    // bounces kNotOwner (post-flip) — never a local-only write.
    owners_[partition].store(kInvalidWorker, std::memory_order_release);
  }
  seal.channel = nullptr;
  seal.sealed.store(false, std::memory_order_release);
}

bool DFasterWorker::SealForwardFailed(uint32_t partition) const {
  return seals_[partition]->failed.load(std::memory_order_relaxed);
}

Status DFasterWorker::DrainSealedPartition(uint32_t partition,
                                           size_t chunk_ops,
                                           Version* max_installed) {
  if (max_installed != nullptr) *max_installed = kInvalidVersion;
  if (partition >= seals_.size() || chunk_ops == 0) {
    return Status::InvalidArgument("bad drain request");
  }
  SealState& seal = *seals_[partition];
  // Key snapshot without the seal lock: keys created after this scan went
  // through the forward path (the partition is already sealed), so missing
  // them here is safe.
  std::vector<uint64_t> keys;
  store_->Scan([&](uint64_t key, Slice /*value*/) {
    if (YcsbWorkload::PartitionOf(key) == partition) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  auto session = store_->NewSession();
  size_t i = 0;
  while (i < keys.size()) {
    MutexLock lock(seal.mu);
    if (seal.channel == nullptr) {
      return Status::Aborted("partition unsealed during drain");
    }
    KvBatchRequest chunk;
    chunk.install = true;
    chunk.header = MakeInstallHeader(partition);
    for (; i < keys.size() && chunk.ops.size() < chunk_ops; ++i) {
      uint64_t value = 0;
      Status rs = session->Read(keys[i], &value);
      if (rs.IsNotFound()) continue;  // deleted since the scan; the
                                      // forwarded delete already covered it
      if (!rs.ok()) return rs;
      // Values re-read under the seal lock: a drain chunk never carries a
      // value older than a forward the target already saw.
      chunk.ops.push_back(KvOp{KvOp::Type::kUpsert, keys[i], value});
    }
    if (chunk.ops.empty()) continue;
    KvBatchResponse response;
    Status fs = seal.channel->Install(chunk, &response);
    bool chunk_ok =
        fs.ok() &&
        response.header.status == DprResponseHeader::BatchStatus::kOk;
    if (chunk_ok) {
      for (const KvOpResult& r : response.results) {
        if (r.result != KvResult::kOk) chunk_ok = false;
      }
    }
    if (!chunk_ok) {
      seal.failed.store(true, std::memory_order_relaxed);
      return fs.ok() ? Status::Unavailable("migration install rejected")
                     : fs;
    }
    MigMetrics().install_batches->Add();
    MigMetrics().install_records->Add(chunk.ops.size());
    if (max_installed != nullptr &&
        response.header.executed_version != kInvalidVersion) {
      *max_installed =
          std::max(*max_installed, response.header.executed_version);
    }
  }
  return Status::OK();
}

void DFasterWorker::ApplyOp(FasterStore::Session* session, const KvOp& op,
                            KvOpResult* out) {
  Status s;
  switch (op.type) {
    case KvOp::Type::kRead:
      s = session->Read(op.key, &out->value);
      break;
    case KvOp::Type::kUpsert:
      s = session->Upsert(op.key, op.value);
      break;
    case KvOp::Type::kRmw:
      s = session->Rmw(op.key, op.value, &out->value);
      break;
    case KvOp::Type::kDelete:
      s = session->Delete(op.key);
      break;
  }
  if (s.ok()) {
    out->result = KvResult::kOk;
  } else if (s.IsNotFound()) {
    out->result = KvResult::kNotFound;
  } else {
    out->result = KvResult::kError;
  }
}

DprRequestHeader DFasterWorker::MakeInstallHeader(uint32_t partition) const {
  DprRequestHeader header;
  header.session_id = kMigrationSessionBase + partition;
  if (dpr_worker_ != nullptr) {
    header.world_line = dpr_worker_->world_line();
    header.version = store_->CurrentVersion();
    header.deps[config_.id] = header.version;
  }
  return header;
}

void DFasterWorker::RunOps(const KvBatchRequest& request, Version /*version*/,
                           KvBatchResponse* response, bool check_ownership,
                           DependencySet* forward_deps) {
  auto session = store_->NewSession();
  const size_t n = request.ops.size();
  response->results.resize(n);
  // Batch at a time: each client-sized chunk's index buckets and head
  // records are prefetched together before its ops run, so their misses
  // overlap instead of costing two serial misses per op.
  constexpr size_t kPrefetchChunk = 64;
  uint64_t keys[kPrefetchChunk];
  for (size_t i = 0; i < n; ++i) {
    if (i % kPrefetchChunk == 0) {
      const size_t m = std::min(kPrefetchChunk, n - i);
      for (size_t j = 0; j < m; ++j) keys[j] = request.ops[i + j].key;
      session->Prefetch(keys, m);
    }
    const KvOp& op = request.ops[i];
    KvOpResult& out = response->results[i];
    const uint32_t partition = YcsbWorkload::PartitionOf(op.key);
    SealState& seal = *seals_[partition];
    if (!seal.sealed.load(std::memory_order_acquire)) {
      // Fast path: no dual-ownership window. In kDpr mode this cannot race
      // a migration past its seal barrier — the batch holds the shared
      // version latch, which SealPartition's checkpoint must drain first.
      if (check_ownership && !OwnsPartition(partition)) {
        out.result = KvResult::kNotOwner;
        continue;
      }
      ApplyOp(session.get(), op, &out);
      continue;
    }
    // Sealed slow path: local apply + forward are one atom under the seal
    // lock so the target observes writes in source apply order (upserts do
    // not commute with each other or with drain chunks).
    MutexLock lock(seal.mu);
    if (check_ownership && !OwnsPartition(partition)) {
      // Either never ours, or the migration completed (UnsealPartition
      // disowns under this lock before clearing the channel).
      out.result = KvResult::kNotOwner;
      continue;
    }
    ApplyOp(session.get(), op, &out);
    if (seal.channel == nullptr) continue;  // unsealed concurrently: no fwd
    if (out.result != KvResult::kOk || op.type == KvOp::Type::kRead) continue;
    KvBatchRequest forward;
    forward.install = true;
    forward.header = MakeInstallHeader(partition);
    KvOp fwd_op = op;
    if (op.type == KvOp::Type::kRmw) {
      // Forward the computed result as an upsert: the target must not
      // re-apply the delta to its own (possibly behind) base value.
      fwd_op.type = KvOp::Type::kUpsert;
      fwd_op.value = out.value;
    }
    forward.ops.push_back(fwd_op);
    KvBatchResponse fwd_response;
    Status fs = seal.channel->Install(forward, &fwd_response);
    MigMetrics().forward_ops->Add();
    const bool fwd_ok =
        fs.ok() &&
        fwd_response.header.status == DprResponseHeader::BatchStatus::kOk;
    if (!fwd_ok) {
      // The op applied locally but its fate at the target is unknown; the
      // migration can no longer complete. Surface kError so the client
      // treats the op outcome as uncertain.
      seal.failed.store(true, std::memory_order_relaxed);
      MigMetrics().forward_failures->Add();
      out.result = KvResult::kError;
      continue;
    }
    if (forward_deps != nullptr && dpr_worker_ != nullptr &&
        fwd_response.header.executed_version != kInvalidVersion) {
      Version& slot = (*forward_deps)[seal.channel->target()];
      slot = std::max(slot, fwd_response.header.executed_version);
    }
  }
}

void DFasterWorker::ExecuteBatch(const KvBatchRequest& request,
                                 KvBatchResponse* response) {
  ExecuteBatchInternal(request, response, /*check_ownership=*/true);
}

Status DFasterWorker::InstallMigratedData(const KvBatchRequest& request,
                                          KvBatchResponse* response) {
  ExecuteBatchInternal(request, response, /*check_ownership=*/false);
  return response->header.status == DprResponseHeader::BatchStatus::kOk
             ? Status::OK()
             : Status::Unavailable("migration batch rejected");
}

void DFasterWorker::ExecuteBatchInternal(const KvBatchRequest& request,
                                         KvBatchResponse* response,
                                         bool check_ownership) {
  if (dpr_worker_ == nullptr) {
    // kNone / kEventual: no admission control, no commit tracking.
    batch_latch_.LockShared();
    const Version version = store_->CurrentVersion();
    RunOps(request, version, response, check_ownership,
           /*forward_deps=*/nullptr);
    batch_latch_.UnlockShared();
    response->header.status = DprResponseHeader::BatchStatus::kOk;
    response->header.world_line = kInitialWorldLine;
    response->header.executed_version = version;
    // No finder: the cut is this shard's own durable prefix, sent always.
    response->header.cut = {{config_.id, store_->LargestDurableToken()}};
    return;
  }
  Version version = kInvalidVersion;
  Status admit = dpr_worker_->BeginBatch(request.header, &version,
                                         /*has_ops=*/!request.ops.empty());
  if (!admit.ok()) {
    const auto status = admit.IsAborted()
                            ? DprResponseHeader::BatchStatus::kWorldLineShift
                            : DprResponseHeader::BatchStatus::kRetryLater;
    dpr_worker_->FillResponse(request.header, kInvalidVersion, status,
                              &response->header);
    response->results.clear();
    return;
  }
  DependencySet forward_deps;
  RunOps(request, version, response, check_ownership, &forward_deps);
  dpr_worker_->EndBatch();
  if (!forward_deps.empty()) {
    // Dual-ownership re-admission: some op was forwarded to a migration
    // target that executed it in version vd, possibly > the version this
    // batch ran in. Acking the batch at the original version would let the
    // approximate finder's flat-min cut cover the ack while excluding the
    // target's copy of the write (a version-clock violation). Re-admit at a
    // version >= max(vd) with explicit downward deps on the target, and ack
    // *that* version: now a committed ack implies the forwarded writes are
    // inside the cut on both sides. The fast-forward is >=, so source and
    // target version clocks equalize after one round and the extra
    // checkpoints are transient.
    Version max_forwarded = kInvalidVersion;
    for (const auto& [w, v] : forward_deps) {
      (void)w;
      max_forwarded = std::max(max_forwarded, v);
    }
    DprRequestHeader readmit;
    readmit.session_id = request.header.session_id;
    readmit.world_line = dpr_worker_->world_line();
    readmit.version = max_forwarded;
    readmit.deps = forward_deps;
    Version ack_version = kInvalidVersion;
    Status admit2 = dpr_worker_->BeginBatch(readmit, &ack_version);
    if (!admit2.ok()) {
      // A rollback raced the window. The local effects are applied but the
      // entangled ack version is gone; make the client replay the batch
      // (at-least-once across the seal window — see DESIGN.md §4i).
      const auto status =
          admit2.IsAborted() ? DprResponseHeader::BatchStatus::kWorldLineShift
                             : DprResponseHeader::BatchStatus::kRetryLater;
      dpr_worker_->FillResponse(request.header, kInvalidVersion, status,
                                &response->header);
      response->results.clear();
      return;
    }
    dpr_worker_->EndBatch();
    MigMetrics().readmissions->Add();
    version = ack_version;
  }
  dpr_worker_->FillResponse(request.header, version,
                            DprResponseHeader::BatchStatus::kOk,
                            &response->header);
}

void DFasterWorker::ExecuteBatch(Slice request, std::string* response) {
  KvBatchRequest req;
  KvBatchResponse resp;
  if (!req.DecodeFrom(request)) {
    resp.header.status = DprResponseHeader::BatchStatus::kRetryLater;
    resp.EncodeTo(response);
    return;
  }
  if (req.install) {
    // Worker-to-worker migration install: the partition is mid-transfer and
    // deliberately unowned at the receiver; skip the ownership check.
    (void)InstallMigratedData(req, &resp);
  } else {
    ExecuteBatch(req, &resp);
  }
  resp.EncodeTo(response);
}

}  // namespace dpr
