#include "metadata/metadata_store.h"

#include <utility>

#include "common/coding.h"
#include "common/logging.h"

namespace dpr {

namespace {

enum RecordType : uint8_t {
  kUpsertWorker = 1,
  kRemoveWorker = 2,
  kGraphNode = 3,
  kSetCut = 4,
  kSetWorldLine = 5,
  kSetOwner = 6,
  kPruneGraph = 7,
  kSetMemberState = 8,
  kSetMigration = 9,
  kClearMigration = 10,
};

void EncodeDeps(std::string* dst, const DependencySet& deps) {
  PutFixed32(dst, static_cast<uint32_t>(deps.size()));
  for (const auto& [w, v] : deps) {
    PutFixed32(dst, w);
    PutFixed64(dst, v);
  }
}

bool DecodeDeps(Decoder* dec, DependencySet* deps) {
  uint32_t n;
  if (!dec->GetFixed32(&n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t w;
    uint64_t v;
    if (!dec->GetFixed32(&w) || !dec->GetFixed64(&v)) return false;
    (*deps)[w] = v;
  }
  return true;
}

}  // namespace

const char* MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kJoining:
      return "joining";
    case MemberState::kActive:
      return "active";
    case MemberState::kDraining:
      return "draining";
    case MemberState::kRemoved:
      return "removed";
  }
  return "unknown";
}

MetadataStore::MetadataStore(std::unique_ptr<Device> wal_device)
    : wal_(std::move(wal_device)) {}

Status MetadataStore::Recover() {
  MutexLock guard(mu_);
  persisted_.clear();
  graph_.clear();
  cut_.clear();
  cut_world_line_ = kInitialWorldLine;
  cut_count_ = 0;
  world_line_ = kInitialWorldLine;
  ownership_.clear();
  member_states_.clear();
  migrations_.clear();
  return wal_.Replay(
      [this](uint64_t /*offset*/, Slice record) { ApplyRecord(record); });
}

Status MetadataStore::LogAndApply(const std::string& record) {
  MutexLock guard(mu_);
  DPR_RETURN_NOT_OK(wal_.Append(record));
  DPR_RETURN_NOT_OK(wal_.Sync());
  ApplyRecord(record);
  return Status::OK();
}

void MetadataStore::ApplyRecord(Slice record) {
  Decoder dec(record);
  uint8_t type_byte;
  if (!dec.GetBytes(&type_byte, 1)) return;
  switch (type_byte) {
    case kUpsertWorker: {
      uint32_t w;
      uint64_t v;
      if (dec.GetFixed32(&w) && dec.GetFixed64(&v)) persisted_[w] = v;
      break;
    }
    case kRemoveWorker: {
      uint32_t w;
      if (dec.GetFixed32(&w)) persisted_.erase(w);
      break;
    }
    case kGraphNode: {
      uint32_t w;
      uint64_t v;
      DependencySet deps;
      if (dec.GetFixed32(&w) && dec.GetFixed64(&v) && DecodeDeps(&dec, &deps)) {
        graph_[WorkerVersion{w, v}] = std::move(deps);
      }
      break;
    }
    case kSetCut: {
      uint64_t wl;
      DependencySet cut;
      if (dec.GetFixed64(&wl) && DecodeDeps(&dec, &cut)) {
        cut_world_line_ = wl;
        cut_ = std::move(cut);
        ++cut_count_;
      }
      break;
    }
    case kSetWorldLine: {
      uint64_t wl;
      if (dec.GetFixed64(&wl)) world_line_ = wl;
      break;
    }
    case kSetOwner: {
      uint64_t vp;
      uint32_t w;
      if (dec.GetFixed64(&vp) && dec.GetFixed32(&w)) ownership_[vp] = w;
      break;
    }
    case kSetMemberState: {
      uint32_t w;
      uint8_t st;
      if (dec.GetFixed32(&w) && dec.GetBytes(&st, 1)) {
        member_states_[w] = static_cast<MemberState>(st);
      }
      break;
    }
    case kSetMigration: {
      uint64_t vp;
      uint32_t src, dst;
      if (dec.GetFixed64(&vp) && dec.GetFixed32(&src) && dec.GetFixed32(&dst)) {
        migrations_[vp] = MigrationRow{src, dst};
      }
      break;
    }
    case kClearMigration: {
      uint64_t vp;
      if (dec.GetFixed64(&vp)) migrations_.erase(vp);
      break;
    }
    case kPruneGraph: {
      DependencySet cut;
      if (DecodeDeps(&dec, &cut)) {
        for (auto it = graph_.begin(); it != graph_.end();) {
          const Version cv = CutVersion(cut, it->first.worker);
          if (it->first.version <= cv) {
            it = graph_.erase(it);
          } else {
            ++it;
          }
        }
      }
      break;
    }
    default:
      DPR_WARN("metadata: unknown WAL record type %u", type_byte);
  }
}

Status MetadataStore::UpsertWorker(WorkerId worker, Version version) {
  std::string rec(1, static_cast<char>(kUpsertWorker));
  PutFixed32(&rec, worker);
  PutFixed64(&rec, version);
  return LogAndApply(rec);
}

Status MetadataStore::RemoveWorker(WorkerId worker) {
  std::string rec(1, static_cast<char>(kRemoveWorker));
  PutFixed32(&rec, worker);
  return LogAndApply(rec);
}

std::map<WorkerId, Version> MetadataStore::GetPersistedVersions() const {
  MutexLock guard(mu_);
  return persisted_;
}

Version MetadataStore::MinPersistedVersion() const {
  MutexLock guard(mu_);
  if (persisted_.empty()) return kInvalidVersion;
  Version min = ~0ULL;
  for (const auto& [w, v] : persisted_) {
    (void)w;
    if (v < min) min = v;
  }
  return min;
}

Version MetadataStore::MaxPersistedVersion() const {
  MutexLock guard(mu_);
  Version max = kInvalidVersion;
  for (const auto& [w, v] : persisted_) {
    (void)w;
    if (v > max) max = v;
  }
  return max;
}

Status MetadataStore::AddGraphNode(WorkerVersion wv,
                                   const DependencySet& deps) {
  std::string rec(1, static_cast<char>(kGraphNode));
  PutFixed32(&rec, wv.worker);
  PutFixed64(&rec, wv.version);
  EncodeDeps(&rec, deps);
  return LogAndApply(rec);
}

std::map<WorkerVersion, DependencySet> MetadataStore::GetGraph() const {
  MutexLock guard(mu_);
  return graph_;
}

Status MetadataStore::PruneGraph(const DprCut& cut) {
  std::string rec(1, static_cast<char>(kPruneGraph));
  EncodeDeps(&rec, cut);
  return LogAndApply(rec);
}

Status MetadataStore::SetCut(WorldLine world_line, const DprCut& cut) {
  std::string rec(1, static_cast<char>(kSetCut));
  PutFixed64(&rec, world_line);
  EncodeDeps(&rec, cut);
  return LogAndApply(rec);
}

void MetadataStore::GetCut(WorldLine* world_line, DprCut* cut) const {
  MutexLock guard(mu_);
  if (world_line != nullptr) *world_line = cut_world_line_;
  if (cut != nullptr) *cut = cut_;
}

uint64_t MetadataStore::CutCount() const {
  MutexLock guard(mu_);
  return cut_count_;
}

Status MetadataStore::SetWorldLine(WorldLine world_line) {
  std::string rec(1, static_cast<char>(kSetWorldLine));
  PutFixed64(&rec, world_line);
  return LogAndApply(rec);
}

WorldLine MetadataStore::GetWorldLine() const {
  MutexLock guard(mu_);
  return world_line_;
}

Status MetadataStore::SetOwner(uint64_t virtual_partition, WorkerId worker) {
  std::string rec(1, static_cast<char>(kSetOwner));
  PutFixed64(&rec, virtual_partition);
  PutFixed32(&rec, worker);
  return LogAndApply(rec);
}

std::map<uint64_t, WorkerId> MetadataStore::GetOwnership() const {
  MutexLock guard(mu_);
  return ownership_;
}

Status MetadataStore::SetMemberState(WorkerId worker, MemberState state) {
  std::string rec(1, static_cast<char>(kSetMemberState));
  PutFixed32(&rec, worker);
  rec.push_back(static_cast<char>(state));
  return LogAndApply(rec);
}

std::map<WorkerId, MemberState> MetadataStore::GetMemberStates() const {
  MutexLock guard(mu_);
  return member_states_;
}

Status MetadataStore::SetMigration(uint64_t virtual_partition, WorkerId source,
                                   WorkerId target) {
  std::string rec(1, static_cast<char>(kSetMigration));
  PutFixed64(&rec, virtual_partition);
  PutFixed32(&rec, source);
  PutFixed32(&rec, target);
  return LogAndApply(rec);
}

Status MetadataStore::ClearMigration(uint64_t virtual_partition) {
  std::string rec(1, static_cast<char>(kClearMigration));
  PutFixed64(&rec, virtual_partition);
  return LogAndApply(rec);
}

std::map<uint64_t, MigrationRow> MetadataStore::GetMigrations() const {
  MutexLock guard(mu_);
  return migrations_;
}

void MetadataStore::SimulateCrash() {
  {
    MutexLock guard(mu_);
    wal_.device()->SimulateCrash();
  }
  Status s = Recover();
  DPR_CHECK_MSG(s.ok(), "metadata recovery failed: %s", s.ToString().c_str());
}

uint64_t MetadataStore::WalBytes() const {
  MutexLock guard(mu_);
  return wal_.SizeBytes();
}

}  // namespace dpr
