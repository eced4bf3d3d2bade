#include "dpr/session.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

// Registered once, then every record is a relaxed atomic op — GetCommitPoint
// and the admission paths stay mutex-free on the metrics side.
struct SessionMetrics {
  ShardedHistogram* op_commit_us;
  ShardedHistogram* surviving_prefix;
  Gauge* exception_list;
  Counter* ops_committed;
  Counter* failures;
};

const SessionMetrics& Metrics() {
  static const SessionMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return SessionMetrics{r.histogram("dpr.session.op_commit_us"),
                          r.histogram("dpr.session.surviving_prefix"),
                          r.gauge("dpr.session.exception_list"),
                          r.counter("dpr.session.ops_committed"),
                          r.counter("dpr.session.failures")};
  }();
  return m;
}

}  // namespace

DprSession::DprSession(uint64_t session_id, SessionOptions options)
    : session_id_(session_id), options_(options) {}

bool DprSession::IsStaleResponseLocked(const DprResponseHeader& resp) const {
  return options_.world_line_policy ==
             SessionOptions::WorldLinePolicy::kReject &&
         resp.world_line < world_line_;
}

DprRequestHeader DprSession::MakeHeader() const {
  MutexLock guard(mu_);
  DprRequestHeader header;
  header.session_id = session_id_;
  header.world_line = world_line_;
  header.version = version_clock_;
  header.deps = deps_;
  header.cut_epoch = cut_epoch_;
  return header;
}

void DprSession::AbsorbLocked(const DprResponseHeader& resp) {
  if (resp.world_line > observed_world_line_) {
    observed_world_line_ = resp.world_line;
  }
  if (resp.status != DprResponseHeader::BatchStatus::kOk) return;
  // A pre-recovery straggler's cut and version clock describe a world-line
  // the rollback already erased; absorbing them would mix pre- and
  // post-recovery state (§4.2, Fig. 5).
  if (IsStaleResponseLocked(resp)) return;
  if (resp.executed_version > version_clock_) {
    version_clock_ = resp.executed_version;
  }
  if (resp.cut.empty()) return;  // the session already holds this epoch
  MergeDependencies(&cut_, resp.cut);  // max per worker
  cut_epoch_ = std::max(cut_epoch_, resp.cut_epoch);
  // Dependencies on committed versions are satisfied forever; prune them so
  // headers stay small.
  std::erase_if(deps_, [this](const auto& dep) {
    return dep.second <= CutVersion(cut_, dep.first);
  });
}

uint64_t DprSession::RecordBatch(WorkerId worker, uint64_t n,
                                 const DprResponseHeader& resp) {
  MutexLock guard(mu_);
  const uint64_t start = next_seqno_;
  next_seqno_ += n;
  // A stale (pre-recovery) response records vacuously: the rollback erased
  // any effect, so the segment carries no version and no dependency.
  const Version version =
      IsStaleResponseLocked(resp) ? kInvalidVersion : resp.executed_version;
  segments_.push_back(Segment{start, n, worker, version, /*resolved=*/true,
                              NowMicros()});
  if (version != kInvalidVersion) {
    MergeDependency(&deps_, WorkerVersion{worker, version});
  }
  AbsorbLocked(resp);
  return start;
}

uint64_t DprSession::IssuePending(WorkerId worker, uint64_t n) {
  MutexLock guard(mu_);
  const uint64_t start = next_seqno_;
  next_seqno_ += n;
  segments_.push_back(Segment{start, n, worker, kInvalidVersion,
                              /*resolved=*/false, NowMicros()});
  return start;
}

void DprSession::ResolvePending(uint64_t start_seqno,
                                const DprResponseHeader& resp) {
  MutexLock guard(mu_);
  // Unresolved segments cluster at the tail (bounded by the client window);
  // scan backwards so resolution stays O(window) even when the committed
  // prefix cannot advance and the deque grows.
  for (auto rit = segments_.rbegin(); rit != segments_.rend(); ++rit) {
    Segment& seg = *rit;
    if (seg.start == start_seqno && !seg.resolved) {
      seg.resolved = true;
      seg.version = IsStaleResponseLocked(resp) ? kInvalidVersion
                                                : resp.executed_version;
      // Failed/rejected ops (and pre-recovery stragglers) resolve with
      // version 0: they had no surviving effect, so they commit vacuously
      // and contribute no dependency.
      if (seg.version != kInvalidVersion) {
        MergeDependency(&deps_, WorkerVersion{seg.worker, seg.version});
      }
      AbsorbLocked(resp);
      return;
    }
  }
  DPR_WARN("ResolvePending: no pending segment at seqno %llu",
           static_cast<unsigned long long>(start_seqno));
}

void DprSession::Observe(const DprResponseHeader& resp) {
  MutexLock guard(mu_);
  AbsorbLocked(resp);
}

DprSession::CommitPoint DprSession::ComputePointLocked(
    const DprCut& committed, bool drop_committed) {
  CommitPoint point;
  // Phase 1: extend the frontier. A resolved-but-uncommitted segment stops
  // it; an unresolved (PENDING) segment is skipped per relaxed DPR — ops
  // after it cannot depend on it, so the prefix may exclude it.
  uint64_t frontier = reported_prefix_;
  // A zero cap is strict CPR/DPR: an unresolved operation gates everything
  // after it, so operations commit in start order with no exception list.
  const uint64_t cap = options_.exception_list_cap;
  uint64_t skipped = 0;
  for (const auto& seg : segments_) {
    if (seg.resolved) {
      if (CutVersion(committed, seg.worker) >= seg.version) {
        frontier = std::max(frontier, seg.start + seg.count);
      } else {
        break;
      }
    } else {
      // relaxed: unresolved segments are skipped (exception list), up to
      // the configured cap of skipped-over operations.
      skipped += seg.count;
      if (skipped > cap) break;
    }
  }
  // Never regress a previously-reported prefix (a segment that has since
  // resolved into an uncommitted version must not pull it back).
  point.prefix_end = std::max(frontier, reported_prefix_);
  reported_prefix_ = point.prefix_end;
  // Phase 2: the exception list — anything below the prefix that is not
  // (yet) committed.
  for (const auto& seg : segments_) {
    if (seg.start >= point.prefix_end) break;
    const bool is_committed =
        seg.resolved && CutVersion(committed, seg.worker) >= seg.version;
    if (!is_committed) {
      const uint64_t end = std::min(seg.start + seg.count, point.prefix_end);
      for (uint64_t s = seg.start; s < end; ++s) point.excluded.push_back(s);
    }
  }
  Metrics().exception_list->Set(static_cast<int64_t>(point.excluded.size()));
  if (drop_committed) {
    const uint64_t now_us = NowMicros();
    while (!segments_.empty()) {
      const Segment& seg = segments_.front();
      const bool is_committed =
          seg.resolved && CutVersion(committed, seg.worker) >= seg.version;
      if (is_committed && seg.start + seg.count <= point.prefix_end) {
        if (now_us > seg.issued_us) {
          Metrics().op_commit_us->Record(now_us - seg.issued_us);
        }
        Metrics().ops_committed->Add(seg.count);
        segments_.pop_front();
      } else {
        break;
      }
    }
  }
  return point;
}

DprSession::CommitPoint DprSession::GetCommitPoint() {
  MutexLock guard(mu_);
  return ComputePointLocked(cut_, /*drop_committed=*/true);
}

uint64_t DprSession::next_seqno() const {
  MutexLock guard(mu_);
  return next_seqno_;
}

bool DprSession::needs_failure_handling() const {
  MutexLock guard(mu_);
  return observed_world_line_ > world_line_;
}

WorldLine DprSession::observed_world_line() const {
  MutexLock guard(mu_);
  return observed_world_line_;
}

WorldLine DprSession::world_line() const {
  MutexLock guard(mu_);
  return world_line_;
}

std::string DprSession::DebugString() const {
  MutexLock guard(mu_);
  std::string out = "session " + std::to_string(session_id_) +
                    " wl=" + std::to_string(world_line_) +
                    " Vs=" + std::to_string(version_clock_) +
                    " next=" + std::to_string(next_seqno_) +
                    " reported=" + std::to_string(reported_prefix_) + "\n";
  out += "  cut@" + std::to_string(cut_epoch_) + ":";
  for (const auto& [w, v] : cut_) {
    out += " (" + std::to_string(w) + "->" + std::to_string(v) + ")";
  }
  out += "\n  segments:";
  for (const auto& seg : segments_) {
    out += " [" + std::to_string(seg.start) + "+" +
           std::to_string(seg.count) + " w" + std::to_string(seg.worker) +
           " v" + std::to_string(seg.version) +
           (seg.resolved ? "" : " PENDING") + "]";
  }
  out += "\n";
  return out;
}

DprSession::CommitPoint DprSession::HandleFailure(WorldLine new_world_line,
                                                  const DprCut& recovery_cut) {
  MutexLock guard(mu_);
  // The surviving prefix is the commit point evaluated at the recovery cut:
  // exactly the operations whose versions made it into the cut survive.
  CommitPoint survivors = ComputePointLocked(recovery_cut,
                                             /*drop_committed=*/false);
  Metrics().failures->Add();
  Metrics().surviving_prefix->Record(survivors.prefix_end);
  // Everything in flight or above the prefix is gone; the session restarts
  // its order on the new world-line. The version clock is retained: workers
  // resume in versions strictly above anything pre-failure, so monotonicity
  // is preserved across the world-line shift.
  segments_.clear();
  deps_.clear();
  // ComputePointLocked above published the pre-rollback exception-list
  // occupancy; with the segments discarded the list is empty — re-zero the
  // gauge or it leaks the stale count until the next commit-point query.
  Metrics().exception_list->Set(0);
  // The observed cut can never exceed the recovery cut (the finder's cut is
  // monotone and the recovery freezes it); clamping keeps that true even
  // for a session that trusted a straggler.
  for (auto& [w, v] : cut_) v = std::min(v, CutVersion(recovery_cut, w));
  world_line_ = new_world_line;
  if (observed_world_line_ < new_world_line) {
    observed_world_line_ = new_world_line;
  }
  reported_prefix_ = survivors.prefix_end;
  return survivors;
}

}  // namespace dpr
