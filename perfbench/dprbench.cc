// The repository benchmark. One process brings up a 2-worker D-FASTER
// deployment (DFasterCluster) on file-backed devices, preloads and commits
// the key space, drives it closed-loop from two client sessions
// (DFasterClient::Session, b=64, w=1024), and prints the end-to-end metrics
// (--trace=0) or the per-layer metrics (--trace=1) as one JSON line.
//
//   dprbench --workload=<hot-inmem|cold-tcp|recovery> --seed=<n>
//            --seconds=<s> --trace=<0|1> --dir=<scratch dir>
//            [--trace_out=<file>]
//            [--git=<describe>]
//
// perfbench/run.py builds and invokes it; perfbench/README.md defines every
// workload and metric. It only calls public APIs of the library:
// DFasterCluster, DFasterClient::Session, DFasterWorker, FasterStore,
// DprFinder, DprWorker and the metrics registry.
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "common/sync.h"
#include "harness/cluster.h"
#include "net/tcp_net.h"
#include "obs/metrics.h"
#include "storage/async_io.h"
#include "workload/ycsb.h"

namespace dpr {
namespace {

constexpr uint32_t kWorkers = 2;
constexpr uint32_t kClientThreads = 2;
constexpr uint32_t kBatchSize = 64;
constexpr uint32_t kWindow = 1024;
// One op in kSampleStride is timed. Prime, so the sampled op's position in
// its batch varies; sampling never flushes, so batching is unchanged. At
// ~1 Mops (cold-tcp) a 0.625 s slice still gets ~2,500 samples, so its p99
// has 25 beyond it.
constexpr uint64_t kSampleStride = 251;
// Ops pre-generated per client thread and replayed cyclically, so key
// sampling (Zipf's pow()) is never charged to the store. 2^20 per thread
// covers most of cold-tcp's 1M keys in one cycle.
constexpr uint32_t kPregenOps = 1 << 20;
// Ops issued between commit-point polls. GetCommitPoint scans the session's
// uncommitted segments, so polling too often taxes the load thread; 1024
// ops is well under a millisecond against ~100 ms commit latencies.
constexpr int kOpsPerMaintain = 1024;
// A Read/Upsert call this long waited on the full window (a dispatch
// without waiting takes a few microseconds).
constexpr uint64_t kBlockedCallNs = 10000;
constexpr uint32_t kAuditKeys = 128;
constexpr uint64_t kAuditPeriodUs = 2000;
constexpr double kFailureSpacingS = 1.5;
constexpr uint64_t kProbeGapUs = 50000;
// setup_s is a median over at least this many set-ups.
constexpr uint32_t kMinSetUps = 9;
constexpr uint64_t kRecoveryTimeoutUs = 15000000;
// Unit of measurement: every window is cut into slices this long, and the
// end-to-end figures are medians over the run's slices, so a stall or a
// noisy neighbour that hits a few slices does not move them.
constexpr uint64_t kSliceNs = 625000000;
// A fresh deployment runs at ~40% of its steady throughput for its first
// second; each window opens after this warm-up.
constexpr uint64_t kWarmupUs = 1500000;
constexpr uint64_t kProbePeriodUs = 2000;
constexpr size_t kMaxSpans = 200000;

struct WorkloadSpec {
  const char* name;
  TransportKind transport;
  uint64_t num_keys;
  double zipf_theta;
  bool failures_in_window;
  /// Fresh deployments per run; each is measured for --seconds / this.
  uint32_t deployments;
  /// Crash episodes after each timed window, so every workload reports
  /// recovery_ms and lost_ops_frac. An episode on hot-inmem lasts either
  /// ~90 or ~190 ms (README.md), so a run needs many for their trimmed mean
  /// to hold still from run to run.
  uint32_t failures_per_deployment;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"hot-inmem", TransportKind::kInMemory, 100000, 0.99, false, 16, 6},
    {"cold-tcp", TransportKind::kTcp, 1000000, 0.0, false, 4, 16},
    {"recovery", TransportKind::kInMemory, 100000, 0.99, true, 8, 6},
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Mean of the middle 80%: steadier than the median when the values are
/// spread evenly or bimodal, and unlike the mean it ignores a stray outlier.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / (values.size() - 2 * cut);
}

double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t CounterOf(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------------ spans

/// In-memory span log, written out with the traced run's artifact.
class SpanLog {
 public:
  uint64_t Record(const char* name, uint32_t thread, uint64_t start_ns,
                  uint64_t end_ns, uint64_t parent = 0) {
    MutexLock lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, thread, parent, start_ns, end_ns});
    return spans_.size();  // ids start at 1; 0 means "no parent"
  }

  /// [[id, parent, name, thread, start_us, dur_us], ...] relative to t0.
  std::string ToJson(uint64_t t0_ns) const {
    MutexLock lock(mu_);
    std::string out = "[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      snprintf(buf, sizeof(buf), "%s[%zu,%llu,\"%s\",%u,%.3f,%.3f]",
               i == 0 ? "" : ",", i + 1,
               static_cast<unsigned long long>(s.parent), s.name, s.thread,
               (static_cast<double>(s.start_ns) - t0_ns) / 1e3,
               NsToUs(s.end_ns - s.start_ns));
      out += buf;
    }
    return out + "]";
  }

  uint64_t dropped() const {
    MutexLock lock(mu_);
    return dropped_;
  }

 private:
  struct Span {
    const char* name;
    uint32_t thread;
    uint64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

// Span thread ids.
constexpr uint32_t kMainThread = 100;
constexpr uint32_t kInjectorThread = 101;
constexpr uint32_t kProbeThread = 102;

// --------------------------------------------------------- shared context

struct Context {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  DFasterCluster* cluster = nullptr;
  std::atomic<bool> stop{false};
  // relaxed: toggled by the main thread per trace slice; readers only use
  // it to decide whether to time the next call.
  std::atomic<bool> tracing{false};
  // Probes hold this shared; failure injection holds it exclusively, so no
  // probe touches a store while it crashes and restores.
  SharedMutex probe_mu;
  SpanLog spans;
  std::atomic<uint64_t> violations{0};
  Mutex messages_mu;
  std::vector<std::string> messages GUARDED_BY(messages_mu);

  void Violation(const std::string& what) {
    violations.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(messages_mu);
    if (messages.size() < 20) messages.push_back(what);
  }
};

// ------------------------------------------------------------ cut history

/// First time (poller clock) each worker's cut entry reached a version,
/// from the 1 ms poller. `resumed` marks the first poll after a pause: a
/// cover seen there happened at an unknown earlier time.
class CutHistory {
 public:
  void Add(WorkerId w, uint64_t t_ns, Version cut, bool resumed) {
    MutexLock lock(mu_);
    auto& h = history_[w];
    if (!h.empty() && h.back().cut == cut && !resumed) return;
    h.push_back(Entry{t_ns, cut, resumed});
  }

  /// Time at which every worker's cut covered `versions`, or 0 when unknown.
  uint64_t CoverTime(const Version* versions) const {
    MutexLock lock(mu_);
    uint64_t t = 0;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      auto it = history_.find(w);
      if (it == history_.end()) return 0;
      const auto& h = it->second;
      auto e = std::find_if(h.begin(), h.end(), [&](const Entry& x) {
        return x.cut >= versions[w];
      });
      if (e == h.end() || e->resumed || e == h.begin()) return 0;
      t = std::max(t, e->t_ns);
    }
    return t;
  }

 private:
  struct Entry {
    uint64_t t_ns;
    Version cut;
    bool resumed;
  };
  mutable Mutex mu_;
  std::map<WorkerId, std::vector<Entry>> history_ GUARDED_BY(mu_);
};

// ------------------------------------------------------------ load thread

struct CommitSample {
  uint64_t start_ns;
  uint64_t marker;  // covered once the commit point's prefix_end >= marker
  Version versions[kWorkers];  // CurrentVersion at completion (traced only)
  bool traced;
};

/// One closed-loop client: its own DFasterClient and session, issuing a
/// pre-generated YCSB stream as fast as the window allows.
class LoadThread {
 public:
  /// `ops` (kPregenOps long) must outlive the thread.
  LoadThread(Context* ctx, uint32_t tid, const std::vector<YcsbOp>* ops)
      : ctx_(ctx), tid_(tid), ops_(*ops) {
    client_ = ctx->cluster->NewClient(kBatchSize, kWindow);
    session_ = client_->NewSession(1000 + tid);
  }

  DFasterClient* client() { return client_.get(); }

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // --- published counters (any thread) ---
  uint64_t issued() const { return issued_pub_.load(std::memory_order_relaxed); }
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t upserts_completed() const {
    return upserts_.load(std::memory_order_relaxed);
  }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  uint64_t aborted() const { return aborted_.load(std::memory_order_relaxed); }
  uint64_t rolled_back() const {
    return rolled_back_.load(std::memory_order_relaxed);
  }
  uint64_t blocked_ns() const {
    return blocked_ns_.load(std::memory_order_relaxed);
  }
  uint64_t handled_failures() const {
    return handled_.load(std::memory_order_acquire);
  }
  uint64_t resume_ns() const {
    return resume_ns_.load(std::memory_order_acquire);
  }
  /// Arms the next failure episode (called before InjectFailure).
  void ArmEpisode() {
    resume_ns_.store(0, std::memory_order_release);
    in_episode_.store(true, std::memory_order_release);
  }

  // --- results, read after Join ---
  std::vector<std::pair<uint64_t, uint64_t>> op_samples() {
    MutexLock lock(sample_mu_);
    return op_samples_;
  }
  const std::vector<std::pair<uint64_t, uint64_t>>& commit_latencies() const {
    return commit_latencies_;
  }
  const std::vector<std::pair<CommitSample, uint64_t>>& traced_commits()
      const {
    return traced_commits_;
  }
  uint64_t unacked() const { return unacked_; }
  bool commit_covered() const { return commit_covered_; }

  /// True once no completed sample issued before `t_ns` still waits for
  /// its commit (the load keeps running so commits keep being observed).
  bool CommitsDrainedBefore(uint64_t t_ns) {
    MutexLock lock(sample_mu_);
    return std::none_of(
        commit_pending_.begin(), commit_pending_.end(),
        [t_ns](const CommitSample& c) { return c.start_ns < t_ns; });
  }
  uint64_t ops_issued_total() const { return session_->ops_issued(); }

 private:
  void Run() {
    while (!ctx_->stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kOpsPerMaintain; ++i) IssueOne();
      Maintain();
    }
    Finish();
  }

  void IssueOne() {
    const YcsbOp& op = ops_[issued_ % kPregenOps];
    ++issued_;
    const bool sample = issued_ % kSampleStride == 0;
    const bool read = op.type == YcsbOp::Type::kRead;
    DFasterClient::Session::OpCallback callback;
    const uint64_t start_ns = NowNanos();
    if (sample) {
      const bool traced = ctx_->tracing.load(std::memory_order_relaxed);
      callback = [this, start_ns, read, traced](KvResult r, uint64_t) {
        OnResult(r, read);
        OnSampleDone(start_ns, traced);
      };
    } else {
      callback = [this, read](KvResult r, uint64_t) { OnResult(r, read); };
    }
    if (read) {
      session_->Read(op.key, std::move(callback));
    } else {
      session_->Upsert(op.key, op.value, std::move(callback));
    }
    if (ctx_->tracing.load(std::memory_order_relaxed)) {
      const uint64_t end_ns = NowNanos();
      if (end_ns - start_ns >= kBlockedCallNs) {
        blocked_ns_.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
        if (blocked_spans_ < 20000) {
          ++blocked_spans_;
          ctx_->spans.Record("dfaster.issue_blocked", tid_, start_ns, end_ns);
        }
      }
    }
  }

  void OnResult(KvResult r, bool read) {
    switch (r) {
      case KvResult::kOk:
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (!read) upserts_.fetch_add(1, std::memory_order_relaxed);
        break;
      case KvResult::kNotFound:
        // Every key the load touches was preloaded and committed, and the
        // load never deletes: NotFound means a preloaded key was lost.
        ctx_->Violation("read of a preloaded key returned NotFound");
        break;
      default:
        // A batch the failure's world-line shift rejected never executed:
        // that op was aborted by the failure, not failed.
        if (in_episode_.load(std::memory_order_acquire)) {
          aborted_.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
    }
    acked_.fetch_add(1, std::memory_order_relaxed);
  }

  // Transport thread. The marker is read under sample_mu_ so markers queue
  // in increasing order; it covers this op (already dispatched) and at worst
  // the few ops dispatched while it was in flight.
  void OnSampleDone(uint64_t start_ns, bool traced) {
    CommitSample c{};
    c.start_ns = start_ns;
    c.traced = traced;
    if (traced) {
      for (WorkerId w = 0; w < kWorkers; ++w) {
        c.versions[w] = ctx_->cluster->worker(w)->store()->CurrentVersion();
      }
    }
    const uint64_t end_ns = NowNanos();
    MutexLock lock(sample_mu_);
    op_samples_.emplace_back(start_ns, end_ns);
    c.marker = session_->dpr().next_seqno();
    commit_pending_.push_back(c);
  }

  void Maintain() {
    issued_pub_.store(issued_, std::memory_order_relaxed);
    if (session_->needs_failure_handling()) HandleFailure();
    const DprSession::CommitPoint point = session_->dpr().GetCommitPoint();
    const uint64_t now = NowNanos();
    if (awaiting_resume_ && point.prefix_end > prefix_at_handle_) {
      awaiting_resume_ = false;
      resume_ns_.store(now, std::memory_order_release);
    }
    MutexLock lock(sample_mu_);
    while (!commit_pending_.empty() &&
           commit_pending_.front().marker <= point.prefix_end) {
      const CommitSample& c = commit_pending_.front();
      commit_latencies_.emplace_back(c.start_ns, now);
      if (c.traced) traced_commits_.emplace_back(c, now);
      commit_pending_.pop_front();
    }
  }

  void HandleFailure() {
    DprSession::CommitPoint survivors;
    if (!session_->RecoverFromFailure(&survivors).ok()) {
      SleepMicros(1000);  // recovery cut not yet published; retry
      return;
    }
    // Ops issued before the previous failure were already accounted for,
    // so only count what this failure erased above that line.
    const uint64_t issued = session_->dpr().next_seqno();
    const uint64_t floor = std::max(survivors.prefix_end, accounted_seqno_);
    uint64_t lost = issued > floor ? issued - floor : 0;
    for (uint64_t s : survivors.excluded) {
      if (s >= accounted_seqno_ && s < floor) ++lost;
    }
    accounted_seqno_ = issued;
    rolled_back_.fetch_add(lost, std::memory_order_relaxed);
    {
      // Pending commit samples may have been rolled back: drop them.
      MutexLock lock(sample_mu_);
      commit_pending_.clear();
    }
    prefix_at_handle_ = session_->dpr().GetCommitPoint().prefix_end;
    awaiting_resume_ = true;
    in_episode_.store(false, std::memory_order_release);
    handled_.fetch_add(1, std::memory_order_acq_rel);
  }

  void Finish() {
    issued_pub_.store(issued_, std::memory_order_relaxed);
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (session_->needs_failure_handling()) HandleFailure();
      Status s = session_->WaitForCommit(5000);
      if (s.ok()) break;
    }
    const DprSession::CommitPoint point = session_->dpr().GetCommitPoint();
    commit_covered_ = point.prefix_end >= session_->dpr().next_seqno() &&
                      point.excluded.empty();
    const uint64_t acked = acked_.load(std::memory_order_relaxed);
    unacked_ = session_->ops_issued() > acked ? session_->ops_issued() - acked
                                              : 0;
  }

  Context* ctx_;
  const uint32_t tid_;
  const std::vector<YcsbOp>& ops_;
  std::unique_ptr<DFasterClient> client_;
  std::unique_ptr<DFasterClient::Session> session_;
  std::thread thread_;

  // Owner-thread state.
  uint64_t issued_ = 0;
  uint64_t accounted_seqno_ = 0;
  uint64_t prefix_at_handle_ = 0;
  bool awaiting_resume_ = false;
  uint64_t blocked_spans_ = 0;
  uint64_t unacked_ = 0;
  bool commit_covered_ = false;
  std::vector<std::pair<uint64_t, uint64_t>> commit_latencies_;
  std::vector<std::pair<CommitSample, uint64_t>> traced_commits_;

  // relaxed counters: bumped on transport threads, read for reporting after
  // the phase they cover has ended.
  std::atomic<uint64_t> issued_pub_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> upserts_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> rolled_back_{0};
  std::atomic<uint64_t> blocked_ns_{0};
  // Failure-episode handshake with the injector: release/acquire so the
  // injector that sees `handled_`/`resume_ns_` also sees the accounting.
  std::atomic<bool> in_episode_{false};
  std::atomic<uint64_t> handled_{0};
  std::atomic<uint64_t> resume_ns_{0};

  Mutex sample_mu_;
  std::vector<std::pair<uint64_t, uint64_t>> op_samples_ GUARDED_BY(sample_mu_);
  std::deque<CommitSample> commit_pending_ GUARDED_BY(sample_mu_);
};

// ----------------------------------------------------------- audit session

/// A single writer on keys no other session touches. Each write waits for
/// its response before the next, so every write depends on the previous
/// one and a failure erases exactly the writes past the surviving prefix.
/// At the end it commits, reads every key back and expects the last write
/// that survived.
class AuditSession {
 public:
  AuditSession(Context* ctx, DFasterClient* client)
      : ctx_(ctx),
        session_(client->NewSession(5000)),
        base_key_(ctx->spec->num_keys + 1000) {}

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  uint64_t writes() const { return writes_.size(); }

  /// After Join and after every other session stopped: commit, read back.
  bool Verify(std::string* why) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (session_->needs_failure_handling()) HandleFailure();
      if (session_->WaitForCommit(5000).ok()) break;
    }
    std::map<uint64_t, uint64_t> expected;  // key -> last surviving value
    for (const Write& w : writes_) {
      if (!w.lost && w.result == KvResult::kOk) expected[w.key] = w.value;
    }
    struct ReadBack {
      KvResult result = KvResult::kError;
      uint64_t value = 0;
    };
    // Shared with the callbacks, which outlive this call on a timeout.
    auto shared = std::make_shared<std::vector<ReadBack>>(kAuditKeys);
    for (uint32_t i = 0; i < kAuditKeys; ++i) {
      session_->Read(base_key_ + i, [shared, i](KvResult r, uint64_t v) {
        (*shared)[i] = ReadBack{r, v};
      });
    }
    if (!session_->WaitForAll(10000).ok()) {
      *why = "audit read-back timed out";
      return false;
    }
    // WaitForAll returned after every callback ran.
    const std::vector<ReadBack>& got = *shared;
    for (uint32_t i = 0; i < kAuditKeys; ++i) {
      auto it = expected.find(base_key_ + i);
      const bool want_found = it != expected.end();
      const bool found = got[i].result == KvResult::kOk;
      if (found != want_found || (found && got[i].value != it->second)) {
        char buf[200];
        snprintf(buf, sizeof(buf),
                 "audit key %llu: read %s/%llu, expected %s/%llu",
                 static_cast<unsigned long long>(base_key_ + i),
                 found ? "ok" : "missing",
                 static_cast<unsigned long long>(got[i].value),
                 want_found ? "ok" : "missing",
                 static_cast<unsigned long long>(want_found ? it->second : 0));
        *why = buf;
        return false;
      }
    }
    return true;
  }

 private:
  struct Write {
    uint64_t key;
    uint64_t value;
    uint64_t seqno;
    KvResult result;
    bool lost;
  };

  void Run() {
    uint64_t n = 0;
    while (!ctx_->stop.load(std::memory_order_relaxed)) {
      if (session_->needs_failure_handling()) HandleFailure();
      const uint64_t key = base_key_ + n % kAuditKeys;
      const uint64_t value = ++n;
      // Shared with the callback, which may outlive this iteration only if
      // the write is never acknowledged.
      auto result = std::make_shared<std::atomic<KvResult>>(KvResult::kError);
      session_->Upsert(key, value, [result](KvResult r, uint64_t) {
        result->store(r, std::memory_order_release);
      });
      session_->Flush();  // dispatches this one op: its seqno is the last
      const uint64_t seqno = session_->dpr().next_seqno() - 1;
      if (!session_->WaitForAll(30000).ok()) {
        ctx_->Violation("audit write never acknowledged");
        return;
      }
      writes_.push_back(Write{key, value, seqno,
                              result->load(std::memory_order_acquire), false});
      SleepMicros(kAuditPeriodUs);
    }
  }

  void HandleFailure() {
    DprSession::CommitPoint survivors;
    for (int attempt = 0; attempt < 5000; ++attempt) {
      if (session_->RecoverFromFailure(&survivors).ok()) break;
      SleepMicros(1000);
    }
    for (Write& w : writes_) {
      if (w.seqno >= survivors.prefix_end ||
          std::find(survivors.excluded.begin(), survivors.excluded.end(),
                    w.seqno) != survivors.excluded.end()) {
        w.lost = true;
      }
    }
  }

  Context* ctx_;
  std::unique_ptr<DFasterClient::Session> session_;
  const uint64_t base_key_;
  std::vector<Write> writes_;  // audit thread until Join, then Verify
  std::thread thread_;
};

// ---------------------------------------------------- traced-run observers

/// Commit-stage poller (traced run): every 1 ms reads each worker's
/// CurrentVersion, its largest durable checkpoint token, the finder's cut
/// and the worker's persisted_watermark (its copy of the cut, piggybacked
/// on responses), and times each closed version through close -> durable
/// -> cut -> worker.
class CommitPoller {
 public:
  explicit CommitPoller(Context* ctx) : ctx_(ctx) {}

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  const CutHistory& cuts() const { return cuts_; }
  const std::vector<double>& close_to_durable_ms() const {
    return close_to_durable_ms_;
  }
  const std::vector<double>& durable_to_cut_ms() const {
    return durable_to_cut_ms_;
  }
  const std::vector<double>& cut_to_worker_ms() const {
    return cut_to_worker_ms_;
  }

 private:
  struct Pending {
    uint64_t close_ns;
    uint64_t durable_ns;
    uint64_t cut_ns;
  };
  struct WorkerState {
    Version current = kInvalidVersion;
    WorldLine world_line = 0;
    std::map<Version, Pending> pending;
  };

  void Run() {
    WorkerState state[kWorkers];
    bool was_tracing = false;
    while (!stop_.load(std::memory_order_relaxed)) {
      const bool tracing = ctx_->tracing.load(std::memory_order_relaxed);
      if (tracing) Poll(state, !was_tracing);
      was_tracing = tracing;
      SleepMicros(1000);
    }
  }

  void Poll(WorkerState* state, bool resumed) {
    WorldLine wl = 0;
    DprCut cut;
    ctx_->cluster->finder()->GetCut(&wl, &cut);
    const uint64_t now = NowNanos();
    for (WorkerId w = 0; w < kWorkers; ++w) {
      DFasterWorker* worker = ctx_->cluster->worker(w);
      WorkerState& s = state[w];
      const Version current = worker->store()->CurrentVersion();
      const Version durable = worker->store()->LargestDurableToken();
      const Version covered = CutVersion(cut, w);
      const Version seen = worker->dpr_worker()->persisted_watermark();
      const WorldLine worker_wl = worker->dpr_worker()->world_line();
      cuts_.Add(w, now, covered, resumed);
      if (resumed || worker_wl != s.world_line) {
        // After a pause or a rollback the open versions' history is
        // unknown: restart from the current version.
        s.pending.clear();
        s.current = current;
        s.world_line = worker_wl;
        continue;
      }
      if (current != s.current) {
        s.pending[s.current] = Pending{now, 0, 0};
        s.current = current;
      }
      for (auto it = s.pending.begin(); it != s.pending.end();) {
        Pending& p = it->second;
        if (p.durable_ns == 0 && durable >= it->first) p.durable_ns = now;
        if (p.durable_ns != 0 && p.cut_ns == 0 && covered >= it->first) {
          p.cut_ns = now;
        }
        if (p.cut_ns != 0 && seen >= it->first) {
          close_to_durable_ms_.push_back(NsToMs(p.durable_ns - p.close_ns));
          durable_to_cut_ms_.push_back(NsToMs(p.cut_ns - p.durable_ns));
          cut_to_worker_ms_.push_back(NsToMs(now - p.cut_ns));
          it = s.pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  Context* ctx_;
  CutHistory cuts_;
  std::vector<double> close_to_durable_ms_;  // poller thread until Stop
  std::vector<double> durable_to_cut_ms_;
  std::vector<double> cut_to_worker_ms_;
  // relaxed: loop-exit flag; join is the barrier.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Probe thread (traced run, traced slices only). Every 2 ms, alternating
/// workers, it times under load:
///  * a 64-read batch through a client session (batch round trip),
///  * the same batch through DFasterWorker::ExecuteBatch directly,
///  * a burst of FasterStore::Session::Read calls on the live store.
class Prober {
 public:
  Prober(Context* ctx, DFasterClient* client)
      : ctx_(ctx), session_(client->NewSession(6000)) {
    // Preloaded keys owned by each worker under the default assignment.
    uint64_t k = (ctx->seed * 104729) % ctx->spec->num_keys;
    while (keys_[0].size() < kBatchSize || keys_[1].size() < kBatchSize) {
      auto& bucket = keys_[YcsbWorkload::ShardOf(k, kWorkers)];
      if (bucket.size() < kBatchSize) bucket.push_back(k);
      k = (k + 7919) % ctx->spec->num_keys;
    }
  }

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& execute_us() const { return execute_us_; }
  const std::vector<double>& rtt_us() const { return rtt_us_; }
  const std::vector<double>& read_ns() const { return read_ns_; }

 private:
  void Run() {
    uint32_t round = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!ctx_->tracing.load(std::memory_order_relaxed)) {
        SleepMicros(kProbePeriodUs);
        continue;
      }
      if (session_->needs_failure_handling()) {
        (void)session_->RecoverFromFailure(nullptr);
      }
      const WorkerId w = round++ % kWorkers;
      {
        ReaderMutexLock lock(ctx_->probe_mu);
        const uint64_t cycle_start = NowNanos();
        ProbeRoundTrip(w);
        ProbeExecuteBatch(w);
        ProbeStoreReads(w);
        ctx_->spans.Record("probe.cycle", kProbeThread, cycle_start,
                           NowNanos());
      }
      SleepMicros(kProbePeriodUs);
    }
    (void)session_->WaitForAll(10000);
  }

  void ProbeRoundTrip(WorkerId w) {
    // Shared with the callbacks, which outlive this call on a timeout.
    struct Acks {
      Mutex mu;
      CondVar cv;
      uint32_t done GUARDED_BY(mu) = 0;
      uint32_t ok GUARDED_BY(mu) = 0;
      uint64_t last_ns GUARDED_BY(mu) = 0;
    };
    auto acks = std::make_shared<Acks>();
    auto callback = [acks](KvResult r, uint64_t) {
      MutexLock lock(acks->mu);
      acks->ok += r == KvResult::kOk;
      acks->last_ns = NowNanos();
      ++acks->done;
      acks->cv.NotifyAll();
    };
    // The 64th read fills the batch and dispatches it.
    for (uint32_t i = 0; i + 1 < kBatchSize; ++i) {
      session_->Read(keys_[w][i], callback);
    }
    const uint64_t start_ns = NowNanos();
    session_->Read(keys_[w][kBatchSize - 1], callback);
    MutexLock lock(acks->mu);
    const bool all =
        acks->cv.WaitFor(acks->mu, std::chrono::seconds(30),
                         [&]() REQUIRES(acks->mu) {
                           return acks->done == kBatchSize;
                         });
    if (!all) {
      ctx_->Violation("probe batch never acknowledged");
      return;
    }
    // A batch the failure rejected carries no timing.
    if (acks->ok == kBatchSize) {
      rtt_us_.push_back(NsToUs(acks->last_ns - start_ns));
      ctx_->spans.Record("net.batch_rtt", kProbeThread, start_ns,
                         acks->last_ns);
    }
  }

  void ProbeExecuteBatch(WorkerId w) {
    DFasterWorker* worker = ctx_->cluster->worker(w);
    KvBatchRequest request;
    request.header.session_id = 7000 + w;
    request.header.world_line = worker->dpr_worker()->world_line();
    for (uint64_t key : keys_[w]) {
      request.ops.push_back(KvOp{KvOp::Type::kRead, key, 0});
    }
    KvBatchResponse response;
    const uint64_t start_ns = NowNanos();
    worker->ExecuteBatch(request, &response);
    const uint64_t end_ns = NowNanos();
    if (response.header.status != DprResponseHeader::BatchStatus::kOk) {
      return;  // mid-recovery: no timing
    }
    for (const KvOpResult& r : response.results) {
      if (r.result != KvResult::kOk) {
        ctx_->Violation("probe read of a preloaded key failed");
        return;
      }
    }
    execute_us_.push_back(NsToUs(end_ns - start_ns));
    ctx_->spans.Record("dfaster.execute_batch", kProbeThread, start_ns,
                       end_ns);
  }

  void ProbeStoreReads(WorkerId w) {
    std::unique_ptr<FasterStore::Session> store_session =
        ctx_->cluster->worker(w)->store()->NewSession();
    uint64_t sum = 0;
    const uint64_t start_ns = NowNanos();
    for (int rep = 0; rep < 4; ++rep) {
      for (uint64_t key : keys_[w]) {
        uint64_t value = 0;
        if (store_session->Read(key, &value).ok()) sum += value;
      }
    }
    const uint64_t end_ns = NowNanos();
    if (sum == 0) ctx_->Violation("probe store reads found nothing");
    read_ns_.push_back(static_cast<double>(end_ns - start_ns) /
                       (4.0 * kBatchSize));
    ctx_->spans.Record("faster.read_burst", kProbeThread, start_ns, end_ns);
  }

  Context* ctx_;
  std::unique_ptr<DFasterClient::Session> session_;
  std::vector<uint64_t> keys_[kWorkers];
  std::vector<double> execute_us_;  // probe thread until Stop
  std::vector<double> rtt_us_;
  std::vector<double> read_ns_;
  // relaxed: loop-exit flag; join is the barrier.
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --------------------------------------------------------- failure episodes

struct Episode {
  double inject_ms;
  double resume_ms;
  double recovery_ms;
  uint64_t lost;  // ops the load sessions' surviving prefixes dropped
};

/// Crashes `worker` under load and waits until every load session has
/// recovered and seen its commit point advance again.
bool InjectAndWait(Context* ctx,
                   const std::vector<std::unique_ptr<LoadThread>>& loads,
                   WorkerId worker, Episode* out) {
  // Crash right after the finder's cut advances for the worker that
  // survives, so every episode starts at the same point of the survivor's
  // checkpoint cycle. Commits resume only once the survivor checkpoints
  // again; aligned to the victim instead, the two timers' phase (fixed for
  // a deployment's life) decided whether that took ~40 or ~140 ms.
  const WorkerId survivor = (worker + 1) % kWorkers;
  const auto cut_of = [ctx, survivor] {
    WorldLine wl = 0;
    DprCut cut;
    ctx->cluster->finder()->GetCut(&wl, &cut);
    return CutVersion(cut, survivor);
  };
  const Version before = cut_of();
  const uint64_t wait_start = NowNanos();
  while (cut_of() == before && NowNanos() - wait_start < 1000000000ull) {
    SleepMicros(100);
  }
  std::vector<uint64_t> handled_before;
  uint64_t lost_before = 0;
  for (const auto& l : loads) {
    handled_before.push_back(l->handled_failures());
    lost_before += l->rolled_back();
    l->ArmEpisode();
  }
  const uint64_t t0 = NowNanos();
  Status s;
  {
    WriterMutexLock lock(ctx->probe_mu);
    s = ctx->cluster->InjectFailure({worker});
  }
  const uint64_t t1 = NowNanos();
  const uint64_t inject_span =
      ctx->spans.Record("recovery.inject", kInjectorThread, t0, t1);
  if (!s.ok()) {
    ctx->Violation("InjectFailure: " + s.ToString());
    return false;
  }
  uint64_t resumed = 0;
  for (;;) {
    bool all = true;
    resumed = 0;
    for (size_t i = 0; i < loads.size(); ++i) {
      const uint64_t r = loads[i]->resume_ns();
      if (loads[i]->handled_failures() <= handled_before[i] || r == 0) {
        all = false;
        break;
      }
      resumed = std::max(resumed, r);
    }
    if (all) break;
    if (NowNanos() - t0 > kRecoveryTimeoutUs * 1000) {
      ctx->Violation("commits did not resume after a failure");
      return false;
    }
    SleepMicros(200);
  }
  const uint64_t t2 = std::max(resumed, t1);
  ctx->spans.Record("recovery.resume", kInjectorThread, t1, t2, inject_span);
  // Every session handled the failure, so its losses are counted.
  uint64_t lost_after = 0;
  for (const auto& l : loads) lost_after += l->rolled_back();
  *out = Episode{NsToMs(t1 - t0), NsToMs(t2 - t1), NsToMs(t2 - t0),
                 lost_after - lost_before};
  return true;
}

// --------------------------------------------------------------- benchmark

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  bool trace = false;
  std::string dir;
  std::string trace_out;
  std::string git;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < entries_.size(); ++i) {
      snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", entries_[i].name.c_str(), entries_[i].value,
               entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string HostStamp(const Args& args) {
  utsname u{};
  uname(&u);
  const char* net =
      ResolveNetBackend(NetBackend::kAuto) == NetBackend::kIoUring ? "io_uring"
                                                                   : "epoll";
  const char* storage =
      DefaultIoEngine()->kind() == IoEngineKind::kIoUring ? "io_uring"
                                                          : "thread_pool";
  char buf[1024];
  snprintf(buf, sizeof(buf),
           "{\"nproc\": %u, \"kernel\": \"%s %s\", \"machine\": \"%s\", "
           "\"net_backend\": \"%s\", \"storage_engine\": \"%s\", "
           "\"build_type\": \"%s\", \"sanitizer\": \"%s\", \"git\": \"%s\", "
           "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
           "\"trace\": %d}",
           std::thread::hardware_concurrency(), u.sysname, u.release,
           u.machine, net, storage, DPRBENCH_BUILD_TYPE, DPRBENCH_SANITIZER,
           args.git.c_str(), args.spec->name,
           static_cast<unsigned long long>(args.seed),
           static_cast<unsigned long long>(args.seconds), args.trace ? 1 : 0);
  return buf;
}

/// Registry counter deltas, histogram moments and gauge peaks summed over
/// several measurement windows.
class RegistryDelta {
 public:
  void Add(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    for (const auto& [name, value] : b.counters) {
      counters_[name] += value - CounterOf(a, name);
    }
    for (const auto& [name, h] : b.histograms) {
      auto it = a.histograms.find(name);
      Moments& m = histograms_[name];
      m.count += h.count() - (it == a.histograms.end() ? 0 : it->second.count());
      m.sum += h.sum() - (it == a.histograms.end() ? 0 : it->second.sum());
    }
    for (const auto& [name, value] : b.gauges) {
      gauges_[name] = std::max(gauges_[name], value);
    }
  }

  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  /// Mean of the samples the histogram took inside the windows.
  double mean(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end()
               ? 0
               : Ratio(static_cast<double>(it->second.sum), it->second.count);
  }
  int64_t gauge_peak(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
  }

  std::string ToJson() const {
    std::string out = "{\"counters\": {";
    char buf[256];
    bool first = true;
    for (const auto& [name, value] : counters_) {
      snprintf(buf, sizeof(buf), "%s\"%s\": %llu", first ? "" : ", ",
               name.c_str(), static_cast<unsigned long long>(value));
      out += buf;
      first = false;
    }
    out += "}, \"histogram_means\": {";
    first = true;
    for (const auto& [name, m] : histograms_) {
      snprintf(buf, sizeof(buf), "%s\"%s\": [%llu, %.6g]", first ? "" : ", ",
               name.c_str(), static_cast<unsigned long long>(m.count),
               Ratio(static_cast<double>(m.sum), m.count));
      out += buf;
      first = false;
    }
    return out + "}}";
  }

 private:
  struct Moments {
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Moments> histograms_;
  std::map<std::string, int64_t> gauges_;
};

/// Runs the workload on `spec->deployments` fresh deployments in turn,
/// each measured for an equal share of --seconds, and reports over all of
/// them. Every deployment's start sets the two workers' checkpoint timers
/// afresh, so their relative phase, which sets the effective checkpoint
/// cadence for seconds at a time (README.md), is sampled several times.
class Benchmark {
 public:
  explicit Benchmark(const Args& args) : args_(args) {
    ctx_.spec = args.spec;
    ctx_.seed = args.seed;
  }

  int Run() {
    // The op streams come from --seed alone and are shared by every
    // deployment of the run. One generator thread per stream.
    std::vector<std::thread> generators;
    for (uint32_t t = 0; t < kClientThreads; ++t) {
      generators.emplace_back([this, t] {
        YcsbOptions wl;
        wl.num_keys = args_.spec->num_keys;
        wl.zipf_theta = args_.spec->zipf_theta;
        wl.seed = args_.seed * 7919 + 131 * t + 1;
        YcsbWorkload workload(wl);
        streams_[t].reserve(kPregenOps);
        for (uint32_t i = 0; i < kPregenOps; ++i) {
          streams_[t].push_back(workload.Next());
        }
      });
    }
    for (auto& g : generators) g.join();
    const std::string host = HostStamp(args_);
    printf("host: %s\n", host.c_str());
    fflush(stdout);
    t0_ns_ = NowNanos();
    const uint32_t deployments = args_.spec->deployments;
    for (uint32_t i = deployments; i < kMinSetUps; ++i) {
      if (SetUpCluster(i) == nullptr) return Fail();
    }
    for (uint32_t d = 0; d < deployments; ++d) {
      std::unique_ptr<DFasterCluster> cluster = SetUpCluster(d);
      if (cluster == nullptr) return Fail();
      RunDeployment(cluster.get());
      cluster.reset();
      std::error_code ec;
      std::filesystem::remove_all(DirOf(d), ec);
    }
    Report(host);
    std::error_code ec;
    std::filesystem::remove_all(args_.dir, ec);
    return ctx_.violations.load() == 0 ? 0 : 1;
  }

 private:
  int Fail() {
    {
      MutexLock lock(ctx_.messages_mu);
      for (const std::string& m : ctx_.messages) {
        fprintf(stderr, "dprbench: %s\n", m.c_str());
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(args_.dir, ec);
    return 1;
  }

  std::string DirOf(uint32_t i) const {
    return args_.dir + "/deployment" + std::to_string(i);
  }

  ClusterOptions Options(const std::string& dir) const {
    ClusterOptions options;
    options.num_workers = kWorkers;
    options.mode = RecoverabilityMode::kDpr;
    options.backend = StorageBackend::kLocal;
    options.storage_dir = dir;
    options.transport = args_.spec->transport;
    options.tcp.io_threads = 1;
    options.tcp.executor_threads = 1;
    // Everything else stays at the ClusterOptions defaults: 100 ms RPO with
    // the adaptive cadence, approximate finder at 10 ms, 65,536 buckets.
    return options;
  }

  /// Start plus a committed preload on a fresh directory, timed.
  std::unique_ptr<DFasterCluster> SetUpCluster(uint32_t index) {
    const std::string dir = DirOf(index);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
    const uint64_t start = NowNanos();
    auto cluster = std::make_unique<DFasterCluster>(Options(dir));
    Status s = cluster->Start();
    if (!s.ok()) {
      ctx_.Violation("cluster start: " + s.ToString());
      return nullptr;
    }
    if (!Preload(cluster.get())) return nullptr;
    const uint64_t end = NowNanos();
    setup_s_.push_back(static_cast<double>(end - start) / 1e9);
    ctx_.spans.Record("setup", kMainThread, start, end);
    return cluster;
  }

  bool Preload(DFasterCluster* cluster) {
    const uint64_t n = args_.spec->num_keys;
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        auto client = cluster->NewClient(kBatchSize, kWindow);
        auto session = client->NewSession(100 + t);
        for (uint64_t k = t; k < n; k += kClientThreads) session->Upsert(k, k);
        // The preload is committed before timing starts.
        if (!session->WaitForCommit(60000).ok()) ok.store(false);
      });
    }
    for (auto& t : threads) t.join();
    if (!ok.load()) ctx_.Violation("preload did not commit");
    return ok.load();
  }

  void RunDeployment(DFasterCluster* cluster) {
    ctx_.cluster = cluster;
    ctx_.stop.store(false, std::memory_order_relaxed);
    for (uint32_t t = 0; t < kClientThreads; ++t) {
      loads_.push_back(std::make_unique<LoadThread>(&ctx_, t, &streams_[t]));
    }
    audit_ = std::make_unique<AuditSession>(&ctx_, loads_[0]->client());
    if (args_.trace) {
      poller_ = std::make_unique<CommitPoller>(&ctx_);
      prober_ = std::make_unique<Prober>(&ctx_, loads_[0]->client());
    }
    for (auto& l : loads_) l->Start();
    audit_->Start();
    if (args_.trace) {
      poller_->Start();
      prober_->Start();
    }
    SleepMicros(kWarmupUs);

    MeasureWindow();
    DrainWindowCommits();
    RunProbeFailures();

    if (args_.trace) {
      poller_->Stop();
      prober_->Stop();
    }
    ctx_.stop.store(true, std::memory_order_relaxed);
    for (auto& l : loads_) l->Join();
    audit_->Join();
    std::string audit_why;
    if (!audit_->Verify(&audit_why)) ctx_.Violation(audit_why);
    Collect();
    // Sessions before the clients they ride on, all before the cluster.
    prober_.reset();
    poller_.reset();
    audit_.reset();
    loads_.clear();
    ctx_.cluster = nullptr;
  }

  /// Keeps the load running until every sampled op of the window has seen
  /// its commit, so stopping never delays a commit observation.
  void DrainWindowCommits() {
    SleepMicros(20000);  // ops in flight at the window's end complete
    const uint64_t start = NowNanos();
    for (auto& l : loads_) {
      while (!l->CommitsDrainedBefore(win1_ns_) &&
             NowNanos() - start < 5000000000ull) {
        SleepMicros(2000);
      }
    }
  }

  uint64_t LogBytes() const {
    uint64_t bytes = 0;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      FasterStore* store = ctx_.cluster->worker(w)->store();
      bytes += store->tail_address() - store->begin_address();
    }
    return bytes;
  }

  template <typename F>
  uint64_t Sum(F f) const {
    uint64_t total = 0;
    for (const auto& l : loads_) total += f(*l);
    return total;
  }

  void MeasureWindow() {
    MetricsRegistry& registry = MetricsRegistry::Default();
    registry.gauge("net.executor.queue_peak")->Set(0);
    const MetricsSnapshot snap0 = registry.Snapshot();
    const uint64_t log0 = LogBytes();
    const uint64_t completed0 = Sum([](const LoadThread& l) { return l.completed(); });
    const uint64_t upserts0 =
        Sum([](const LoadThread& l) { return l.upserts_completed(); });
    const uint64_t issued0 = Sum([](const LoadThread& l) { return l.issued(); });
    const uint64_t blocked0 = Sum([](const LoadThread& l) { return l.blocked_ns(); });
    win0_ns_ = NowNanos();
    const uint64_t window_ns =
        args_.seconds * 1000000000ull / args_.spec->deployments;
    const uint64_t end_ns = win0_ns_ + window_ns;

    std::thread injector;
    if (args_.spec->failures_in_window) {
      injector = std::thread([this, window_ns] { InjectInWindow(window_ns); });
    }
    // In the traced run slices alternate untraced and traced over the whole
    // run (a hot-inmem window is a single slice), so drift over the run
    // cancels out of the overhead estimate.
    first_slice_ = slices_.size();
    while (NowNanos() < end_ns) {
      const bool traced = args_.trace && slices_.size() % 2 == 1;
      ctx_.tracing.store(traced, std::memory_order_relaxed);
      const uint64_t s0 = NowNanos();
      const uint64_t c0 = Sum([](const LoadThread& l) { return l.completed(); });
      SleepMicros(std::min<uint64_t>(kSliceNs, end_ns - s0) / 1000);
      const uint64_t s1 = NowNanos();
      const uint64_t c1 = Sum([](const LoadThread& l) { return l.completed(); });
      const double mops = (c1 - c0) / NsToUs(s1 - s0);
      slices_.push_back(Slice{s0, s1, mops, slices_.size() == first_slice_});
      (traced ? traced_mops_ : untraced_mops_).push_back(mops);
      if (traced) traced_ns_ += s1 - s0;
      ctx_.spans.Record(traced ? "slice.traced" : "slice", kMainThread, s0,
                        s1);
    }
    ctx_.tracing.store(false, std::memory_order_relaxed);
    win1_ns_ = NowNanos();
    window_ns_ += win1_ns_ - win0_ns_;
    completed_ += Sum([](const LoadThread& l) { return l.completed(); }) - completed0;
    upserts_ += Sum([](const LoadThread& l) { return l.upserts_completed(); }) -
                upserts0;
    issued_ += Sum([](const LoadThread& l) { return l.issued(); }) - issued0;
    blocked_ns_ += Sum([](const LoadThread& l) { return l.blocked_ns(); }) - blocked0;
    log_growth_ += static_cast<double>(LogBytes()) - static_cast<double>(log0);
    const MetricsSnapshot snap1 = registry.Snapshot();
    window_delta_.Add(snap0, snap1);
    if (injector.joinable()) injector.join();
    if (args_.spec->failures_in_window) {
      failure_delta_.Add(snap0, registry.Snapshot());
    }
    ctx_.spans.Record("window", kMainThread, win0_ns_, win1_ns_);
  }

  /// `recovery`: a crash halfway into the window and every 1.5 s after,
  /// while at least 0.5 s of the window remains; workers alternate.
  void InjectInWindow(uint64_t window_ns) {
    for (uint64_t at = window_ns / 2; at + 500000000 <= window_ns;
         at += static_cast<uint64_t>(kFailureSpacingS * 1e9)) {
      const uint64_t due = win0_ns_ + at;
      const uint64_t now = NowNanos();
      if (due > now) SleepMicros((due - now) / 1000);
      Episode e{};
      if (!InjectAndWait(&ctx_, loads_, episodes_.size() % kWorkers, &e)) {
        return;
      }
      episodes_.push_back(e);
    }
  }

  /// Crash episodes after each timed window, so the steady workloads'
  /// throughput and latency never include a recovery. Every deployment
  /// crashes at the same age, so a growing log does not lengthen the later
  /// episodes.
  void RunProbeFailures() {
    MetricsRegistry& registry = MetricsRegistry::Default();
    const MetricsSnapshot snap0 = registry.Snapshot();
    for (uint32_t i = 0; i < args_.spec->failures_per_deployment; ++i) {
      SleepMicros(kProbeGapUs);
      Episode e{};
      if (!InjectAndWait(&ctx_, loads_, i % kWorkers, &e)) break;
      episodes_.push_back(e);
    }
    failure_delta_.Add(snap0, registry.Snapshot());
  }

  /// Folds one deployment's samples and checks into the run's totals.
  void Collect() {
    SummarizeSlices(first_slice_);
    for (const auto& l : loads_) {
      for (const auto& [start, end] : l->op_samples()) {
        if (start >= win0_ns_ && start < win1_ns_) {
          op_us_.push_back(NsToUs(end - start));
        }
      }
      for (const auto& [start, end] : l->commit_latencies()) {
        if (start >= win0_ns_ && start < win1_ns_) {
          commit_ms_.push_back(NsToMs(end - start));
        }
      }
      if (poller_ != nullptr) {
        for (const auto& [c, seen_ns] : l->traced_commits()) {
          const uint64_t cut_ns = poller_->cuts().CoverTime(c.versions);
          if (cut_ns != 0) {
            observe_ms_.push_back(
                (static_cast<double>(seen_ns) - cut_ns) / 1e6);
          }
        }
      }
      unacked_ += l->unacked();
      errors_ += l->errors();
      aborted_ += l->aborted();
      issued_total_ += l->ops_issued_total();
      if (!l->commit_covered()) {
        ctx_.Violation("a session's commit point does not cover its ops");
      }
    }
    issued_total_ += audit_->writes();
    if (poller_ != nullptr) {
      Append(&close_to_durable_ms_, poller_->close_to_durable_ms());
      Append(&durable_to_cut_ms_, poller_->durable_to_cut_ms());
      Append(&cut_to_worker_ms_, poller_->cut_to_worker_ms());
      Append(&execute_us_, prober_->execute_us());
      Append(&rtt_us_, prober_->rtt_us());
      Append(&read_ns_, prober_->read_ns());
    }
  }

  static void Append(std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  }

  void Report(const std::string& host) {
    const double window_s = static_cast<double>(window_ns_) / 1e9;
    if (op_us_.size() < 1000 || commit_ms_.size() < 1000) {
      ctx_.Violation("too few latency samples in the window");
    }
    PrintTimeline();

    std::vector<double> recovery_ms, inject_ms, resume_ms;
    std::vector<double> lost;
    printf("failures (inject ms, resume ms, ops lost):");
    for (const Episode& e : episodes_) {
      recovery_ms.push_back(e.recovery_ms);
      inject_ms.push_back(e.inject_ms);
      resume_ms.push_back(e.resume_ms);
      lost.push_back(static_cast<double>(e.lost));
      printf(" %.1f %.1f %llu;", e.inject_ms, e.resume_ms,
             static_cast<unsigned long long>(e.lost));
    }
    printf("\n");
    if (episodes_.empty()) ctx_.Violation("no failure episode completed");
    printf("setups (s):");
    for (double s : setup_s_) printf(" %.3f", s);
    printf("\n");

    printf("workload %s: %u deployments, %.2f s measured, %llu ops, %zu op "
           "samples, %zu commit samples, %zu failures\n",
           args_.spec->name, args_.spec->deployments, window_s,
           static_cast<unsigned long long>(completed_), op_us_.size(),
           commit_ms_.size(), episodes_.size());
    // Medians over full-length slices.
    std::vector<double> mops, op50, op99;
    for (const Slice& s : slices_) {
      if (s.end_ns - s.start_ns < kSliceNs / 2) continue;
      mops.push_back(s.mops);
      op50.push_back(s.op_p50_us);
      op99.push_back(s.op_p99_us);
    }
    // Reported but not gated: their run-to-run spread is wider than any
    // bound a gate could use (README.md, "What is not gated").
    // The trimmed mean episode's loss, times the episode count.
    const double lost_frac = Ratio(TrimmedMean(lost) * lost.size(), issued_);
    printf("not gated: op_p50_us %.3f, op_p99_us %.3f, commit_p50_ms %.3f, "
           "commit_p99_ms %.3f, lost_ops_frac %.6f\n",
           Median(op50), Median(op99), Quantile(commit_ms_, 0.5),
           Quantile(commit_ms_, 0.99), lost_frac);
    printf("ops issued %llu, failed %llu (errors %llu, never acknowledged "
           "%llu), aborted by a failure %llu, op_error_frac %.3g\n",
           static_cast<unsigned long long>(issued_total_),
           static_cast<unsigned long long>(errors_ + unacked_),
           static_cast<unsigned long long>(errors_),
           static_cast<unsigned long long>(unacked_),
           static_cast<unsigned long long>(aborted_),
           Ratio(static_cast<double>(errors_ + unacked_), issued_total_));

    MetricSet m;
    if (!args_.trace) {
      m.Add("setup_s", Median(setup_s_), "s");
      m.Add("throughput_mops", Median(mops), "Mops");
      m.Add("recovery_ms", TrimmedMean(recovery_ms), "ms");
    } else {
      AddLayerMetrics(&m, window_s, inject_ms, resume_ms);
    }
    m.Print();
    std::vector<std::string> messages;
    {
      MutexLock lock(ctx_.messages_mu);
      messages = ctx_.messages;
    }
    for (const std::string& msg : messages) {
      printf("VIOLATION: %s\n", msg.c_str());
    }
    if (args_.trace && !args_.trace_out.empty()) WriteTrace(host);
    const bool correct = ctx_.violations.load() == 0;
    printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
           "\"metrics\": %s}\n",
           correct ? "true" : "false",
           static_cast<unsigned long long>(std::max<uint64_t>(issued_total_, 1)),
           static_cast<unsigned long long>(errors_ + unacked_),
           m.ToJson().c_str());
    fflush(stdout);
  }

  /// One entry per slice: throughput and the op/commit medians of the
  /// samples issued in it; deployments are separated by '|'.
  void PrintTimeline() const {
    printf("timeline (Mops, op p50 us, commit p50 ms per 0.625 s slice):");
    for (size_t i = 0; i < slices_.size(); ++i) {
      if (i > 0 && slices_[i].first) printf(" |");
      printf(" %.2f %.0f %.0f;", slices_[i].mops, slices_[i].op_p50_us,
             slices_[i].commit_p50_ms);
    }
    printf("\n");
  }

  /// Per-slice medians for the current deployment's slices.
  void SummarizeSlices(size_t first) {
    const size_t n = slices_.size() - first;
    std::vector<std::vector<double>> op_us(n), commit_ms(n);
    auto slice_of = [&](uint64_t t) -> int {
      for (size_t i = 0; i < n; ++i) {
        const Slice& s = slices_[first + i];
        if (t >= s.start_ns && t < s.end_ns) return static_cast<int>(i);
      }
      return -1;
    };
    for (const auto& l : loads_) {
      for (const auto& [start, end] : l->op_samples()) {
        const int i = slice_of(start);
        if (i >= 0) op_us[i].push_back(NsToUs(end - start));
      }
      for (const auto& [start, end] : l->commit_latencies()) {
        const int i = slice_of(start);
        if (i >= 0) commit_ms[i].push_back(NsToMs(end - start));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Slice& s = slices_[first + i];
      s.op_p50_us = Quantile(op_us[i], 0.5);
      s.op_p99_us = Quantile(op_us[i], 0.99);
      s.commit_p50_ms = Quantile(commit_ms[i], 0.5);
    }
  }

  void AddLayerMetrics(MetricSet* m, double window_s,
                       const std::vector<double>& inject_ms,
                       const std::vector<double>& resume_ms) {
    const RegistryDelta& r = window_delta_;
    const double traced_s = static_cast<double>(traced_ns_) / 1e9;

    // dfaster: client batching and the worker's batch entry point.
    const double execute_us = Median(execute_us_);
    const double rtt_us = Median(rtt_us_);
    m->Add("dfaster.issue_block_us",
           Ratio(NsToUs(blocked_ns_), traced_s * kClientThreads), "us/s");
    m->Add("dfaster.batch_fill", r.mean("dfaster.client.batch_fill"), "ops");
    m->Add("dfaster.execute_batch_us", execute_us, "us");
    m->Add("dfaster.commit_observe_ms", Median(observe_ms_), "ms");

    // dpr: admission and the finder's cut.
    m->Add("dpr.admission_retries_per_batch",
           Ratio(r.counter("dpr.worker.admission_retries"),
                 r.counter("dpr.worker.batches")),
           "count");
    m->Add("commit.durable_to_cut_ms", Median(durable_to_cut_ms_), "ms");
    m->Add("commit.cut_to_worker_ms", Median(cut_to_worker_ms_), "ms");

    // net: transport and executor hop.
    const uint64_t syscalls = r.counter("net.tcp.recv_calls") +
                              r.counter("net.tcp.writev_calls") +
                              r.counter("net.uring.sqe_batches");
    const uint64_t frames =
        r.counter("net.tcp.frames_sent") + r.counter("net.tcp.frames_received");
    m->Add("net.batch_rtt_us", rtt_us, "us");
    m->Add("net.transport_queue_us", rtt_us - execute_us, "us");
    m->Add("net.syscalls_per_frame", Ratio(syscalls, frames), "count");
    m->Add("net.executor.queue_peak",
           static_cast<double>(r.gauge_peak("net.executor.queue_peak")),
           "count");

    // faster: store reads, log growth, checkpoint stamp.
    m->Add("faster.read_ns", Median(read_ns_), "ns");
    m->Add("faster.log_bytes_per_op", Ratio(log_growth_, completed_), "B");
    m->Add("faster.checkpoint.stamp_us", r.mean("faster.checkpoint.stamp_us"),
           "us");

    // ckpt / storage: the commit path below the finder.
    const double persisted =
        static_cast<double>(r.counter("ckpt.log_bytes_persisted") +
                            r.counter("ckpt.index_bytes_persisted"));
    m->Add("commit.close_to_durable_ms", Median(close_to_durable_ms_), "ms");
    m->Add("faster.checkpoint.flush_us", r.mean("faster.checkpoint.flush_us"),
           "us");
    m->Add("storage.sched.wait_us", r.mean("storage.sched.wait_us"), "us");
    m->Add("storage.fsyncs_per_ckpt",
           Ratio(r.counter("storage.sched.fsyncs"),
                 r.counter("faster.checkpoints_flushed")),
           "count");
    m->Add("ckpt.interval_us",
           Ratio(window_s * 1e6 * kWorkers,
                 r.counter("faster.checkpoints_stamped")),
           "us");
    m->Add("ckpt.write_amp", Ratio(persisted, 16.0 * upserts_), "ratio");

    // recovery: harness, cluster manager, FASTER rollback.
    const uint64_t chain = failure_delta_.counter("ckpt.chain_restores");
    const uint64_t scan = failure_delta_.counter("ckpt.scan_restores");
    m->Add("recovery.inject_ms", Median(inject_ms), "ms");
    m->Add("recovery.resume_ms", Median(resume_ms), "ms");
    m->Add("recovery.chain_restore_frac", Ratio(chain, chain + scan), "frac");

    // Registry counter rates over the windows.
    const char* rates[][2] = {
        {"dpr.worker.batches", "dpr.worker.batches_per_s"},
        {"dpr.finder.cut_advances", "dpr.finder.cut_advances_per_s"},
        {"storage.sched.fsyncs", "storage.sched.fsyncs_per_s"},
        {"storage.sched.coalesced", "storage.sched.coalesced_per_s"},
        {"storage.io.submitted", "storage.io.submitted_per_s"},
        {"ckpt.full", "ckpt.full_per_s"},
        {"ckpt.delta", "ckpt.delta_per_s"},
        {"net.executor.tasks", "net.executor.tasks_per_s"},
        {"net.tcp.frames_received", "net.tcp.frames_received_per_s"},
    };
    for (const auto& [counter, name] : rates) {
      m->Add(name, r.counter(counter) / window_s, "1/s");
    }

    // Tracing cost: traced slices against the untraced ones.
    const double traced = Median(traced_mops_);
    const double untraced = Median(untraced_mops_);
    m->Add("trace.throughput_mops", traced, "Mops");
    m->Add("trace.untraced_throughput_mops", untraced, "Mops");
    m->Add("trace.overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0,
           "frac");
  }

  void WriteTrace(const std::string& host) {
    FILE* f = fopen(args_.trace_out.c_str(), "w");
    if (f == nullptr) {
      ctx_.Violation("cannot write " + args_.trace_out);
      return;
    }
    fprintf(f, "{\"host\": %s,\n\"spans_dropped\": %llu,\n", host.c_str(),
            static_cast<unsigned long long>(ctx_.spans.dropped()));
    fprintf(f, "\"registry_windows\": %s,\n", window_delta_.ToJson().c_str());
    fprintf(f, "\"spans\": %s}\n", ctx_.spans.ToJson(t0_ns_).c_str());
    fclose(f);
  }

  const Args args_;
  Context ctx_;
  std::vector<YcsbOp> streams_[kClientThreads];
  // The current deployment's sessions and observers.
  std::vector<std::unique_ptr<LoadThread>> loads_;
  std::unique_ptr<AuditSession> audit_;
  std::unique_ptr<CommitPoller> poller_;
  std::unique_ptr<Prober> prober_;
  uint64_t win0_ns_ = 0, win1_ns_ = 0;
  size_t first_slice_ = 0;

  // Totals over every deployment.
  struct Slice {
    uint64_t start_ns;
    uint64_t end_ns;
    double mops;
    bool first;  // first slice of a deployment
    double op_p50_us = 0;
    double op_p99_us = 0;
    double commit_p50_ms = 0;
  };
  std::vector<Slice> slices_;
  std::vector<double> setup_s_;
  std::vector<Episode> episodes_;
  std::vector<double> op_us_, commit_ms_, observe_ms_;
  std::vector<double> close_to_durable_ms_, durable_to_cut_ms_,
      cut_to_worker_ms_;
  std::vector<double> execute_us_, rtt_us_, read_ns_;
  std::vector<double> traced_mops_, untraced_mops_;
  uint64_t t0_ns_ = 0, window_ns_ = 0, traced_ns_ = 0, blocked_ns_ = 0;
  uint64_t completed_ = 0, upserts_ = 0, issued_ = 0;
  uint64_t unacked_ = 0, errors_ = 0, aborted_ = 0, issued_total_ = 0;
  double log_growth_ = 0;
  RegistryDelta window_delta_, failure_delta_;
};

bool ParseArgs(const Flags& flags, Args* args, std::string* why) {
  const std::string name = flags.GetString("workload", "");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) args->spec = &spec;
  }
  if (args->spec == nullptr) {
    *why = "unknown --workload '" + name + "'";
    return false;
  }
  const int64_t seconds = flags.GetInt("seconds", 0);
  if (!flags.Has("seed") || seconds < 1 || seconds > 600) {
    *why = "need --seed and --seconds in [1,600]";
    return false;
  }
  args->seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  args->seconds = static_cast<uint64_t>(seconds);
  args->trace = flags.GetInt("trace", 0) != 0;
  args->dir = flags.GetString("dir", "");
  args->trace_out = flags.GetString("trace_out", "");
  args->git = flags.GetString("git", "unknown");
  if (args->dir.empty()) {
    *why = "need --dir";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  dpr::Args args;
  std::string why;
  if (!dpr::ParseArgs(flags, &args, &why)) {
    fprintf(stderr, "dprbench: %s\n", why.c_str());
    return 2;
  }
  dpr::Benchmark bench(args);
  return bench.Run();
}
