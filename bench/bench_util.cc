#include "bench_util.h"

#include <sys/stat.h>

#include <cstdio>
#include <deque>
#include "common/sync.h"
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "harness/stats.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

/// Registry mirrors of the driver aggregates, so a --json_out snapshot (or a
/// chaos failure dump) carries the bench totals alongside the plane metrics.
struct BenchMetricsRefs {
  Counter* ops_completed;
  Counter* ops_committed;
  Counter* ops_aborted;
};

const BenchMetricsRefs& BenchMetrics() {
  static const BenchMetricsRefs refs = [] {
    auto& r = MetricsRegistry::Default();
    return BenchMetricsRefs{r.counter("bench.ops_completed"),
                            r.counter("bench.ops_committed"),
                            r.counter("bench.ops_aborted")};
  }();
  return refs;
}

void PublishBenchCounters(const std::vector<std::unique_ptr<BenchCounters>>&
                              stats) {
  uint64_t completed = 0, committed = 0, aborted = 0;
  for (const auto& s : stats) {
    completed += s->completed.load(std::memory_order_relaxed);
    committed += s->committed.load(std::memory_order_relaxed);
    aborted += s->aborted.load(std::memory_order_relaxed);
  }
  BenchMetrics().ops_completed->Add(completed);
  BenchMetrics().ops_committed->Add(committed);
  BenchMetrics().ops_aborted->Add(aborted);
}

struct CommitSample {
  uint64_t start_us;
  uint64_t marker;  // commit covers the sample once prefix_end >= marker
};

class YcsbDriverThread {
 public:
  YcsbDriverThread(DFasterCluster* cluster, const DriverOptions& options,
                   uint32_t tid, BenchCounters* stats,
                   std::atomic<bool>* stop_flag)
      : options_(options),
        tid_(tid),
        stats_(stats),
        stop_(stop_flag),
        rng_(options.workload.seed + 7919 * tid) {
    YcsbOptions wl = options.workload;
    wl.seed += tid * 131;
    workload_ = std::make_unique<YcsbWorkload>(wl);
    // Pre-generate the op stream: key-popularity sampling (especially
    // Zipfian's pow()) must not be charged to the store on a shared core.
    pregen_.reserve(kPregenOps);
    for (uint32_t i = 0; i < kPregenOps; ++i) pregen_.push_back(workload_->Next());
    if (options_.latency_sample_rate > 0) {
      sample_stride_ = static_cast<uint64_t>(1.0 / options_.latency_sample_rate);
      if (sample_stride_ == 0) sample_stride_ = 1;
    }
    if (options_.local_fraction >= 0) {
      local_worker_ = tid % cluster->num_workers();
      client_ = cluster->NewColocatedClient(local_worker_,
                                            options_.batch_size,
                                            options_.window);
      local_keys_.reserve(kPregenOps);
      for (uint32_t i = 0; i < kPregenOps; ++i) {
        local_keys_.push_back(
            workload_->NextKeyOnShard(local_worker_, cluster->num_workers()));
      }
    } else {
      client_ = cluster->NewClient(options_.batch_size, options_.window);
    }
    session_ = client_->NewSession(1000 + tid);
    num_workers_ = cluster->num_workers();
  }

  void Run() {
    while (!stop_->load(std::memory_order_relaxed)) {
      for (int i = 0; i < 256 && !stop_->load(std::memory_order_relaxed);
           ++i) {
        IssueOne();
      }
      Maintain();
    }
    // Drain: resolve outstanding ops and absorb final commit state.
    (void)session_->WaitForAll(10000);
    Maintain();
  }

  /// Gives commits a grace period to arrive (reads carry the cut back).
  void FinishCommits(uint64_t grace_ms) {
    const Stopwatch timer;
    uint64_t target = session_->dpr().next_seqno();
    while (timer.ElapsedMillis() < grace_ms) {
      const auto point = session_->dpr().GetCommitPoint();
      if (point.prefix_end >= target && point.excluded.empty()) break;
      if (session_->needs_failure_handling()) {
        HandleFailure();
        target = session_->dpr().next_seqno();
      }
      for (uint32_t w = 0; w < num_workers_; ++w) {
        // Read round-trips double as cut pings.
        session_->Read(workload_->NextKeyOnShard(w, num_workers_), nullptr);
      }
      (void)session_->WaitForAll(2000);
      DrainSamplesAndPublish();
      SleepMicros(2000);
    }
    DrainSamplesAndPublish();
  }

  Histogram& op_latency() { return op_latency_; }
  Histogram& commit_latency() { return commit_latency_; }

 private:
  void IssueOne() {
    YcsbOp op = pregen_[issued_ % kPregenOps];
    if (options_.local_fraction >= 0) {
      if (rng_.NextDouble() < options_.local_fraction) {
        op.key = local_keys_[issued_ % kPregenOps];
      }
    }
    ++issued_;
    const bool sample = sample_stride_ > 0 && issued_ % sample_stride_ == 0;
    DFasterClient::Session::OpCallback callback;
    const uint64_t start_us = sample ? NowMicros() : 0;
    if (sample) {
      callback = [this, start_us](KvResult, uint64_t) {
        // Called from a transport thread; histograms merge per thread via
        // the sample queue below, so guard with the sample mutex.
        MutexLock guard(sample_mu_);
        op_latency_.Record(NowMicros() - start_us);
      };
    } else {
      callback = [this](KvResult, uint64_t) {
        stats_->completed.fetch_add(1, std::memory_order_relaxed);
      };
    }
    if (sample) {
      // count sampled ops too
      auto inner = std::move(callback);
      callback = [this, inner = std::move(inner)](KvResult r, uint64_t v) {
        inner(r, v);
        stats_->completed.fetch_add(1, std::memory_order_relaxed);
      };
    }
    switch (op.type) {
      case YcsbOp::Type::kRead:
        session_->Read(op.key, std::move(callback));
        break;
      case YcsbOp::Type::kUpsert:
        session_->Upsert(op.key, op.value, std::move(callback));
        break;
      case YcsbOp::Type::kRmw:
        session_->Rmw(op.key, 1, std::move(callback));
        break;
    }
    if (sample) {
      // A commit-latency sample covers everything dispatched so far plus
      // the current batch; flush so the marker includes this op.
      session_->Flush();
      MutexLock guard(sample_mu_);
      commit_samples_.push_back(
          CommitSample{start_us, session_->dpr().next_seqno()});
    }
  }

  void Maintain() {
    if (session_->needs_failure_handling()) HandleFailure();
    DrainSamplesAndPublish();
  }

  void DrainSamplesAndPublish() {
    const auto point = session_->dpr().GetCommitPoint();
    const uint64_t committed_now =
        point.prefix_end - point.excluded.size() + committed_base_;
    uint64_t prev = stats_->committed.load(std::memory_order_relaxed);
    if (committed_now > prev) {
      stats_->committed.store(committed_now, std::memory_order_relaxed);
    }
    if (options_.latency_sample_rate > 0) {
      const uint64_t now = NowMicros();
      MutexLock guard(sample_mu_);
      while (!commit_samples_.empty() &&
             commit_samples_.front().marker <= point.prefix_end) {
        commit_latency_.Record(now - commit_samples_.front().start_us);
        commit_samples_.pop_front();
      }
    }
  }

  void HandleFailure() {
    (void)session_->WaitForAll(5000);
    DprSession::CommitPoint survivors;
    Status s = session_->RecoverFromFailure(&survivors);
    if (!s.ok()) {
      SleepMicros(2000);
      return;  // recovery info not yet published; retry on next Maintain
    }
    const uint64_t issued = session_->dpr().next_seqno();
    // next_seqno resets semantics: HandleFailure keeps seqnos, so lost ops =
    // everything above the surviving prefix plus holes inside it.
    const uint64_t lost =
        issued - survivors.prefix_end + survivors.excluded.size();
    stats_->aborted.fetch_add(lost, std::memory_order_relaxed);
    committed_base_ = 0;  // prefix continues monotonically within dpr session
    {
      MutexLock guard(sample_mu_);
      commit_samples_.clear();
    }
  }

  const DriverOptions& options_;
  const uint32_t tid_;
  BenchCounters* stats_;
  std::atomic<bool>* stop_;
  Random rng_;
  std::unique_ptr<YcsbWorkload> workload_;
  std::unique_ptr<DFasterClient> client_;
  std::unique_ptr<DFasterClient::Session> session_;
  uint32_t num_workers_ = 1;
  uint32_t local_worker_ = 0;
  static constexpr uint32_t kPregenOps = 65536;
  std::vector<YcsbOp> pregen_;
  std::vector<uint64_t> local_keys_;
  uint64_t sample_stride_ = 0;
  uint64_t issued_ = 0;
  uint64_t committed_base_ = 0;

  Mutex sample_mu_;
  std::deque<CommitSample> commit_samples_ GUARDED_BY(sample_mu_);
  // Recorded under sample_mu_ while the run is live; the unlocked accessors
  // above are only called after the driver thread has joined.
  Histogram op_latency_;
  Histogram commit_latency_;
};

}  // namespace

void Preload(DFasterCluster* cluster, const YcsbOptions& workload,
             uint32_t batch_size, uint32_t window) {
  auto client = cluster->NewClient(batch_size, window);
  auto session = client->NewSession(1);
  for (uint64_t k = 0; k < workload.num_keys; ++k) {
    session->Upsert(k, k);
  }
  Status s = session->WaitForAll(60000);
  DPR_CHECK_MSG(s.ok(), "preload failed: %s", s.ToString().c_str());
}

DriverResult RunYcsbDriver(DFasterCluster* cluster,
                           const DriverOptions& options) {
  if (options.preload) {
    Preload(cluster, options.workload, options.batch_size, options.window);
  }
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<BenchCounters>> stats;
  std::vector<std::unique_ptr<YcsbDriverThread>> drivers;
  for (uint32_t t = 0; t < options.num_client_threads; ++t) {
    stats.push_back(std::make_unique<BenchCounters>());
    drivers.push_back(std::make_unique<YcsbDriverThread>(
        cluster, options, t, stats.back().get(), &stop));
  }
  std::vector<std::thread> threads;
  const Stopwatch timer;
  for (auto& driver : drivers) {
    threads.emplace_back([&driver] { driver->Run(); });
  }
  SleepMicros(options.duration_ms * 1000);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();
  // Let in-flight commits land so the committed count is meaningful.
  if (options.track_commits) {
    for (auto& driver : drivers) driver->FinishCommits(1500);
  }

  DriverResult result;
  result.seconds = seconds;
  for (uint32_t t = 0; t < options.num_client_threads; ++t) {
    result.completed += stats[t]->completed.load();
    result.committed += stats[t]->committed.load();
    result.op_latency_us.Merge(drivers[t]->op_latency());
    result.commit_latency_us.Merge(drivers[t]->commit_latency());
  }
  PublishBenchCounters(stats);
  return result;
}

std::vector<TimelineSample> RunTimelineDriver(
    DFasterCluster* cluster, const DriverOptions& options,
    uint64_t interval_ms,
    const std::vector<std::pair<double, std::function<void()>>>& events,
    uint64_t event_interval_ms) {
  if (options.preload) {
    Preload(cluster, options.workload, options.batch_size, options.window);
  }
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<BenchCounters>> stats;
  std::vector<std::unique_ptr<YcsbDriverThread>> drivers;
  for (uint32_t t = 0; t < options.num_client_threads; ++t) {
    stats.push_back(std::make_unique<BenchCounters>());
    drivers.push_back(std::make_unique<YcsbDriverThread>(
        cluster, options, t, stats.back().get(), &stop));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) {
    threads.emplace_back([&driver] { driver->Run(); });
  }

  std::vector<TimelineSample> samples;
  size_t next_event = 0;
  uint64_t last_completed = 0;
  uint64_t last_committed = 0;
  uint64_t last_aborted = 0;
  double last_t = 0.0;
  const Stopwatch timer;
  const double total_seconds = options.duration_ms / 1000.0;
  const auto near_event = [&](double t) {
    for (const auto& event : events) {
      if (t >= event.first - interval_ms / 1000.0 && t < event.first + 0.5) {
        return true;
      }
    }
    return false;
  };
  while (timer.ElapsedSeconds() < total_seconds) {
    const bool fine =
        event_interval_ms != 0 && near_event(timer.ElapsedSeconds());
    SleepMicros((fine ? event_interval_ms : interval_ms) * 1000);
    double t = timer.ElapsedSeconds();
    uint32_t fired = 0;
    while (next_event < events.size() && events[next_event].first <= t) {
      events[next_event].second();
      ++next_event;
      ++fired;
    }
    // Re-stamp after the events: a callback that blocks (an inline recovery)
    // must widen this sample's dt, not get charged to the old window.
    t = timer.ElapsedSeconds();
    uint64_t completed = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    for (auto& s : stats) {
      completed += s->completed.load(std::memory_order_relaxed);
      committed += s->committed.load(std::memory_order_relaxed);
      aborted += s->aborted.load(std::memory_order_relaxed);
    }
    // Actual elapsed time since the previous sample: an event callback that
    // blocks (a recovery, a rescale) must not inflate the next rate.
    const double dt = t - last_t;
    samples.push_back(TimelineSample{
        t, (completed - last_completed) / dt / 1e6,
        (committed - last_committed) / dt / 1e6,
        (aborted - last_aborted) / dt / 1e6, fired});
    last_t = t;
    last_completed = completed;
    last_committed = committed;
    last_aborted = aborted;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  PublishBenchCounters(stats);
  return samples;
}

RedisDriverResult RunRedisDriver(DRedisCluster* cluster,
                                 const DriverOptions& options) {
  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> completed(options.num_client_threads);
  std::vector<Histogram> latencies(options.num_client_threads);
  std::vector<std::thread> threads;
  std::vector<Mutex> lat_mus(options.num_client_threads);
  const Stopwatch timer;
  for (uint32_t t = 0; t < options.num_client_threads; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster->NewClient(options.batch_size, options.window);
      auto session = client->NewSession(2000 + t);
      YcsbOptions wl = options.workload;
      wl.seed += t * 131;
      YcsbWorkload workload(wl);
      Random rng(wl.seed ^ 0xbadc0de);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i) {
          const YcsbOp op = workload.Next();
          const bool sample =
              options.latency_sample_rate > 0 &&
              rng.NextDouble() < options.latency_sample_rate;
          DRedisClient::Session::OpCallback callback;
          if (sample) {
            const uint64_t start = NowMicros();
            callback = [&, start, t](Status, Slice) {
              MutexLock guard(lat_mus[t]);
              latencies[t].Record(NowMicros() - start);
              completed[t].fetch_add(1, std::memory_order_relaxed);
            };
          } else {
            callback = [&, t](Status, Slice) {
              completed[t].fetch_add(1, std::memory_order_relaxed);
            };
          }
          if (op.type == YcsbOp::Type::kRead) {
            session->Get(op.key, std::move(callback));
          } else {
            session->Set(op.key, op.value, std::move(callback));
          }
        }
      }
      (void)session->WaitForAll(10000);
    });
  }
  SleepMicros(options.duration_ms * 1000);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  RedisDriverResult result;
  result.seconds = timer.ElapsedSeconds();
  for (uint32_t t = 0; t < options.num_client_threads; ++t) {
    result.completed += completed[t].load();
    result.op_latency_us.Merge(latencies[t]);
  }
  return result;
}

BenchJsonOutput::BenchJsonOutput(const Flags& flags, std::string bench_name)
    : artifact_(bench_name) {
  path_ = flags.GetString("json_out", "");
  if (path_.empty()) return;
  struct stat st;
  const bool is_dir =
      path_.back() == '/' ||
      (::stat(path_.c_str(), &st) == 0 && S_ISDIR(st.st_mode));
  if (is_dir) {
    if (path_.back() != '/') path_ += '/';
    path_ += "BENCH_" + bench_name + ".json";
  }
}

void BenchJsonOutput::RecordConfig(const BenchConfig& config) {
  if (!enabled()) return;
  artifact_.SetConfig("quick", config.quick);
  artifact_.SetConfig("duration_ms", config.duration_ms);
  artifact_.SetConfig("num_keys", config.num_keys);
  artifact_.SetConfig("client_threads",
                      static_cast<uint64_t>(config.client_threads));
  artifact_.SetConfig("read_fraction", config.read_fraction);
  artifact_.SetConfig("rmw_fraction", config.rmw_fraction);
}

namespace {

std::string HistogramName(const std::string& series, double x,
                          const char* which) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return series + "@" + buf + "." + which;
}

}  // namespace

void BenchJsonOutput::AddDriverResult(const std::string& series, double x,
                                      const DriverResult& result) {
  if (!enabled()) return;
  artifact_.AddPoint(series, x, result.Mops());
  if (result.committed > 0) {
    artifact_.AddPoint(series + ".committed", x, result.CommittedMops());
  }
  if (result.op_latency_us.count() > 0) {
    artifact_.AddHistogram(HistogramName(series, x, "op_latency_us"),
                           result.op_latency_us);
  }
  if (result.commit_latency_us.count() > 0) {
    artifact_.AddHistogram(HistogramName(series, x, "commit_latency_us"),
                           result.commit_latency_us);
  }
}

void BenchJsonOutput::AddRedisResult(const std::string& series, double x,
                                     const RedisDriverResult& result) {
  if (!enabled()) return;
  artifact_.AddPoint(series, x, result.Mops());
  if (result.op_latency_us.count() > 0) {
    artifact_.AddHistogram(HistogramName(series, x, "op_latency_us"),
                           result.op_latency_us);
  }
}

void BenchJsonOutput::AddTimeline(const std::vector<TimelineSample>& samples,
                                  const std::string& prefix) {
  if (!enabled()) return;
  for (const auto& s : samples) {
    artifact_.AddPoint(prefix + "completed_mops", s.t_seconds,
                       s.completed_mops);
    artifact_.AddPoint(prefix + "committed_mops", s.t_seconds,
                       s.committed_mops);
    artifact_.AddPoint(prefix + "aborted_mops", s.t_seconds, s.aborted_mops);
  }
}

void BenchJsonOutput::Finish() {
  if (!enabled()) return;
  artifact_.AddSnapshot(MetricsRegistry::Default().Snapshot());
  const Status s = artifact_.WriteToFile(path_);
  DPR_CHECK_MSG(s.ok(), "--json_out write to %s failed: %s", path_.c_str(),
                s.ToString().c_str());
  std::printf("[bench] wrote %s\n", path_.c_str());
}

BenchConfig BenchConfig::FromFlags(const Flags& flags) {
  BenchConfig config;
  config.quick = flags.GetBool("quick", true);
  config.duration_ms =
      static_cast<uint64_t>(flags.GetInt("duration_ms", config.quick ? 1200 : 10000));
  config.num_keys = static_cast<uint64_t>(
      flags.GetInt("num_keys", config.quick ? 100000 : 1000000));
  config.client_threads = static_cast<uint32_t>(
      flags.GetInt("client_threads", 2));
  config.read_fraction = flags.GetDouble("reads", 0.5);
  config.rmw_fraction = flags.GetDouble("rmw", 0.0);
  return config;
}

}  // namespace dpr
