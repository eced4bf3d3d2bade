// Figure 16: impact of recovery on throughput — a timeline of completed,
// committed, and aborted operations per second with a failure injected at
// 1/3 of the run and a nested double failure at 2/3, running on the async
// storage plane (file-backed devices, group-commit fsync) with the adaptive
// checkpoint cadence (src/ckpt/). Restores walk the delta chain, so the
// artifact carries ckpt.chain_restores / ckpt.scan_restores alongside the
// timeline. The timeline samples every 250 ms, and every 10 ms from 250 ms
// before each failure until 0.5 s after it; a table after the timeline
// gives each failure's inline recovery time and commit gap.
//
// Expected shape: commit progress stalls briefly (~100s of ms) around each
// failure while operation throughput only dips; some operations abort in
// the rollback; the nested failure behaves as two failure-recovery
// sequences without extra recovery time.
//
// --live_rescale instead runs the elastic variant: the cluster grows from
// 2 to 3 workers under load (DESIGN.md §4i) and the joiner is then killed,
// so recovery runs over live-migrated partitions — the ownership table and
// the delta chains both have to survive the flip.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

ClusterOptions BaseOptions() {
  ClusterOptions options;
  options.num_workers = 2;
  options.mode = RecoverabilityMode::kDpr;
  options.backend = StorageBackend::kLocal;
  options.checkpoint_interval_us = 100000;  // paper: 100 ms RPO ceiling
  return options;
}

void PrintCkptCounters(const MetricsSnapshot& before) {
  MetricsSnapshot delta = MetricsRegistry::Default().Snapshot();
  delta.SubtractCounters(before);
  printf("checkpoint counters:\n");
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("ckpt.", 0) == 0 || name.rfind("faster.checkpoints", 0) == 0) {
      printf("  %-40s %llu\n", name.c_str(),
             static_cast<unsigned long long>(value));
    }
  }
}

// Per failure: how long the sample holding the inline InjectFailure took,
// and the commit gap, from that sample's start to the start of the first
// later sample with commits (10 ms resolution).
void PrintFailureDips(const std::vector<TimelineSample>& samples,
                      BenchJsonOutput* json) {
  printf("%8s  %10s  %14s\n", "fail(s)", "inject ms", "commit gap ms");
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].events == 0) continue;
    const double start = samples[i - 1].t_seconds;
    const double inject_ms = (samples[i].t_seconds - start) * 1e3;
    size_t j = i + 1;
    while (j < samples.size() && samples[j].committed_mops == 0) ++j;
    if (j == samples.size()) continue;  // commits never resumed in the run
    const double gap_ms = (samples[j - 1].t_seconds - start) * 1e3;
    printf("%8.2f  %10.1f  %14.1f\n", start, inject_ms, gap_ms);
    if (json->enabled()) {
      json->artifact().AddPoint("failure.inject_ms", start, inject_ms);
      json->artifact().AddPoint("failure.commit_gap_ms", start, gap_ms);
    }
  }
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig16_recovery");
  json.RecordConfig(config);
  const uint64_t total_ms = config.quick ? 9000 : 45000;
  ClusterOptions options = BaseOptions();
  DFasterCluster cluster(options);
  Status s = cluster.Start();
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

  DriverOptions driver;
  driver.num_client_threads = config.client_threads;
  driver.duration_ms = total_ms;
  driver.workload.num_keys = config.num_keys;
  driver.workload.zipf_theta = 0.99;

  const double t1 = total_ms / 3000.0;        // single failure
  const double t2 = 2 * total_ms / 3000.0;    // double (nested) failure
  std::vector<std::pair<double, std::function<void()>>> events = {
      {t1, [&] { (void)cluster.InjectFailure({0}); }},
      {t2, [&] { (void)cluster.InjectFailure({1}); }},
      {t2 + 0.2, [&] { (void)cluster.InjectFailure({0}); }},
  };
  printf("\n=== Figure 16: recovery timeline (failures at %.1fs, %.1fs, "
         "%.1fs) ===\n",
         t1, t2, t2 + 0.2);
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  // 10 ms samples around each failure: the commit stall after a recovery
  // is shorter than the 250 ms between samples elsewhere.
  const auto samples = RunTimelineDriver(&cluster, driver, /*interval_ms=*/250,
                                         events, /*event_interval_ms=*/10);
  json.AddTimeline(samples);
  if (json.enabled()) {
    json.artifact().SetConfig("failure_t1_s", t1);
    json.artifact().SetConfig("failure_t2_s", t2);
  }
  printf("%8s  %14s  %14s  %12s\n", "t(s)", "completed Mops",
         "committed Mops", "aborted Mops");
  for (const auto& sample : samples) {
    printf("%8.2f  %14.3f  %14.3f  %12.3f\n", sample.t_seconds,
           sample.completed_mops, sample.committed_mops,
           sample.aborted_mops);
  }
  PrintFailureDips(samples, &json);
  PrintCkptCounters(before);
  json.Finish();
}

/// --live_rescale: grow 2 -> 3 under load, then kill the joiner. Recovery
/// has to restore partitions whose ownership flipped mid-run and whose
/// checkpoint chains started on another worker's cadence.
void RunLiveRescale(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig16_recovery");
  json.RecordConfig(config);

  ClusterOptions options = BaseOptions();
  DFasterCluster cluster(options);
  Status s = cluster.Start();
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

  DriverOptions driver;
  driver.num_client_threads = config.client_threads;
  // Room for the rescale, the failure, and the post-recovery tail —
  // restoring the joiner's migrated partitions can take a couple seconds.
  driver.duration_ms = std::max<uint64_t>(config.duration_ms, 8000);
  driver.workload.num_keys = config.num_keys;
  driver.workload.zipf_theta = 0.99;

  const double t_join = driver.duration_ms / 1000.0 * 0.2;
  const double t_fail = driver.duration_ms / 1000.0 * 0.45;
  printf("\n=== Figure 16b: join at %.1fs, kill the joiner at %.1fs ===\n",
         t_join, t_fail);
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  WorkerId joiner = kInvalidWorker;
  std::thread rescale;
  std::thread failure;
  std::vector<std::pair<double, std::function<void()>>> events;
  events.emplace_back(t_join, [&cluster, &rescale, &joiner] {
    // Off-thread so the timeline keeps sampling through every
    // dual-ownership window (same shape as fig10's --live_rescale).
    rescale = std::thread([&cluster, &joiner] {
      Status as = cluster.AddWorker(&joiner);
      DPR_CHECK_MSG(as.ok(), "%s", as.ToString().c_str());
      uint32_t moved = 0;
      for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; vp += 3) {
        Status ms = cluster.MigratePartition(vp, joiner);
        DPR_CHECK_MSG(ms.ok(), "migrate vp %u: %s", vp,
                      ms.ToString().c_str());
        ++moved;
      }
      Status act = cluster.ActivateWorker(joiner);
      DPR_CHECK_MSG(act.ok(), "%s", act.ToString().c_str());
      printf("[live_rescale] worker %u joined; %u partitions migrated\n",
             joiner, moved);
    });
  });
  events.emplace_back(t_fail, [&cluster, &rescale, &failure, &joiner] {
    // The migrations are sub-second; make completion explicit anyway so the
    // failure always lands on a fully-joined member. Recovery itself runs
    // off-thread: restoring the joiner's migrated partitions can take
    // seconds, and the dip during that window is the measurement.
    if (rescale.joinable()) rescale.join();
    DPR_CHECK(joiner != kInvalidWorker);
    failure = std::thread(
        [&cluster, &joiner] { (void)cluster.InjectFailure({joiner}); });
  });
  const auto samples = RunTimelineDriver(&cluster, driver, 100, events);
  if (rescale.joinable()) rescale.join();
  if (failure.joinable()) failure.join();

  json.AddTimeline(samples, "live_rescale");
  if (json.enabled()) {
    json.artifact().SetConfig("join_t_s", t_join);
    json.artifact().SetConfig("failure_t_s", t_fail);
  }
  printf("%8s  %14s  %14s  %12s\n", "t(s)", "completed Mops",
         "committed Mops", "aborted Mops");
  for (const auto& sample : samples) {
    printf("%8.2f  %14.3f  %14.3f  %12.3f\n", sample.t_seconds,
           sample.completed_mops, sample.committed_mops,
           sample.aborted_mops);
  }
  PrintCkptCounters(before);
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig16_recovery (quick=%d; --live_rescale kills a live-"
         "migrated joiner)\n",
         flags.GetBool("quick", true) ? 1 : 0);
  if (flags.GetBool("live_rescale", false)) {
    dpr::RunLiveRescale(flags);
  } else {
    dpr::Run(flags);
  }
  return 0;
}
