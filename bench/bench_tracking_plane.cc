// Tracking-plane observability: runs YCSB-A over a DPR cluster with the
// finder in-process and again deployed behind the batching RPC client
// (ClusterOptions::remote_finder), printing each run's delta of the
// registry's tracking-plane series (`dpr.dep_tracker.*`, `dpr.finder.*`,
// `dpr.remote.*`). Under load the remote deployment should show
// reports-per-batch > 1 (reports coalesce instead of one RPC per
// checkpoint) and the dependency tracker should show mostly lock-free
// records for single-shard sessions.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

/// `delta` holds one run's counters; its gauges are process-wide levels
/// (the staged peak is the peak since process start).
void PrintTrackingPlane(const char* label, const MetricsSnapshot& delta) {
  auto count = [&delta](const std::string& name) -> unsigned long long {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  };
  auto level = [&delta](const std::string& name) -> unsigned long long {
    const auto it = delta.gauges.find(name);
    return it == delta.gauges.end() ? 0 : std::max<int64_t>(it->second, 0);
  };
  printf("tracking plane [%s]\n", label);
  printf("  dep tracker : records=%llu lock-free=%llu drains=%llu live=%llu\n",
         count("dpr.dep_tracker.records"),
         count("dpr.dep_tracker.empty_records"),
         count("dpr.dep_tracker.drains"),
         level("dpr.dep_tracker.live_entries"));
  printf("  finder core : ingested=%llu stale=%llu staged-peak=%llu "
         "cut-advances=%llu\n",
         count("dpr.finder.reports_ingested"),
         count("dpr.finder.reports_stale"),
         level("dpr.finder.staged_peak"),
         count("dpr.finder.cut_advances"));
  const unsigned long long batches = count("dpr.remote.batches_sent");
  const unsigned long long enqueued = count("dpr.remote.reports_enqueued");
  if (batches > 0 || enqueued > 0) {
    printf("  remote      : enqueued=%llu batches=%llu reports/batch=%.2f "
           "rejected=%llu retries=%llu snapshots=%llu\n",
           enqueued, batches,
           static_cast<double>(count("dpr.remote.reports_sent")) /
               std::max(1ull, batches),
           count("dpr.remote.reports_rejected"),
           count("dpr.remote.retries_timeout") +
               count("dpr.remote.retries_transient") +
               count("dpr.remote.retries_other"),
           count("dpr.remote.snapshot_refreshes"));
  }
  fflush(stdout);
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "tracking_plane");
  json.RecordConfig(config);
  for (bool remote : {false, true}) {
    ClusterOptions options;
    options.num_workers = 2;
    options.mode = RecoverabilityMode::kDpr;
    options.backend = StorageBackend::kNull;
    options.checkpoint_interval_us = 10000;  // frequent reports
    options.remote_finder = remote;
    const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
    DFasterCluster cluster(options);
    Status s = cluster.Start();
    DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());

    DriverOptions driver;
    driver.num_client_threads = config.client_threads;
    driver.duration_ms = config.duration_ms;
    driver.workload.num_keys = config.num_keys;
    driver.workload.read_fraction = config.read_fraction;
    driver.workload.rmw_fraction = config.rmw_fraction;
    const DriverResult result = RunYcsbDriver(&cluster, driver);
    json.AddDriverResult(remote ? "remote" : "local", remote ? 1 : 0, result);
    printf("\n[%s finder] %.3f Mops completed, %.3f Mops committed\n",
           remote ? "remote" : "local", result.Mops(),
           result.CommittedMops());
    MetricsSnapshot delta = MetricsRegistry::Default().Snapshot();
    delta.SubtractCounters(before);
    PrintTrackingPlane(remote ? "remote" : "local", delta);
    // Recovery goes through the same plane the workers report to (with
    // remote_finder, BeginRecovery/EndRecovery travel over the RPC client).
    s = cluster.InjectFailure({0});
    printf("  recovery    : inject worker-0 failure -> %s, world-line=%llu\n",
           s.ok() ? "recovered" : s.ToString().c_str(),
           static_cast<unsigned long long>(cluster.finder()->CurrentWorldLine()));
    cluster.Stop();
  }
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_tracking_plane (--duration_ms/--threads control load)\n");
  dpr::Run(flags);
  return 0;
}
