#ifndef DPR_BENCH_BENCH_UTIL_H_
#define DPR_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "harness/cluster.h"
#include "obs/bench_artifact.h"
#include "workload/ycsb.h"

namespace dpr {

/// Configuration for one YCSB measurement over a DFasterCluster — the
/// equivalent of one data point in the paper's §7 figures.
struct DriverOptions {
  uint32_t num_client_threads = 2;
  uint64_t duration_ms = 1500;
  uint32_t batch_size = 64;
  uint32_t window = 1024;  // paper default: w = 16b
  YcsbOptions workload;
  /// < 0: dedicated remote clients. >= 0: clients co-locate with workers
  /// (round-robin) and pick a local-shard key with this probability.
  double local_fraction = -1.0;
  /// Sampling rate for op/commit latency (paper: 0.1%). 0 disables.
  double latency_sample_rate = 0.0;
  /// Pre-load every key before measuring (avoids NotFound reads).
  bool preload = true;
  /// Track commit progress (pings at drain time). Disable for clusters
  /// running without DPR, where commits never arrive.
  bool track_commits = true;
};

struct DriverResult {
  uint64_t completed = 0;
  uint64_t committed = 0;
  double seconds = 0;
  Histogram op_latency_us;
  Histogram commit_latency_us;

  double Mops() const {
    return seconds > 0 ? completed / seconds / 1e6 : 0.0;
  }
  double CommittedMops() const {
    return seconds > 0 ? committed / seconds / 1e6 : 0.0;
  }
};

/// Runs the YCSB driver against a started cluster for `duration_ms` and
/// aggregates counters across client threads.
DriverResult RunYcsbDriver(DFasterCluster* cluster,
                           const DriverOptions& options);

/// Per-interval throughput sample for timeline experiments (Fig. 16).
struct TimelineSample {
  double t_seconds;
  double completed_mops;
  double committed_mops;
  double aborted_mops;
  /// Events that ran inside this sample (just before its end was stamped).
  uint32_t events = 0;
};

/// Runs the driver while sampling throughput every `interval_ms`, invoking
/// `at` (if set) once at each scheduled event time (seconds) — used to
/// inject failures mid-run. A nonzero `event_interval_ms` samples that
/// often from one `interval_ms` before each event until 0.5 s after it, so
/// a stall shorter than `interval_ms` shows in the timeline.
std::vector<TimelineSample> RunTimelineDriver(
    DFasterCluster* cluster, const DriverOptions& options,
    uint64_t interval_ms,
    const std::vector<std::pair<double, std::function<void()>>>& events,
    uint64_t event_interval_ms = 0);

/// Preloads all keys of the workload's key space with value = key.
void Preload(DFasterCluster* cluster, const YcsbOptions& workload,
             uint32_t batch_size, uint32_t window);

/// YCSB driver over a Redis-style cluster (Fig. 17-19). Only Set/Get.
struct RedisDriverResult {
  uint64_t completed = 0;
  double seconds = 0;
  Histogram op_latency_us;
  double Mops() const {
    return seconds > 0 ? completed / seconds / 1e6 : 0.0;
  }
};

RedisDriverResult RunRedisDriver(DRedisCluster* cluster,
                                 const DriverOptions& options);

/// Shared bench-binary scaffolding: parses --quick/--duration_ms/... flags.
struct BenchConfig {
  bool quick = true;
  uint64_t duration_ms = 1200;
  uint64_t num_keys = 100000;
  uint32_t client_threads = 2;
  /// Workload mix (paper §7.2 also ran RMW and read-mostly variants):
  /// --reads=0.9 --rmw=0.1 etc. Defaults to YCSB-A 50:50 read/blind-update.
  double read_fraction = 0.5;
  double rmw_fraction = 0.0;

  static BenchConfig FromFlags(const Flags& flags);
};

/// Shared --json_out plumbing for every bench binary: when the flag is set,
/// the run's data points, latency histograms, and a final metrics-registry
/// snapshot are serialized as BENCH_<name>.json (tables keep printing to
/// stdout either way). With the flag absent every Add* call is a no-op, so
/// benches instrument unconditionally.
class BenchJsonOutput {
 public:
  /// `bench_name` is the artifact's `bench` field; the output path comes
  /// from --json_out (a file path, or a directory to get the conventional
  /// BENCH_<name>.json name inside it).
  BenchJsonOutput(const Flags& flags, std::string bench_name);

  bool enabled() const { return !path_.empty(); }
  BenchArtifact& artifact() { return artifact_; }

  /// Stamps the shared config knobs (quick/duration/keys/threads/mix).
  void RecordConfig(const BenchConfig& config);

  /// One measurement: a point on `series` at `x` (y = completed Mops), a
  /// companion "<series>.committed" point when commits were tracked, and —
  /// when latency sampling was on — "<series>@x" op/commit histograms.
  void AddDriverResult(const std::string& series, double x,
                       const DriverResult& result);
  void AddRedisResult(const std::string& series, double x,
                      const RedisDriverResult& result);

  /// Timeline samples as completed/committed/aborted Mops series.
  void AddTimeline(const std::vector<TimelineSample>& samples,
                   const std::string& prefix = std::string());

  /// Attaches the global registry snapshot and writes the file. No-op
  /// (and OK) when --json_out was not given; dies on write failure so CI
  /// never silently drops an artifact.
  void Finish();

 private:
  std::string path_;
  BenchArtifact artifact_;
};

}  // namespace dpr

#endif  // DPR_BENCH_BENCH_UTIL_H_
