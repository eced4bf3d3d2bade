// Figure 14: impact of the storage backend on throughput as the checkpoint
// interval shrinks from 500 ms to 25 ms.
//
// Expected shape: backends differ little at long intervals; cloud-latency
// storage (checkpoint persist ~50 ms) degrades sharply once the interval
// approaches the persist time (thrashing at <= 50 ms).
// A second section benches the storage plane itself: N WAL-style shards
// packed onto one physical device (DeviceSlice), appending and fsyncing
// through the old per-shard path vs. the group-commit scheduler, under both
// I/O engines. Reports fsync counts, waiters coalesced, and the append
// stamp->durable latency distribution.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "harness/stats.h"
#include "obs/metrics.h"
#include "storage/async_io.h"
#include "storage/device.h"
#include "storage/fsync_scheduler.h"

namespace dpr {
namespace {

// ------------------------------------------------------ storage-plane bench

struct ShardLoadResult {
  uint64_t fsyncs = 0;     // device fsyncs actually issued
  uint64_t coalesced = 0;  // waiters absorbed into an already-pending group
  uint64_t appends = 0;
  double seconds = 0;
  Histogram durable_us;  // per-append stamp->durable latency

  double AppendsPerSec() const {
    return seconds > 0 ? appends / seconds : 0.0;
  }
};

/// `shards` writer threads share one FileDevice through DeviceSlice views,
/// each appending 256-byte records and waiting for durability after every
/// append — either with a private per-shard fsync (the old sync path) or as
/// group-commit waiters on the shared scheduler.
ShardLoadResult RunShardLoad(IoEngineKind engine_kind, bool group_commit,
                             uint32_t shards, uint32_t appends_per_shard) {
  const std::string path =
      "/tmp/dpr_bench_fig14_shards_" + std::to_string(getpid()) + ".bin";
  auto engine = MakeIoEngine({.kind = engine_kind});
  std::unique_ptr<FileDevice> base;
  Status s = FileDevice::Open(path, /*reset=*/true, &base, engine);
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  GroupCommitScheduler sched;
  constexpr uint64_t kSliceBytes = 16ull << 20;
  std::vector<std::unique_ptr<DeviceSlice>> slices;
  for (uint32_t i = 0; i < shards; ++i) {
    slices.push_back(std::make_unique<DeviceSlice>(base.get(), i * kSliceBytes));
  }

  ShardLoadResult result;
  std::vector<Histogram> per_thread(shards);
  std::vector<std::thread> threads;
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  const uint64_t t_start = NowMicros();
  for (uint32_t i = 0; i < shards; ++i) {
    threads.emplace_back([&, i] {
      DeviceSlice* slice = slices[i].get();
      char record[256];
      memset(record, 'a' + (i % 26), sizeof(record));
      uint64_t offset = 0;
      for (uint32_t n = 0; n < appends_per_shard; ++n) {
        Status ws = SyncIo::Write(slice, offset, record, sizeof(record));
        DPR_CHECK_MSG(ws.ok(), "%s", ws.ToString().c_str());
        offset += sizeof(record);
        const uint64_t stamp = NowMicros();
        Status fs =
            group_commit ? sched.SyncNow(slice) : SyncIo::Fsync(slice);
        DPR_CHECK_MSG(fs.ok(), "%s", fs.ToString().c_str());
        per_thread[i].Record(NowMicros() - stamp);
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = (NowMicros() - t_start) / 1e6;
  result.appends = static_cast<uint64_t>(shards) * appends_per_shard;
  for (const auto& h : per_thread) result.durable_us.Merge(h);
  // The old path issues exactly one device fsync per append; the scheduler
  // counts its own in the registry.
  MetricsSnapshot delta = MetricsRegistry::Default().Snapshot();
  delta.SubtractCounters(before);
  result.fsyncs =
      group_commit ? delta.counters["storage.sched.fsyncs"] : result.appends;
  result.coalesced = delta.counters["storage.sched.coalesced"];
  base.reset();
  remove(path.c_str());
  return result;
}

void RunStoragePlane(const BenchConfig& config, BenchJsonOutput* json) {
  const uint32_t kShards = 4;
  const uint32_t appends = config.quick ? 200 : 2000;
  printf(
      "\n=== Storage plane: %u shards on one device, fsync-per-append vs "
      "group commit ===\n",
      kShards);
  ResultTable table({"engine", "mode", "fsyncs", "coalesced", "appends/s",
                     "p50-us", "p99-us"});
  std::vector<std::pair<std::string, IoEngineKind>> engines = {
      {"pool", IoEngineKind::kThreadPool}};
  if (IoUringSupported()) {
    engines.push_back({"uring", IoEngineKind::kIoUring});
  }
  for (const auto& [engine_name, engine_kind] : engines) {
    uint64_t naive_fsyncs = 0;
    for (bool group_commit : {false, true}) {
      const ShardLoadResult r =
          RunShardLoad(engine_kind, group_commit, kShards, appends);
      const std::string mode = group_commit ? "group-commit" : "per-shard";
      table.AddRow({engine_name, mode, std::to_string(r.fsyncs),
                    std::to_string(r.coalesced),
                    ResultTable::Fmt(r.AppendsPerSec()),
                    std::to_string(r.durable_us.Percentile(50)),
                    std::to_string(r.durable_us.Percentile(99))});
      const std::string prefix = "storage." + engine_name + "." + mode;
      json->artifact().AddPoint(prefix + ".fsyncs", kShards,
                                static_cast<double>(r.fsyncs));
      json->artifact().AddPoint(prefix + ".coalesced", kShards,
                                static_cast<double>(r.coalesced));
      json->artifact().AddPoint(prefix + ".appends_per_sec", kShards,
                                r.AppendsPerSec());
      json->artifact().AddPoint(prefix + ".stamp_to_durable.p50_us", kShards,
                                static_cast<double>(r.durable_us.Percentile(50)));
      json->artifact().AddPoint(prefix + ".stamp_to_durable.p99_us", kShards,
                                static_cast<double>(r.durable_us.Percentile(99)));
      if (group_commit) {
        const double reduction =
            r.fsyncs > 0 ? static_cast<double>(naive_fsyncs) / r.fsyncs : 0.0;
        printf("    %s: group commit reduced fsyncs %.1fx "
               "(%llu -> %llu for %llu durability waits)\n",
               engine_name.c_str(), reduction,
               static_cast<unsigned long long>(naive_fsyncs),
               static_cast<unsigned long long>(r.fsyncs),
               static_cast<unsigned long long>(r.appends));
        json->artifact().AddPoint("storage." + engine_name +
                                      ".fsync_reduction_x",
                                  kShards, reduction);
      } else {
        naive_fsyncs = r.fsyncs;
      }
    }
  }
  table.Print();
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig14_storage");
  json.RecordConfig(config);
  const std::vector<uint64_t> intervals_ms = {500, 250, 100, 50, 25};
  const std::vector<std::pair<std::string, StorageBackend>> backends = {
      {"null", StorageBackend::kNull},
      {"local-ssd", StorageBackend::kLocal},
      {"cloud-ssd", StorageBackend::kCloud},
  };
  printf("\n=== Figure 14: storage backend vs checkpoint interval ===\n");
  ResultTable table({"interval-ms", "backend", "Mops"});
  for (uint64_t interval : intervals_ms) {
    for (const auto& [name, backend] : backends) {
      ClusterOptions options;
      options.num_workers = 2;
      options.backend = backend;
      options.checkpoint_interval_us = interval * 1000;
      DFasterCluster cluster(options);
      Status s = cluster.Start();
      DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
      DriverOptions driver;
      driver.num_client_threads = config.client_threads;
      driver.duration_ms = config.duration_ms;
      driver.workload.num_keys = config.num_keys;
      driver.workload.zipf_theta = 0.99;
      const DriverResult result = RunYcsbDriver(&cluster, driver);
      json.AddDriverResult(name, interval, result);
      table.AddRow({std::to_string(interval), name,
                    ResultTable::Fmt(result.Mops())});
    }
  }
  table.Print();
  RunStoragePlane(config, &json);
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig14_storage (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
