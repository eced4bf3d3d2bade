// Microbenchmarks (google-benchmark) for the core primitives: FASTER ops,
// epoch protection, DPR finder algorithms, header codecs, and hashing.
//
// Unlike the figure benches this binary hands argv to google-benchmark, so
// main() peels off the shared harness flags first: --quick shortens
// min-time, --json_out=<path|dir> writes BENCH_micro_core.json with one
// point per benchmark (ns/op and items/s) plus the registry snapshot.
#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "dpr/dep_tracker.h"
#include "dpr/finder.h"
#include "dpr/finder_service.h"
#include "dpr/header.h"
#include "epoch/light_epoch.h"
#include "faster/faster_store.h"
#include "net/inmemory_net.h"
#include "obs/bench_artifact.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

std::unique_ptr<FasterStore> MakeStore() {
  FasterOptions options;
  options.index_buckets = 1 << 16;
  options.log_device = std::make_unique<NullDevice>();
  options.meta_device = std::make_unique<NullDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

void BM_FasterUpsert(benchmark::State& state) {
  auto store = MakeStore();
  auto session = store->NewSession();
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->Upsert(rng.Uniform(100000), rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterUpsert);

void BM_FasterRead(benchmark::State& state) {
  auto store = MakeStore();
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 100000; ++k) {
    benchmark::DoNotOptimize(session->Upsert(k, k));
  }
  Random rng(2);
  uint64_t value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->Read(rng.Uniform(100000), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterRead);

void BM_FasterRmw(benchmark::State& state) {
  auto store = MakeStore();
  auto session = store->NewSession();
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->Rmw(rng.Uniform(1000), 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterRmw);

// The FASTER stage of a batch: 64 random reads over a 1M-key store, with
// (arg 1) and without (arg 0) Session::Prefetch over the batch first, as
// DFasterWorker::RunOps does. Time is per batch: ns per read is Time / 64,
// or 1e9 / items_per_second.
void BM_FasterReadBatch64(benchmark::State& state) {
  constexpr uint64_t kKeys = 1 << 20;
  constexpr size_t kBatch = 64;
  FasterOptions options;
  options.index_buckets = 1 << 18;  // ~1.8M entries: no overflow buckets
  options.log_device = std::make_unique<NullDevice>();
  options.meta_device = std::make_unique<NullDevice>();
  FasterStore store(std::move(options));
  auto session = store.NewSession();
  for (uint64_t k = 0; k < kKeys; ++k) {
    benchmark::DoNotOptimize(session->Upsert(k, k));
  }
  const bool prefetch = state.range(0) != 0;
  Random rng(4);
  uint64_t keys[kBatch];
  uint64_t value;
  for (auto _ : state) {
    for (uint64_t& k : keys) k = rng.Uniform(kKeys);
    if (prefetch) session->Prefetch(keys, kBatch);
    for (const uint64_t k : keys) {
      benchmark::DoNotOptimize(session->Read(k, &value));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FasterReadBatch64)->Arg(0)->Arg(1);

void BM_EpochProtectRefresh(benchmark::State& state) {
  LightEpoch epoch;
  epoch.Protect();
  for (auto _ : state) {
    benchmark::DoNotOptimize(epoch.Refresh());
  }
  epoch.Unprotect();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochProtectRefresh);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(1 << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_HeaderEncodeDecode(benchmark::State& state) {
  DprRequestHeader header;
  header.session_id = 1;
  header.version = 42;
  for (int w = 0; w < state.range(0); ++w) header.deps[w] = w + 1;
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    header.EncodeTo(&buf);
    DprRequestHeader decoded;
    benchmark::DoNotOptimize(decoded.DecodeFrom(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeaderEncodeDecode)->Arg(2)->Arg(8);

// DPR finder report+cut cycle: the per-checkpoint protocol cost.
template <FinderKind kKind>
void BM_FinderReportAndCut(benchmark::State& state) {
  MetadataStore metadata(std::make_unique<NullDevice>());
  (void)metadata.Recover();
  auto finder = MakeDprFinder({.kind = kKind, .metadata = &metadata});
  const int workers = static_cast<int>(state.range(0));
  for (int w = 0; w < workers; ++w) (void)finder->AddWorker(w, 0);
  Version version = 1;
  for (auto _ : state) {
    for (int w = 0; w < workers; ++w) {
      DependencySet deps;
      if (version > 1) deps[(w + 1) % workers] = version - 1;
      (void)finder->ReportPersistedVersion(
          finder->CurrentWorldLine(), WorkerVersion{uint32_t(w), version},
          deps);
    }
    (void)finder->ComputeCut();
    ++version;
  }
  state.SetItemsProcessed(state.iterations() * workers);
}
BENCHMARK_TEMPLATE(BM_FinderReportAndCut, FinderKind::kApprox)
    ->Arg(8)
    ->Arg(64);
BENCHMARK_TEMPLATE(BM_FinderReportAndCut, FinderKind::kExact)
    ->Arg(8)
    ->Arg(64);
BENCHMARK_TEMPLATE(BM_FinderReportAndCut, FinderKind::kHybrid)
    ->Arg(8)
    ->Arg(64);

// Sharded dependency tracking under concurrent batch admission (the
// BeginBatch hot path). Each thread plays a distinct client session, so
// records spread across stripes; the tracker is periodically drained the
// way a checkpoint would.
void BM_DepTrackerRecord(benchmark::State& state) {
  static VersionDependencyTracker tracker(16);
  const uint64_t session = 0x9e3779b97f4a7c15ull *
                           static_cast<uint64_t>(state.thread_index() + 1);
  DependencySet deps;
  deps[1] = 5;  // one cross-worker dependency: the locked (striped) path
  Version v = 1;
  for (auto _ : state) {
    tracker.Record(session + (v & 7), v, deps, /*self=*/0);
    if ((++v & 4095) == 0) {
      benchmark::DoNotOptimize(tracker.DrainUpTo(v));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DepTrackerRecord)->Threads(1)->Threads(8);

// Batches with no cross-worker dependencies take the lock-free path.
void BM_DepTrackerRecordNoDeps(benchmark::State& state) {
  static VersionDependencyTracker tracker(16);
  const uint64_t session = 0x9e3779b97f4a7c15ull *
                           static_cast<uint64_t>(state.thread_index() + 1);
  const DependencySet empty;
  Version v = 1;
  for (auto _ : state) {
    tracker.Record(session, v++, empty, /*self=*/0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DepTrackerRecordNoDeps)->Threads(1)->Threads(8);

// Asynchronous batched reporting through the remote finder client: reports
// enqueue locally and the background flusher coalesces them into
// kReportBatch RPCs; reports_per_batch > 1 means batching is effective.
void BM_RemoteFinderBatchedReport(benchmark::State& state) {
  MetadataStore metadata(std::make_unique<NullDevice>());
  (void)metadata.Recover();
  auto local =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  InMemoryNetOptions net_options;
  InMemoryNetwork net(net_options);
  DprFinderServer server(local.get(), net.CreateServer("finder"));
  (void)server.Start();
  RemoteDprFinderOptions remote_options;
  remote_options.flush_interval_us = 200;
  RemoteDprFinder remote(net.Connect(server.address()), remote_options);
  (void)remote.AddWorker(0, 0);
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  Version v = 1;
  for (auto _ : state) {
    (void)remote.ReportPersistedVersion(kInitialWorldLine,
                                        WorkerVersion{0, v++},
                                        DependencySet());
  }
  (void)remote.Flush();
  MetricsSnapshot delta = MetricsRegistry::Default().Snapshot();
  delta.SubtractCounters(before);
  state.counters["reports_per_batch"] =
      static_cast<double>(delta.counters["dpr.remote.reports_sent"]) /
      std::max<uint64_t>(1, delta.counters["dpr.remote.batches_sent"]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteFinderBatchedReport);

/// Console reporter that additionally folds every finished run into the
/// artifact: series "ns_per_op" and "items_per_second", one point per
/// benchmark (x = run index, label = benchmark name).
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  explicit ArtifactReporter(BenchArtifact* artifact) : artifact_(artifact) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    if (artifact_ == nullptr) return;
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      const std::string name = run.benchmark_name();
      const double ns_per_op =
          run.real_accumulated_time / static_cast<double>(run.iterations) *
          1e9;
      artifact_->AddPoint("ns_per_op", index_, ns_per_op, name);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        artifact_->AddPoint("items_per_second", index_, items->second.value,
                            name);
      }
      ++index_;
    }
  }

 private:
  BenchArtifact* artifact_;
  double index_ = 0;
};

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  // Peel the harness flags off before google-benchmark sees argv.
  std::string json_out;
  bool quick = false;
  std::vector<char*> bench_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--quick") == 0 ||
               std::strcmp(argv[i], "--quick=true") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--quick=false") == 0) {
      // explicit full run: keep google-benchmark's default min time
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.05";
  if (quick) bench_argv.push_back(min_time.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  dpr::BenchArtifact artifact("micro_core");
  artifact.SetConfig("quick", quick);
  dpr::ArtifactReporter reporter(json_out.empty() ? nullptr : &artifact);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    struct stat st;
    if (json_out.back() == '/' ||
        (::stat(json_out.c_str(), &st) == 0 && S_ISDIR(st.st_mode))) {
      if (json_out.back() != '/') json_out += '/';
      json_out += "BENCH_micro_core.json";
    }
    artifact.AddSnapshot(dpr::MetricsRegistry::Default().Snapshot());
    const dpr::Status s = artifact.WriteToFile(json_out);
    if (!s.ok()) {
      fprintf(stderr, "--json_out write to %s failed: %s\n", json_out.c_str(),
              s.ToString().c_str());
      return 1;
    }
    printf("[bench] wrote %s\n", json_out.c_str());
  }
  return 0;
}
