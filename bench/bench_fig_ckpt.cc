// Checkpoint-plane figure: what the delta chain and the cadence controller
// buy (DESIGN.md §4j).
//
// Phase A — bytes persisted per checkpoint. One run takes 32 image
// checkpoints of the same workload; the store picks each image, so the run
// holds two chains of a full image (the chain's first link) and 15 deltas.
// Expected: a delta persists a small fraction of the full image's index
// bytes, at the same recovery points.
//
// Phase B — flushes on idle vs hot shards. A controller-driven checkpoint
// loop runs for a fixed wall-clock window over an idle store and a hot
// store. Expected: the idle shard flushes once (the initial report) and
// then skips, while the hot shard flushes on nearly every RPO interval —
// close to the window/RPO count a fixed timer would flush on either shard.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_util.h"
#include "ckpt/cadence.h"
#include "common/clock.h"
#include "common/logging.h"
#include "faster/faster_store.h"
#include "harness/stats.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

std::unique_ptr<FasterStore> NewStore(uint64_t buckets) {
  FasterOptions options;
  options.index_buckets = buckets;
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  return std::make_unique<FasterStore>(std::move(options));
}

Version Checkpoint(FasterStore* store, bool image) {
  Version token = kInvalidVersion;
  Status s = store->PerformCheckpoint(store->CurrentVersion() + 1, nullptr,
                                      &token,
                                      CheckpointHints{.index_image = image});
  DPR_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
  store->WaitForCheckpoints();
  return token;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  const auto bit = before.counters.find(name);
  const auto ait = after.counters.find(name);
  const uint64_t b = bit == before.counters.end() ? 0 : bit->second;
  const uint64_t a = ait == after.counters.end() ? 0 : ait->second;
  return a - b;
}

// Index and log bytes of the checkpoints of one image kind.
struct ImageBytes {
  uint64_t checkpoints = 0;
  uint64_t index_bytes = 0;
  uint64_t log_bytes = 0;
};

struct PhaseAResult {
  ImageBytes full;
  ImageBytes delta;
};

PhaseAResult RunPhaseA(uint64_t preload_keys, uint32_t rounds,
                       uint32_t writes_per_round) {
  auto store = NewStore(/*buckets=*/1 << 16);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < preload_keys; ++k) {
    DPR_CHECK(session->Upsert(k, k).ok());
  }
  // The preload fold-over is image-less and not measured, so the first
  // measured checkpoint starts a chain.
  Checkpoint(store.get(), /*image=*/false);

  PhaseAResult result;
  uint64_t next_key = 0;
  for (uint32_t r = 0; r < rounds; ++r) {
    // Dirty a 10% working set between checkpoints — the incremental log
    // flush is alike for every checkpoint; the index image is what differs.
    for (uint32_t i = 0; i < writes_per_round; ++i) {
      const uint64_t key = next_key++ % std::max<uint64_t>(preload_keys / 10, 1);
      DPR_CHECK(session->Upsert(key, r).ok());
    }
    const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
    Checkpoint(store.get(), /*image=*/true);
    const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
    ImageBytes& kind = CounterDelta(before, after, "ckpt.full") == 1
                           ? result.full
                           : result.delta;
    ++kind.checkpoints;
    kind.index_bytes +=
        CounterDelta(before, after, "ckpt.index_bytes_persisted");
    kind.log_bytes += CounterDelta(before, after, "ckpt.log_bytes_persisted");
  }
  return result;
}

struct PhaseBResult {
  uint64_t flushed = 0;
  uint64_t skips = 0;
  uint64_t decisions = 0;
};

constexpr uint64_t kBaseIntervalUs = 10000;  // 10ms RPO for bench speed

PhaseBResult RunPhaseB(bool hot, uint64_t window_ms) {
  auto store = NewStore(/*buckets=*/1 << 12);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 4096; ++k) {
    DPR_CHECK(session->Upsert(k, k).ok());
  }
  CkptCadenceController controller(kBaseIntervalUs);
  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  const Stopwatch timer;
  uint64_t writes = 0;
  while (timer.ElapsedMillis() < window_ms) {
    if (hot) {
      for (uint32_t i = 0; i < 2048; ++i) {
        ++writes;
        DPR_CHECK(session->Upsert(writes % 4096, writes).ok());
      }
    }
    // Same signal the harness workers sample (DFasterWorker::
    // CollectCkptSignals): the un-flushed log span.
    const LogAddress tail = store->tail_address();
    const LogAddress ro = store->read_only_address();
    const CkptDecision decision = controller.Decide(
        CkptSignals{.dirty_bytes = tail > ro ? tail - ro : 0}, NowMicros());
    if (decision.action == CkptAction::kCheckpoint) {
      Checkpoint(store.get(), /*image=*/true);
    }
    SleepMicros(std::min<uint64_t>(decision.next_delay_us, 100000));
  }
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  PhaseBResult result;
  result.flushed = CounterDelta(before, after, "faster.checkpoints_flushed");
  result.skips = CounterDelta(before, after, "ckpt.controller.skips");
  result.decisions = CounterDelta(before, after, "ckpt.controller.decisions");
  return result;
}

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "fig_ckpt");
  json.RecordConfig(config);

  // --- Phase A: persisted bytes per checkpoint, full vs delta ---
  const uint64_t preload_keys = config.quick ? 50000 : 200000;
  constexpr uint32_t kRounds = 32;
  const uint32_t writes_per_round = 2048;
  printf("\n=== Checkpoint bytes by image (%u checkpoints, %llu keys) ===\n",
         kRounds, static_cast<unsigned long long>(preload_keys));
  const PhaseAResult a = RunPhaseA(preload_keys, kRounds, writes_per_round);
  ResultTable table({"image", "ckpts", "index KiB/ckpt", "log KiB/ckpt"});
  for (const auto& [name, kind] :
       {std::pair{"full", a.full}, std::pair{"delta", a.delta}}) {
    const double n = std::max<uint64_t>(kind.checkpoints, 1);
    const double index_per = kind.index_bytes / n / 1024.0;
    const double log_per = kind.log_bytes / n / 1024.0;
    table.AddRow({name, std::to_string(kind.checkpoints),
                  ResultTable::Fmt(index_per), ResultTable::Fmt(log_per)});
    if (json.enabled()) {
      json.artifact().AddPoint(std::string("index_kib_per_ckpt.") + name,
                               kind.checkpoints, index_per);
      json.artifact().AddPoint(std::string("log_kib_per_ckpt.") + name,
                               kind.checkpoints, log_per);
    }
  }
  table.Print();
  printf("(a delta persists the index entries dirtied since its base; the "
         "full image starts each chain)\n");

  // --- Phase B: idle/hot shard flushes under the cadence controller ---
  const uint64_t window_ms = config.quick ? 1200 : 5000;
  const uint64_t window_rpos = window_ms * 1000 / kBaseIntervalUs;
  printf("\n=== Checkpoint flushes over %llums, 10ms RPO (%llu RPO "
         "intervals) ===\n",
         static_cast<unsigned long long>(window_ms),
         static_cast<unsigned long long>(window_rpos));
  ResultTable btable({"shard", "flushed", "skips", "decisions",
                      "window/RPO"});
  for (const bool hot : {false, true}) {
    const PhaseBResult r = RunPhaseB(hot, window_ms);
    btable.AddRow({hot ? "hot" : "idle", std::to_string(r.flushed),
                   std::to_string(r.skips), std::to_string(r.decisions),
                   std::to_string(window_rpos)});
    if (json.enabled()) {
      json.artifact().AddPoint(std::string("flushed.") + (hot ? "hot" : "idle"),
                               window_ms, r.flushed);
    }
  }
  btable.Print();
  printf("(the idle shard flushes once, then skips; the hot shard flushes "
         "on nearly every RPO interval)\n");
  json.Finish();
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_fig_ckpt (quick=%d)\n", flags.GetBool("quick", true) ? 1 : 0);
  dpr::Run(flags);
  return 0;
}
