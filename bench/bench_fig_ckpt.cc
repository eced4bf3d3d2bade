// Checkpoint-plane figure: what the delta chain and the adaptive cadence
// buy (DESIGN.md §4j).
//
// Phase A — bytes persisted per checkpoint at equal RPO. The same workload
// is checkpointed the same number of times under two policies: every
// checkpoint a full index image (full_every=1, the historical fold-over)
// vs the delta chain (full_every=16). Recovery points are identical; only
// the persisted index bytes differ. Expected: the delta chain persists a
// small fraction of the full-image bytes per checkpoint.
//
// Phase B — fsyncs on idle vs hot shards. A controller-driven checkpoint
// loop runs for a fixed wall-clock window over an idle store and a hot
// store, once with the adaptive policy and once with the fixed-interval
// policy. Expected: the fixed timer flushes a checkpoint every interval
// regardless; the adaptive controller keeps idle-shard flushes near zero
// (one initial report, then skips) while ticking the hot shard at least
// as often.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

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

Version Checkpoint(FasterStore* store, bool delta) {
  Version token = kInvalidVersion;
  Status s = store->PerformCheckpoint(
      store->CurrentVersion() + 1, nullptr, &token,
      CheckpointHints{.index_image = true, .delta = delta});
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

struct PhaseAResult {
  uint64_t checkpoints = 0;
  uint64_t index_bytes = 0;
  uint64_t log_bytes = 0;
};

PhaseAResult RunPhaseAConfig(uint32_t full_every, uint64_t preload_keys,
                             uint32_t rounds, uint32_t writes_per_round) {
  auto store = NewStore(/*buckets=*/1 << 16);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < preload_keys; ++k) {
    DPR_CHECK(session->Upsert(k, k).ok());
  }
  // The preload fold-over is common to both configs and not measured.
  Checkpoint(store.get(), /*delta=*/false);

  const MetricsSnapshot before = MetricsRegistry::Default().Snapshot();
  uint64_t next_key = 0;
  for (uint32_t r = 0; r < rounds; ++r) {
    // Dirty a 10% working set between checkpoints — the incremental log
    // flush is identical across configs; the index image is what differs.
    for (uint32_t i = 0; i < writes_per_round; ++i) {
      const uint64_t key = next_key++ % std::max<uint64_t>(preload_keys / 10, 1);
      DPR_CHECK(session->Upsert(key, r).ok());
    }
    Checkpoint(store.get(), /*delta=*/full_every > 1 && r % full_every != 0);
  }
  const MetricsSnapshot after = MetricsRegistry::Default().Snapshot();
  PhaseAResult result;
  result.checkpoints = rounds;
  result.index_bytes =
      CounterDelta(before, after, "ckpt.index_bytes_persisted");
  result.log_bytes = CounterDelta(before, after, "ckpt.log_bytes_persisted");
  return result;
}

struct PhaseBResult {
  uint64_t flushed = 0;
  uint64_t skips = 0;
  uint64_t decisions = 0;
};

PhaseBResult RunPhaseBArm(const CkptPolicy& policy, bool hot,
                          uint64_t window_ms) {
  constexpr uint64_t kBaseIntervalUs = 10000;  // 10ms RPO for bench speed
  auto store = NewStore(/*buckets=*/1 << 12);
  auto session = store->NewSession();
  for (uint64_t k = 0; k < 4096; ++k) {
    DPR_CHECK(session->Upsert(k, k).ok());
  }
  CkptCadenceController controller(policy, kBaseIntervalUs);
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
    // Same signal shape the harness workers sample (DFasterWorker::
    // CollectCkptSignals): un-flushed log span + the durability watermark.
    CkptSignals signals;
    const LogAddress tail = store->tail_address();
    const LogAddress ro = store->read_only_address();
    signals.dirty_bytes = tail > ro ? tail - ro : 0;
    signals.committed_watermark = store->LargestDurableToken();
    const CkptDecision decision = controller.Decide(signals, NowMicros());
    if (decision.action != CkptAction::kSkip) {
      Checkpoint(store.get(), decision.action == CkptAction::kDelta);
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
  const uint32_t rounds = config.quick ? 32 : 128;
  const uint32_t writes_per_round = 2048;
  printf("\n=== Checkpoint bytes at equal RPO (%u checkpoints, %llu keys) "
         "===\n",
         rounds, static_cast<unsigned long long>(preload_keys));
  ResultTable table({"config", "ckpts", "index KiB/ckpt", "log KiB/ckpt",
                     "total MiB"});
  struct { const char* name; uint32_t full_every; } configs[] = {
      {"full-every", 1}, {"delta-chain", 16}};
  double full_index_per_ckpt = 0;
  for (const auto& c : configs) {
    const PhaseAResult r =
        RunPhaseAConfig(c.full_every, preload_keys, rounds, writes_per_round);
    const double index_per = static_cast<double>(r.index_bytes) /
                             r.checkpoints / 1024.0;
    const double log_per =
        static_cast<double>(r.log_bytes) / r.checkpoints / 1024.0;
    if (c.full_every == 1) full_index_per_ckpt = index_per;
    table.AddRow({c.name, std::to_string(r.checkpoints),
                  ResultTable::Fmt(index_per), ResultTable::Fmt(log_per),
                  ResultTable::Fmt((r.index_bytes + r.log_bytes) / 1048576.0)});
    if (json.enabled()) {
      json.artifact().AddPoint("index_kib_per_ckpt", c.full_every, index_per);
      json.artifact().AddPoint("log_kib_per_ckpt", c.full_every, log_per);
    }
  }
  table.Print();
  if (full_index_per_ckpt > 0) {
    printf("(delta chain persists fewer index bytes per checkpoint at the "
           "same recovery points)\n");
  }

  // --- Phase B: idle/hot shard flushes, adaptive vs fixed cadence ---
  const uint64_t window_ms = config.quick ? 1200 : 5000;
  printf("\n=== Checkpoint flushes over %llums, 10ms RPO ===\n",
         static_cast<unsigned long long>(window_ms));
  ResultTable btable({"cadence", "shard", "flushed", "skips", "decisions"});
  struct { const char* name; CkptPolicy policy; } arms[] = {
      {"fixed", CkptPolicy::FixedInterval()}, {"adaptive", CkptPolicy{}}};
  for (const auto& arm : arms) {
    for (const bool hot : {false, true}) {
      const PhaseBResult r = RunPhaseBArm(arm.policy, hot, window_ms);
      btable.AddRow({arm.name, hot ? "hot" : "idle",
                     std::to_string(r.flushed), std::to_string(r.skips),
                     std::to_string(r.decisions)});
      if (json.enabled()) {
        const std::string series =
            std::string("flushed.") + arm.name + (hot ? ".hot" : ".idle");
        json.artifact().AddPoint(series, window_ms, r.flushed);
      }
    }
  }
  btable.Print();
  printf("(adaptive keeps idle-shard fsyncs near zero: one initial "
         "checkpoint, then skips)\n");
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
