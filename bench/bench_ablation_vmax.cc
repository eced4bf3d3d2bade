// Ablation (paper §3.4): Vmax fast-forwarding. A worker that checkpoints
// 10x less often pins the approximate DPR cut; with fast-forwarding it
// catches up to Vmax within a bounded number of its own checkpoints, so
// commit latency for fast workers stays bounded.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "dpr/finder.h"
#include "dpr/worker.h"
#include "faster/faster_store.h"
#include "harness/stats.h"

namespace dpr {
namespace {

void Run(const Flags& flags) {
  const BenchConfig config = BenchConfig::FromFlags(flags);
  BenchJsonOutput json(flags, "ablation_vmax");
  json.RecordConfig(config);
  const uint64_t fast_interval_us = 10000;
  const uint64_t slow_interval_us = 100000;  // 10x laggard
  const uint64_t run_ms = config.quick ? 1500 : 6000;

  printf("\n=== Ablation: Vmax fast-forward with a lagging worker ===\n");
  ResultTable table({"vmax-ff", "fast-worker cut", "slow-worker cut",
                     "fast-worker persisted", "cut lag of fast worker"});
  for (bool vmax : {false, true}) {
    MetadataStore metadata(std::make_unique<MemoryDevice>());
    DPR_CHECK(metadata.Recover().ok());
    auto finder = MakeDprFinder({.kind = FinderKind::kApprox,
                                 .metadata = &metadata,
                                 .vmax_fastforward = vmax});
    finder->StartCoordinator(5000);

    std::vector<std::unique_ptr<FasterStore>> stores;
    std::vector<std::unique_ptr<DprWorker>> workers;
    for (int i = 0; i < 2; ++i) {
      FasterOptions fo;
      fo.index_buckets = 1 << 10;
      stores.push_back(std::make_unique<FasterStore>(std::move(fo)));
      DprWorkerOptions wo;
      wo.worker_id = i;
      wo.finder = finder.get();
      wo.checkpoint_interval_us =
          i == 0 ? fast_interval_us : slow_interval_us;
      workers.push_back(std::make_unique<DprWorker>(stores.back().get(), wo));
      DPR_CHECK(workers.back()->Start().ok());
    }
    // Keep both stores lightly busy so checkpoints carry data.
    const Stopwatch timer;
    auto s0 = stores[0]->NewSession();
    auto s1 = stores[1]->NewSession();
    uint64_t i = 0;
    while (timer.ElapsedMillis() < run_ms) {
      (void)s0->Upsert(i % 128, i);
      (void)s1->Upsert(i % 128, i);
      ++i;
      if (i % 1024 == 0) SleepMicros(1000);
    }
    for (auto& w : workers) w->Stop();
    for (auto& st : stores) st->WaitForCheckpoints();
    DPR_CHECK(finder->ComputeCut().ok());
    finder->StopCoordinator();

    DprCut cut;
    finder->GetCut(nullptr, &cut);
    const Version fast_persisted = stores[0]->LargestDurableToken();
    const Version fast_cut = CutVersion(cut, 0);
    if (json.enabled()) {
      json.artifact().AddPoint("fast_worker_cut_lag", vmax ? 1 : 0,
                               static_cast<double>(fast_persisted - fast_cut),
                               vmax ? "vmax-on" : "vmax-off");
    }
    table.AddRow({vmax ? "on" : "off", std::to_string(fast_cut),
                  std::to_string(CutVersion(cut, 1)),
                  std::to_string(fast_persisted),
                  std::to_string(fast_persisted - fast_cut)});
  }
  table.Print();
  json.Finish();
  printf("(without fast-forward the fast worker checkpoints ~10x more "
         "versions than commit; with it, version numbers re-align and the "
         "cut tracks the frontier)\n");
}

}  // namespace
}  // namespace dpr

int main(int argc, char** argv) {
  dpr::Flags flags(argc, argv);
  printf("bench_ablation_vmax (quick=%d)\n", flags.GetBool("quick", true));
  dpr::Run(flags);
  return 0;
}
