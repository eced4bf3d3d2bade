#include "dpr/dep_tracker.h"

#include <utility>

#include "obs/metrics.h"

namespace dpr {

namespace {

uint32_t RoundUpPow2(uint32_t n) {
  if (n < 2) return 1;
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Process-wide tracking-plane series (summed across trackers), so bench
// artifacts and chaos dumps see the tracker without plumbing instance
// pointers. Relaxed atomics only — Record() runs under the shared version
// latch on the batch admission path.
struct TrackerMetrics {
  Counter* records;
  Counter* empty_records;
  Counter* drains;
  Gauge* live_entries;
  Gauge* live_entries_peak;
};

const TrackerMetrics& Metrics() {
  static const TrackerMetrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Default();
    return TrackerMetrics{r.counter("dpr.dep_tracker.records"),
                          r.counter("dpr.dep_tracker.empty_records"),
                          r.counter("dpr.dep_tracker.drains"),
                          r.gauge("dpr.dep_tracker.live_entries"),
                          r.gauge("dpr.dep_tracker.live_entries_peak")};
  }();
  return m;
}

}  // namespace

VersionDependencyTracker::VersionDependencyTracker(uint32_t shards) {
  const uint32_t count = RoundUpPow2(shards == 0 ? kDefaultShards : shards);
  shard_mask_ = count - 1;
  shards_ = std::make_unique<Shard[]>(count);
}

// A tracker torn down with staged versions (a worker stopped mid-interval)
// must not leave them in the process-wide gauge.
VersionDependencyTracker::~VersionDependencyTracker() { Clear(); }

void VersionDependencyTracker::Record(uint64_t session_id, Version version,
                                      const DependencySet& deps,
                                      WorkerId self) {
  // Fast path: a batch with no cross-worker dependencies records nothing
  // (self-deps are implied by the version chain) and takes no lock.
  bool any = false;
  for (const auto& [dw, dv] : deps) {
    (void)dv;
    if (dw != self) {
      any = true;
      break;
    }
  }
  if (!any) {
    Metrics().empty_records->Add();
    return;
  }
  Shard& shard = shards_[ShardOf(session_id)];
  {
    SpinLatchGuard guard(shard.latch);
    auto [it, inserted] = shard.deps.try_emplace(version);
    if (inserted) {
      Gauge* live = Metrics().live_entries;
      live->Add(1);
      Metrics().live_entries_peak->UpdateMax(live->value());
    }
    for (const auto& [dw, dv] : deps) {
      if (dw == self) continue;
      MergeDependency(&it->second, WorkerVersion{dw, dv});
    }
  }
  Metrics().records->Add();
}

DependencySet VersionDependencyTracker::DrainUpTo(Version token) {
  DependencySet merged;
  for (uint32_t i = 0; i < shards(); ++i) {
    Shard& shard = shards_[i];
    SpinLatchGuard guard(shard.latch);
    auto it = shard.deps.begin();
    int64_t removed = 0;
    while (it != shard.deps.end() && it->first <= token) {
      MergeDependencies(&merged, it->second);
      it = shard.deps.erase(it);
      ++removed;
    }
    if (removed != 0) Metrics().live_entries->Sub(removed);
  }
  Metrics().drains->Add();
  return merged;
}

void VersionDependencyTracker::Clear() {
  for (uint32_t i = 0; i < shards(); ++i) {
    Shard& shard = shards_[i];
    SpinLatchGuard guard(shard.latch);
    const int64_t removed = static_cast<int64_t>(shard.deps.size());
    shard.deps.clear();
    if (removed != 0) Metrics().live_entries->Sub(removed);
  }
}

}  // namespace dpr
