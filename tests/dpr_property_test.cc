// Protocol-level property tests: random multi-session traces over multiple
// DprWorkers (FASTER-backed) with random checkpoint timing and failures.
// Invariants checked:
//   (P1) commit points are monotone per session;
//   (P2) every DPR cut is closed under dependency (validated against an
//        independently-maintained precedence graph);
//   (P3) after any failure, each session's surviving prefix covers at least
//        everything previously reported committed (guarantees never renege);
//   (P4) progress: with repeated commits, every operation is eventually
//        accounted for — committed in the prefix or rolled back by a
//        failure (the paper's Progress property, §4.3).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "dpr/cluster_manager.h"
#include "dpr/finder.h"
#include "dpr/session.h"
#include "dpr/worker.h"
#include "faster/faster_store.h"

namespace dpr {
namespace {

struct Rig {
  std::unique_ptr<MetadataStore> metadata;
  std::unique_ptr<DprFinder> finder;
  std::unique_ptr<ClusterManager> manager;
  // Workers are declared before stores so they are destroyed after them:
  // a store's flush thread reports persistence into its worker until the
  // store's destructor joins it.
  std::vector<std::unique_ptr<DprWorker>> workers;
  std::vector<std::unique_ptr<FasterStore>> stores;

  explicit Rig(int n, bool graph_finder) {
    metadata = std::make_unique<MetadataStore>(
        std::make_unique<MemoryDevice>());
    EXPECT_TRUE(metadata->Recover().ok());
    finder = MakeDprFinder(
        {.kind = graph_finder ? FinderKind::kExact : FinderKind::kApprox,
         .metadata = metadata.get()});
    manager = std::make_unique<ClusterManager>(finder.get());
    for (int i = 0; i < n; ++i) {
      FasterOptions fo;
      fo.index_buckets = 256;
      fo.log_device = std::make_unique<MemoryDevice>();
      fo.meta_device = std::make_unique<MemoryDevice>();
      stores.push_back(std::make_unique<FasterStore>(std::move(fo)));
      DprWorkerOptions wo;
      wo.worker_id = i;
      wo.finder = finder.get();
      wo.checkpoint_interval_us = 0;  // driven manually for determinism
      workers.push_back(
          std::make_unique<DprWorker>(stores.back().get(), wo));
      EXPECT_TRUE(workers.back()->Start().ok());
      manager->RegisterWorker(workers.back().get());
    }
  }
};

// One client op through worker `w` on session `s`, bookkeeping the session.
void DoOp(Rig& rig, DprSession& session, WorkerId w, uint64_t key) {
  DprRequestHeader header = session.MakeHeader();
  Version version = kInvalidVersion;
  Status admit = rig.workers[w]->BeginBatch(header, &version);
  if (admit.ok()) {
    auto store_session = rig.stores[w]->NewSession();
    EXPECT_TRUE(store_session->Upsert(key, key).ok());
    rig.workers[w]->EndBatch();
    DprResponseHeader resp;
    rig.workers[w]->FillResponse(header, version,
                                 DprResponseHeader::BatchStatus::kOk, &resp);
    session.ResolvePending(session.IssuePending(w, 1), resp);
  } else {
    DprResponseHeader resp;
    rig.workers[w]->FillResponse(
        header, kInvalidVersion,
        admit.IsAborted() ? DprResponseHeader::BatchStatus::kWorldLineShift
                          : DprResponseHeader::BatchStatus::kRetryLater,
        &resp);
    DprResponseHeader vacuous;  // failed op commits vacuously
    session.ResolvePending(session.IssuePending(w, 1), vacuous);
    session.Observe(resp);
  }
}

void Ping(Rig& rig, DprSession& session, WorkerId w) {
  DprRequestHeader header = session.MakeHeader();
  Version version = kInvalidVersion;
  if (rig.workers[w]->BeginBatch(header, &version).ok()) {
    rig.workers[w]->EndBatch();
    DprResponseHeader resp;
    rig.workers[w]->FillResponse(header, version,
                                 DprResponseHeader::BatchStatus::kOk, &resp);
    session.Observe(resp);
  }
}

// Independent dependency tracker: for each (worker, version), the set of
// (worker, version) pairs it must not commit without.
using Graph = std::map<WorkerVersion, DependencySet>;

class DprProtocolFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DprProtocolFuzz, InvariantsHoldUnderRandomTraces) {
  const auto [seed, graph_finder] = GetParam();
  Random rng(seed);
  constexpr int kWorkers = 3;
  constexpr int kSessions = 4;
  Rig rig(kWorkers, graph_finder);

  std::vector<std::unique_ptr<DprSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<DprSession>(i));
  }
  std::vector<uint64_t> last_commit_point(kSessions, 0);
  std::vector<uint64_t> rolled_back(kSessions, 0);
  // Shadow graph: session's last touched (worker,version) feeds edges.
  Graph shadow;
  std::vector<WorkerVersion> session_last(kSessions,
                                          WorkerVersion{kInvalidWorker, 0});

  for (int step = 0; step < 1200; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.70) {
      const int si = static_cast<int>(rng.Uniform(kSessions));
      const WorkerId w = static_cast<WorkerId>(rng.Uniform(kWorkers));
      DprSession& session = *sessions[si];
      if (session.needs_failure_handling()) continue;
      const Version before = rig.stores[w]->CurrentVersion();
      DoOp(rig, session, w, rng.Uniform(64));
      const Version v = rig.stores[w]->CurrentVersion();
      ASSERT_GE(v, before);
      // Record the shadow dependency edge.
      const WorkerVersion now{w, v};
      if (session_last[si].worker != kInvalidWorker &&
          !(session_last[si] == now)) {
        MergeDependency(&shadow[now],
                        session_last[si]);
      }
      session_last[si] = now;
    } else if (roll < 0.85) {
      const WorkerId w = static_cast<WorkerId>(rng.Uniform(kWorkers));
      Status s = rig.workers[w]->TryCommit();
      ASSERT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
      rig.stores[w]->WaitForCheckpoints();
    } else if (roll < 0.97) {
      ASSERT_TRUE(rig.finder->ComputeCut().ok());
      // (P2) the cut is dependency-closed w.r.t. the shadow graph.
      DprCut cut;
      rig.finder->GetCut(nullptr, &cut);
      for (const auto& [wv, deps] : shadow) {
        if (wv.version <= CutVersion(cut, wv.worker)) {
          for (const auto& [dw, dv] : deps) {
            ASSERT_LE(dv, CutVersion(cut, dw))
                << "cut includes " << wv.worker << "-" << wv.version
                << " but not its dependency " << dw << "-" << dv;
          }
        }
      }
      // (P1) commit points are monotone.
      for (int si = 0; si < kSessions; ++si) {
        for (WorkerId w = 0; w < kWorkers; ++w) Ping(rig, *sessions[si], w);
        const uint64_t point = sessions[si]->GetCommitPoint().prefix_end;
        ASSERT_GE(point, last_commit_point[si]) << "session " << si;
        last_commit_point[si] = point;
      }
    } else {
      // Failure of a random worker.
      const WorkerId victim = static_cast<WorkerId>(rng.Uniform(kWorkers));
      ASSERT_TRUE(rig.manager->HandleFailure({victim}).ok());
      WorldLine wl;
      DprCut cut;
      rig.manager->GetRecoveryInfo(&wl, &cut);
      for (int si = 0; si < kSessions; ++si) {
        const uint64_t issued = sessions[si]->next_seqno();
        const auto survivors = sessions[si]->HandleFailure(wl, cut);
        // (P3) never renege on a reported guarantee.
        ASSERT_GE(survivors.prefix_end, last_commit_point[si])
            << "session " << si << " lost committed ops";
        rolled_back[si] +=
            issued - survivors.prefix_end + survivors.excluded.size();
        last_commit_point[si] = survivors.prefix_end;
        session_last[si] = WorkerVersion{kInvalidWorker, 0};
      }
      // Rolled-back shadow edges can never commit; drop them.
      for (auto it = shadow.begin(); it != shadow.end();) {
        if (it->first.version > CutVersion(cut, it->first.worker)) {
          it = shadow.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // (P4) progress: commit everything outstanding, then every session's
  // entire order must be covered.
  for (int round = 0; round < 200; ++round) {
    for (WorkerId w = 0; w < kWorkers; ++w) {
      (void)rig.workers[w]->TryCommit();
      rig.stores[w]->WaitForCheckpoints();
    }
    ASSERT_TRUE(rig.finder->ComputeCut().ok());
    bool all_done = true;
    for (int si = 0; si < kSessions; ++si) {
      for (WorkerId w = 0; w < kWorkers; ++w) Ping(rig, *sessions[si], w);
      const auto point = sessions[si]->GetCommitPoint();
      // Every op is accounted for: committed in the prefix or rolled back
      // (rolled-back ops can be double-counted when the prefix later jumps
      // their seqno gap, hence >=).
      if (point.prefix_end + rolled_back[si] < sessions[si]->next_seqno() ||
          !point.excluded.empty()) {
        all_done = false;
      }
    }
    if (all_done) return;
  }
  FAIL() << "operations never committed (progress violation)";
}

INSTANTIATE_TEST_SUITE_P(
    Traces, DprProtocolFuzz,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return std::string("seed") +
             std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_graph" : "_simple");
    });

}  // namespace
}  // namespace dpr
