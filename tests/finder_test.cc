#include "dpr/finder.h"

#include <gtest/gtest.h>

#include <memory>

namespace dpr {
namespace {

class FinderTest : public ::testing::TestWithParam<FinderKind> {
 protected:
  void SetUp() override {
    metadata_ =
        std::make_unique<MetadataStore>(std::make_unique<MemoryDevice>());
    ASSERT_TRUE(metadata_->Recover().ok());
    finder_ = MakeDprFinder({.kind = GetParam(), .metadata = metadata_.get()});
  }

  Status Report(WorkerId w, Version v, DependencySet deps = {}) {
    return finder_->ReportPersistedVersion(finder_->CurrentWorldLine(),
                                           WorkerVersion{w, v}, deps);
  }

  DprCut Cut() {
    EXPECT_TRUE(finder_->ComputeCut().ok());
    DprCut cut;
    finder_->GetCut(nullptr, &cut);
    return cut;
  }

  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> finder_;
};

TEST_P(FinderTest, EmptyClusterHasNoCut) {
  EXPECT_TRUE(Cut().empty());
}

TEST_P(FinderTest, SingleWorkerAdvances) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  ASSERT_TRUE(Report(0, 1).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 1u);
  ASSERT_TRUE(Report(0, 2).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 2u);
}

TEST_P(FinderTest, IndependentWorkersBoundedByApproximation) {
  // With no cross-worker dependencies, the exact algorithm lets each worker
  // commit at its own pace; the approximate algorithm holds everyone at
  // Vmin. Either way the cut must be valid and monotone.
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(0, 2).ok());
  ASSERT_TRUE(Report(0, 3).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut cut = Cut();
  if (GetParam() == FinderKind::kApprox) {
    EXPECT_EQ(CutVersion(cut, 0), 1u);
  } else {
    EXPECT_EQ(CutVersion(cut, 0), 3u);  // exact: no deps on worker 1
  }
  EXPECT_EQ(CutVersion(cut, 1), 1u);
}

TEST_P(FinderTest, DependencyBlocksUntilSupplierPersists) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  // Worker 0's version 1 depends on worker 1's version 1 (a session touched
  // worker 1 then worker 0), but worker 1 has not persisted v1 yet.
  ASSERT_TRUE(Report(0, 1, {{1, 1}}).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 1u);
  EXPECT_EQ(CutVersion(cut, 1), 1u);
}

TEST_P(FinderTest, TransitiveDependencyChain) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(2, 0).ok());
  // 0-1 depends on 1-1 which depends on 2-1.
  ASSERT_TRUE(Report(0, 1, {{1, 1}}).ok());
  ASSERT_TRUE(Report(1, 1, {{2, 1}}).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 0u);
  EXPECT_EQ(CutVersion(Cut(), 1), 0u);
  ASSERT_TRUE(Report(2, 1).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 1u);
  EXPECT_EQ(CutVersion(cut, 1), 1u);
  EXPECT_EQ(CutVersion(cut, 2), 1u);
}

TEST_P(FinderTest, CutNeverRegresses) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  DprCut first = Cut();
  ASSERT_TRUE(Report(0, 2).ok());
  DprCut second = Cut();
  for (const auto& [w, v] : first) {
    EXPECT_GE(CutVersion(second, w), v) << "worker " << w;
  }
}

TEST_P(FinderTest, EachAdvanceIsPublishedUnderANewEpoch) {
  EXPECT_EQ(finder_->LastPublished().epoch, 0u);  // nothing published yet
  EXPECT_EQ(finder_->published_epoch(), 0u);
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  const DprCut first = Cut();
  const PublishedCut published = finder_->LastPublished();
  EXPECT_EQ(published.cut, first);
  EXPECT_NE(published.epoch, 0u);
  EXPECT_EQ(finder_->published_epoch(), published.epoch);
  EXPECT_EQ(finder_->PublishedVersion(0), 1u);
  Cut();  // no advance, same epoch
  EXPECT_EQ(finder_->published_epoch(), published.epoch);
  ASSERT_TRUE(Report(0, 2).ok());
  EXPECT_EQ(CutVersion(Cut(), 0), 2u);
  EXPECT_GT(finder_->published_epoch(), published.epoch);
  EXPECT_EQ(finder_->PublishedVersion(0), 2u);
}

TEST_P(FinderTest, RemovedWorkerKeepsItsFinalEntryInThePublishedCut) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 2).ok());
  ASSERT_TRUE(Report(1, 2).ok());
  ASSERT_EQ(CutVersion(Cut(), 0), 2u);
  ASSERT_TRUE(finder_->RemoveWorker(0).ok());
  ASSERT_TRUE(Report(1, 3).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(cut.count(0), 0u);  // gone from the committed cut...
  EXPECT_EQ(CutVersion(cut, 1), 3u);
  // ...but sessions that depend on worker 0 can still resolve: its last
  // entry rides in the published cut and in the recovery cut.
  EXPECT_EQ(finder_->LastPublished().cut, (DprCut{{0, 2}, {1, 3}}));
  DprCut recovery;
  ASSERT_TRUE(finder_->BeginRecovery(nullptr, &recovery).ok());
  EXPECT_EQ(recovery, (DprCut{{0, 2}, {1, 3}}));
  ASSERT_TRUE(finder_->EndRecovery().ok());
}

TEST_P(FinderTest, MonotonicityInvariant) {
  // Property (§3.2): no version depends on a larger version number, so for
  // any reported set the cut computed must include every token whose full
  // dependency closure is persisted. We simulate the version clock: deps
  // always carry version numbers <= the reporting version.
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(2, 0).ok());
  for (Version v = 1; v <= 5; ++v) {
    for (WorkerId w = 0; w < 3; ++w) {
      DependencySet deps;
      if (v > 1) deps[(w + 1) % 3] = v - 1;
      ASSERT_TRUE(Report(w, v, deps).ok());
    }
  }
  const DprCut cut = Cut();
  for (WorkerId w = 0; w < 3; ++w) {
    EXPECT_EQ(CutVersion(cut, w), 5u);
  }
}

TEST_P(FinderTest, StaleWorldLineReportRejected) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  WorldLine wl;
  DprCut cut;
  ASSERT_TRUE(finder_->BeginRecovery(&wl, &cut).ok());
  ASSERT_TRUE(finder_->EndRecovery().ok());
  Status s = finder_->ReportPersistedVersion(wl - 1, WorkerVersion{0, 1}, {});
  EXPECT_TRUE(s.IsAborted());
}

TEST_P(FinderTest, RecoveryFreezesAndDiscardsAboveCut) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 1).ok());
  ASSERT_TRUE(Report(1, 1).ok());
  const DprCut committed = Cut();
  // These reports arrive but are not yet in the cut when failure strikes.
  ASSERT_TRUE(Report(0, 2).ok());
  WorldLine new_wl;
  DprCut recovery;
  ASSERT_TRUE(finder_->BeginRecovery(&new_wl, &recovery).ok());
  EXPECT_EQ(recovery, committed);
  EXPECT_EQ(new_wl, kInitialWorldLine + 1);
  // Reports from the old world-line are rejected.
  ASSERT_TRUE(finder_
                  ->ReportPersistedVersion(new_wl - 1, WorkerVersion{0, 3},
                                           {})
                  .IsAborted());
  ASSERT_TRUE(finder_->EndRecovery().ok());
  // Post-recovery reports on the new world-line advance again.
  ASSERT_TRUE(finder_->ReportPersistedVersion(new_wl, WorkerVersion{0, 3},
                                              {}).ok());
  ASSERT_TRUE(finder_->ReportPersistedVersion(new_wl, WorkerVersion{1, 3},
                                              {}).ok());
  const DprCut cut = Cut();
  EXPECT_EQ(CutVersion(cut, 0), 3u);
  EXPECT_EQ(CutVersion(cut, 1), 3u);
}

TEST_P(FinderTest, MaxPersistedVersionTracksVmax) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder_->AddWorker(1, 0).ok());
  ASSERT_TRUE(Report(0, 4).ok());
  EXPECT_EQ(finder_->MaxPersistedVersion(), 4u);
  ASSERT_TRUE(Report(1, 9).ok());
  EXPECT_EQ(finder_->MaxPersistedVersion(), 9u);
}

TEST_P(FinderTest, SurvivesMetadataCrash) {
  ASSERT_TRUE(finder_->AddWorker(0, 0).ok());
  ASSERT_TRUE(Report(0, 2).ok());
  DprCut before = Cut();
  metadata_->SimulateCrash();
  // A freshly-constructed finder over the recovered metadata must see the
  // same committed cut (fault tolerance through the durable store).
  std::unique_ptr<DprFinder> reborn =
      MakeDprFinder({.kind = GetParam(), .metadata = metadata_.get()});
  DprCut after;
  reborn->GetCut(nullptr, &after);
  EXPECT_EQ(after, before);
  // The recovered cut is published at once, under an epoch above every one
  // the lost finder handed out: epochs count durable cut writes, not time.
  EXPECT_EQ(reborn->LastPublished().cut, before);
  EXPECT_GT(reborn->LastPublished().epoch, finder_->LastPublished().epoch);
  // A second rebuild continues the sequence, however little time passed.
  std::unique_ptr<DprFinder> again =
      MakeDprFinder({.kind = GetParam(), .metadata = metadata_.get()});
  EXPECT_EQ(again->LastPublished().epoch, reborn->LastPublished().epoch + 1);
}

INSTANTIATE_TEST_SUITE_P(AllFinders, FinderTest,
                         ::testing::Values(FinderKind::kApprox,
                                           FinderKind::kExact,
                                           FinderKind::kHybrid),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case FinderKind::kApprox:
                               return "Approx";
                             case FinderKind::kExact:
                               return "Exact";
                             case FinderKind::kHybrid:
                               return "Hybrid";
                           }
                           return "Unknown";
                         });

// --- algorithm-specific behaviour ---

TEST(GraphFinderTest, CoordinatorCrashReloadsDurableGraph) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kExact, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  ASSERT_TRUE(finder->ReportPersistedVersion(1, WorkerVersion{0, 1},
                                             {{1, 1}}).ok());
  finder->SimulateCoordinatorCrash();  // reloads from durable graph rows
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{1, 1}, {}).ok());
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 1u);  // dependency info survived the crash
}

TEST(HybridFinderTest, ApproximateFallbackUnsticksLostSubgraph) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kHybrid, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{0, 2}, {}).ok());
  finder->SimulateCoordinatorCrash();  // in-memory graph lost, rows survive
  // Exact computation is now blind to worker 0's v1..v2 dependency info and
  // cannot advance it; once worker 1 catches up, Vmin unsticks the cut.
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 0u);
  ASSERT_TRUE(
      finder->ReportPersistedVersion(1, WorkerVersion{1, 2}, {}).ok());
  ASSERT_TRUE(finder->ComputeCut().ok());
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 2u);  // Vmin-based fallback advanced it
  EXPECT_EQ(CutVersion(cut, 1), 2u);
}

TEST(SimpleFinderTest, UncoordinatedCommitsNeverFormCutWithoutClock) {
  // Fig. 3: staggered checkpoints with ever-growing dependencies never form
  // a cut. The approximate finder models this as Vmin staying at the slower
  // worker's version — the cut tracks the laggard, never the leader.
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(metadata.Recover().ok());
  auto finder =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  ASSERT_TRUE(finder->AddWorker(0, 0).ok());
  ASSERT_TRUE(finder->AddWorker(1, 0).ok());
  for (Version v = 1; v <= 10; ++v) {
    ASSERT_TRUE(finder->ReportPersistedVersion(1, WorkerVersion{0, v},
                                               {}).ok());
  }
  ASSERT_TRUE(finder->ComputeCut().ok());
  DprCut cut;
  finder->GetCut(nullptr, &cut);
  EXPECT_EQ(CutVersion(cut, 0), 0u);  // pinned by worker 1's silence
  EXPECT_EQ(CutVersion(cut, 1), 0u);
}

}  // namespace
}  // namespace dpr
