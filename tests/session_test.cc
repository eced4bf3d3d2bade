#include "dpr/session.h"

#include <gtest/gtest.h>

namespace dpr {
namespace {

// A kOk response for a batch that ran in `executed`, carrying `cut` (empty:
// the session already held the worker's cut epoch).
DprResponseHeader Ok(Version executed, DprCut cut = {},
                     WorldLine wl = kInitialWorldLine, uint64_t epoch = 1) {
  DprResponseHeader resp;
  resp.status = DprResponseHeader::BatchStatus::kOk;
  resp.world_line = wl;
  resp.executed_version = executed;
  resp.cut_epoch = epoch;
  resp.cut = std::move(cut);
  return resp;
}

// Issues `n` ops at `worker` and resolves them at once with `resp`.
void Record(DprSession& session, WorkerId worker, uint64_t n,
            const DprResponseHeader& resp) {
  session.ResolvePending(session.IssuePending(worker, n), resp);
}

TEST(DprSessionTest, HeaderCarriesVersionClockAndDeps) {
  DprSession session(7);
  EXPECT_EQ(session.MakeHeader().session_id, 7u);
  EXPECT_EQ(session.MakeHeader().version, kInvalidVersion);
  Record(session, 0, 4, Ok(/*executed=*/3));
  Record(session, 1, 2, Ok(/*executed=*/5));
  const DprRequestHeader header = session.MakeHeader();
  EXPECT_EQ(header.version, 5u);  // Vs = max version seen (Lamport clock)
  ASSERT_EQ(header.deps.size(), 2u);
  EXPECT_EQ(header.deps.at(0), 3u);
  EXPECT_EQ(header.deps.at(1), 5u);
}

TEST(DprSessionTest, CommittedDepsArePruned) {
  DprSession session(1);
  Record(session, 0, 1, Ok(3));
  Record(session, 0, 1, Ok(3, {{0, 3}}));  // the cut catches up to v3
  EXPECT_TRUE(session.MakeHeader().deps.empty());
}

TEST(DprSessionTest, CommitPointAdvancesWithTheCut) {
  DprSession session(1);
  Record(session, 0, 10, Ok(2));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 0u);
  session.Observe(Ok(2, {{0, 2}}));
  const auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 10u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(DprSessionTest, CrossWorkerPrefixBlocksOnEarliestUncommitted) {
  DprSession session(1);
  Record(session, 0, 5, Ok(2));  // ops 0-4 at worker 0 (v2)
  Record(session, 1, 5, Ok(2));  // ops 5-9 at worker 1 (v2)
  session.Observe(Ok(2, {{0, 1}, {1, 2}}));  // worker 1 committed, 0 not
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 0u);
  session.Observe(Ok(2, {{0, 2}, {1, 2}}, kInitialWorldLine, /*epoch=*/2));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 10u);
}

TEST(DprSessionTest, CutsFromDifferentWorkersMergeByMax) {
  DprSession session(1);
  Record(session, 0, 5, Ok(2));  // ops 0-4 at worker 0 (v2)
  Record(session, 1, 5, Ok(3));  // ops 5-9 at worker 1 (v3)
  // Any worker's response resolves a dependency on any other: worker 1's
  // copy of epoch 5 covers worker 0's v2.
  session.Observe(Ok(0, {{0, 2}, {1, 1}}, kInitialWorldLine, /*epoch=*/5));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 5u);
  EXPECT_EQ(session.MakeHeader().cut_epoch, 5u);
  EXPECT_EQ(session.MakeHeader().deps, (DependencySet{{1, 3}}));
  // A later cut that no longer lists worker 0 (it left the cluster) keeps
  // the entry the session already holds.
  session.Observe(Ok(0, {{1, 3}}, kInitialWorldLine, /*epoch=*/6));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 10u);
  // A lagging worker's older cut regresses neither entries nor the epoch.
  session.Observe(Ok(0, {{0, 1}, {1, 1}}, kInitialWorldLine, /*epoch=*/4));
  EXPECT_EQ(session.MakeHeader().cut_epoch, 6u);
  Record(session, 0, 1, Ok(2));  // op 10: worker 0's v2, still covered
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 11u);
  // A response that matched the session's epoch carries no entries and
  // changes nothing.
  session.Observe(Ok(0, {}, kInitialWorldLine, /*epoch=*/6));
  EXPECT_EQ(session.MakeHeader().cut_epoch, 6u);
}

TEST(DprSessionTest, RelaxedPendingSkippedAndListed) {
  DprSession session(1);
  Record(session, 0, 2, Ok(1, {{0, 1}}));  // ops 0-1 committed
  const uint64_t p = session.IssuePending(1, 3);  // ops 2-4 in flight
  Record(session, 0, 2, Ok(1));  // ops 5-6 committed
  const auto point = session.GetCommitPoint();
  // Relaxed DPR: the prefix may pass over unresolved PENDING ops, naming
  // them in the exception list (paper §5.4, Fig. 7).
  EXPECT_EQ(point.prefix_end, 7u);
  EXPECT_EQ(point.excluded, (std::vector<uint64_t>{2, 3, 4}));
  // Once resolved and committed, they leave the exception list.
  session.ResolvePending(p, Ok(1, {{0, 1}, {1, 1}}, kInitialWorldLine, 2));
  const auto after = session.GetCommitPoint();
  EXPECT_EQ(after.prefix_end, 7u);
  EXPECT_TRUE(after.excluded.empty());
}

TEST(DprSessionTest, ResolvedUncommittedPendingStaysExcludedAndGates) {
  DprSession session(1);
  const uint64_t p = session.IssuePending(1, 1);  // op 0
  Record(session, 0, 2, Ok(1, {{0, 1}, {1, 1}}));  // ops 1-2 committed
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 3u);
  // The pending op resolves into a version that is NOT yet committed: it
  // must stay on the exception list and the prefix must not regress.
  session.ResolvePending(p, Ok(5));
  auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 3u);
  EXPECT_EQ(point.excluded, (std::vector<uint64_t>{0}));
  // New committed work cannot advance the prefix past the gate...
  Record(session, 0, 1, Ok(1));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 3u);
  // ...until the pending op's version commits.
  session.Observe(Ok(5, {{0, 1}, {1, 5}}, kInitialWorldLine, 2));
  point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 4u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(DprSessionTest, FailedOpsCommitVacuously) {
  DprSession session(1);
  const uint64_t p = session.IssuePending(0, 2);
  DprResponseHeader vacuous;  // executed_version = 0
  session.ResolvePending(p, vacuous);
  const auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 2u);
  EXPECT_TRUE(point.excluded.empty());
  EXPECT_TRUE(session.MakeHeader().deps.empty());
}

TEST(DprSessionTest, WorldLineShiftDetected) {
  DprSession session(1);
  EXPECT_FALSE(session.needs_failure_handling());
  DprResponseHeader resp;
  resp.status = DprResponseHeader::BatchStatus::kWorldLineShift;
  resp.world_line = 2;
  session.Observe(resp);
  EXPECT_TRUE(session.needs_failure_handling());
  EXPECT_EQ(session.observed_world_line(), 2u);
}

TEST(DprSessionTest, HandleFailureComputesSurvivingPrefix) {
  DprSession session(1);
  Record(session, 0, 3, Ok(1));  // ops 0-2 in v1 at worker 0
  Record(session, 1, 3, Ok(1));  // ops 3-5 in v1 at worker 1
  Record(session, 0, 3, Ok(2));  // ops 6-8 in v2 at worker 0
  // Failure: the recovery cut covers v1 everywhere but not worker 0's v2.
  const DprCut cut{{0, 1}, {1, 1}};
  const auto survivors = session.HandleFailure(2, cut);
  EXPECT_EQ(survivors.prefix_end, 6u);
  EXPECT_TRUE(survivors.excluded.empty());
  EXPECT_EQ(session.world_line(), 2u);
  EXPECT_FALSE(session.needs_failure_handling());
  // The session continues on the new world-line with a clean slate.
  EXPECT_TRUE(session.MakeHeader().deps.empty());
  EXPECT_EQ(session.MakeHeader().world_line, 2u);
}

TEST(DprSessionTest, HandleFailureListsLostPending) {
  DprSession session(1);
  Record(session, 0, 2, Ok(1, {{0, 1}}));  // ops 0-1 committed
  session.IssuePending(1, 2);  // ops 2-3 lost in flight
  Record(session, 0, 2, Ok(1));  // ops 4-5 committed
  const DprCut cut{{0, 1}, {1, 1}};
  const auto survivors = session.HandleFailure(2, cut);
  EXPECT_EQ(survivors.prefix_end, 6u);
  EXPECT_EQ(survivors.excluded, (std::vector<uint64_t>{2, 3}));
}

TEST(DprSessionTest, HandleFailureReportsSurvivorsPastAnUncommittedSegment) {
  DprSession session(1);
  Record(session, 0, 2, Ok(1));                   // ops 0-1 in v1 at worker 0
  const uint64_t p = session.IssuePending(1, 2);  // ops 2-3 at worker 1
  Record(session, 0, 2, Ok(2));                   // ops 4-5 in v2 at worker 0
  session.ResolvePending(p, Ok(3));               // ops 2-3 ran in v3
  // The cut covers worker 0's v2 but not worker 1's v3: ops 4-5 survived
  // behind the lost ops 2-3, which are the exceptions.
  const auto survivors = session.HandleFailure(2, DprCut{{0, 2}, {1, 2}});
  EXPECT_EQ(survivors.prefix_end, 6u);
  EXPECT_EQ(survivors.excluded, (std::vector<uint64_t>{2, 3}));
}

TEST(DprSessionTest, CommitPointIsMonotone) {
  DprSession session(1);
  uint64_t last = 0;
  for (int round = 0; round < 50; ++round) {
    const WorkerId w = round % 3;
    Record(session, w, 2,
           Ok(1 + round / 3, round > 25 ? DprCut{{w, 100}} : DprCut{}));
    const uint64_t point = session.GetCommitPoint().prefix_end;
    EXPECT_GE(point, last);
    last = point;
  }
}

TEST(DprSessionTest, VersionClockRetainedAcrossFailure) {
  DprSession session(1);
  Record(session, 0, 1, Ok(9));
  session.HandleFailure(2, DprCut{{0, 0}});
  // Vs survives: post-recovery versions continue above pre-failure ones.
  EXPECT_EQ(session.MakeHeader().version, 9u);
}

TEST(DprSessionTest, HandleFailureClampsTheObservedCut) {
  // A session trusting a straggler can hold a cut entry above the recovery
  // cut; the clamp keeps it from committing post-recovery work on it.
  DprSession session(
      1, {.world_line_policy = SessionOptions::WorldLinePolicy::kTrusting});
  Record(session, 0, 2, Ok(1, {{0, 5}, {1, 5}}));  // ops 0-1 committed
  const auto survivors = session.HandleFailure(2, DprCut{{0, 3}, {1, 5}});
  EXPECT_EQ(survivors.prefix_end, 2u);
  Record(session, 0, 1, Ok(4, {}, /*wl=*/2));  // op 2: worker 0's v4
  Record(session, 1, 1, Ok(4, {}, /*wl=*/2));  // op 3: worker 1's v4
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 2u);
  session.Observe(Ok(4, {{0, 4}, {1, 4}}, /*wl=*/2, /*epoch=*/2));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 4u);
}

}  // namespace
}  // namespace dpr

namespace dpr {
namespace {

// A kOk response for version `v` whose cut already covers `v` on both
// workers these tests use.
DprResponseHeader Committed(Version v) {
  DprResponseHeader resp;
  resp.status = DprResponseHeader::BatchStatus::kOk;
  resp.executed_version = v;
  resp.cut_epoch = v;
  resp.cut = {{0, v}, {1, v}};
  return resp;
}

TEST(StrictDprSessionTest, PendingGatesThePrefix) {
  DprSession session(1, {.exception_list_cap = 0});
  Record(session, 0, 2, Committed(1));  // ops 0-1 committed
  const uint64_t p = session.IssuePending(1, 1);  // op 2 in flight
  Record(session, 0, 2, Committed(1));  // ops 3-4 committed
  // Strict mode: no skipping, no exception list.
  auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 2u);
  EXPECT_TRUE(point.excluded.empty());
  session.ResolvePending(p, Committed(1));
  point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 5u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(StrictDprSessionTest, RelaxedAndStrictAgreeWithoutPendings) {
  DprSession strict(1, {.exception_list_cap = 0});
  DprSession relaxed(2);
  for (int i = 0; i < 10; ++i) {
    Record(strict, i % 2, 3, Committed(1 + i / 4));
    Record(relaxed, i % 2, 3, Committed(1 + i / 4));
  }
  // Equivalence (§5.4): with every op resolved, relaxed DPR is just a
  // renaming of strict DPR.
  EXPECT_EQ(strict.GetCommitPoint().prefix_end,
            relaxed.GetCommitPoint().prefix_end);
}

TEST(StrictDprSessionTest, FailureReportListsSurvivorsPastALostOp) {
  DprSession session(1, {.exception_list_cap = 0});
  Record(session, 0, 2, Committed(1));
  session.IssuePending(1, 1);  // lost in flight
  Record(session, 0, 2, Committed(1));  // after the pending op
  // The strict prefix never passed the pending op...
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 2u);
  // ...but ops 3-4 are in the recovery cut, so they survived: reporting them
  // lost would have the application apply them twice.
  const auto survivors = session.HandleFailure(2, DprCut{{0, 1}, {1, 1}});
  EXPECT_EQ(survivors.prefix_end, 5u);
  EXPECT_EQ(survivors.excluded, (std::vector<uint64_t>{2}));
}

TEST(SessionOptionsTest, ExceptionListCapBoundsSkippedOps) {
  DprSession session(1, {.exception_list_cap = 1});
  Record(session, 0, 1, Committed(1));  // op 0 committed
  const uint64_t p1 = session.IssuePending(0, 1);  // op 1 pending
  Record(session, 0, 1, Committed(1));  // op 2 committed
  const uint64_t p3 = session.IssuePending(0, 1);  // op 3 pending
  Record(session, 0, 1, Committed(1));  // op 4 committed
  // The prefix may skip one unresolved op (op 1) but stops before skipping
  // a second (op 3): the exception list is bounded at the cap.
  auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 3u);
  EXPECT_EQ(point.excluded, (std::vector<uint64_t>{1}));
  // Resolving op 1 frees the budget: the prefix advances, skipping op 3.
  session.ResolvePending(p1, Committed(1));
  point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 5u);
  EXPECT_EQ(point.excluded, (std::vector<uint64_t>{3}));
  session.ResolvePending(p3, Committed(1));
  point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 5u);
  EXPECT_TRUE(point.excluded.empty());
}

TEST(SessionOptionsTest, ZeroCapEquivalentToStrict) {
  DprSession session(1, {.exception_list_cap = 0});
  Record(session, 0, 2, Committed(1));  // ops 0-1 committed
  const uint64_t p = session.IssuePending(0, 1);  // op 2 pending
  Record(session, 0, 2, Committed(1));  // ops 3-4 committed
  auto point = session.GetCommitPoint();
  EXPECT_EQ(point.prefix_end, 2u);
  EXPECT_TRUE(point.excluded.empty());
  session.ResolvePending(p, Committed(1));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 5u);
}

TEST(SessionOptionsTest, RejectPolicyIgnoresPreRecoveryStragglers) {
  DprSession session(1);  // default: WorldLinePolicy::kReject
  session.HandleFailure(2, DprCut{{0, 0}});
  Record(session, 0, 1, Ok(/*executed=*/2, {}, /*wl=*/2));
  // A pre-recovery straggler claims v7 committed — on the OLD world-line,
  // which the rollback already erased. It must not advance anything.
  session.Observe(Ok(7, {{0, 7}}, kInitialWorldLine));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 0u);
  EXPECT_EQ(session.MakeHeader().version, 2u);
}

TEST(SessionOptionsTest, TrustingPolicyExhibitsPrefixMixingAnomaly) {
  // The §4.2 (Fig. 5) anomaly the world-line check exists to prevent: with
  // the legacy kTrusting policy, a pre-recovery cut "commits" a
  // post-recovery operation that nothing actually persisted.
  DprSession session(
      1, {.world_line_policy = SessionOptions::WorldLinePolicy::kTrusting});
  session.HandleFailure(2, DprCut{{0, 0}});
  Record(session, 0, 1, Ok(/*executed=*/2, {}, /*wl=*/2));
  session.Observe(Ok(7, {{0, 7}}, kInitialWorldLine));
  EXPECT_EQ(session.GetCommitPoint().prefix_end, 1u);
}

}  // namespace
}  // namespace dpr
