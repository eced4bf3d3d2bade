#include "epoch/light_epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace dpr {
namespace {

TEST(LightEpochTest, ProtectPublishesCurrentEpoch) {
  LightEpoch epoch;
  EXPECT_FALSE(epoch.IsProtected());
  const uint64_t e = epoch.Protect();
  EXPECT_TRUE(epoch.IsProtected());
  EXPECT_EQ(e, epoch.current_epoch());
  epoch.Unprotect();
  EXPECT_FALSE(epoch.IsProtected());
}

TEST(LightEpochTest, BumpAdvancesEpoch) {
  LightEpoch epoch;
  const uint64_t before = epoch.current_epoch();
  epoch.BumpEpoch();
  EXPECT_EQ(epoch.current_epoch(), before + 1);
}

TEST(LightEpochTest, DrainActionRunsImmediatelyWithNoThreads) {
  LightEpoch epoch;
  std::atomic<int> ran{0};
  epoch.BumpEpoch([&] { ran.fetch_add(1); });
  epoch.TryDrain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(LightEpochTest, DrainWaitsForProtectedThread) {
  LightEpoch epoch;
  epoch.Protect();  // this thread pins the old epoch
  std::atomic<int> ran{0};
  std::thread bumper(
      [&] { epoch.BumpEpoch([&] { ran.fetch_add(1); }); });
  bumper.join();
  // Our published epoch predates the bump; the action must not have run.
  EXPECT_EQ(ran.load(), 0);
  epoch.Refresh();  // we observe the new epoch -> action becomes safe
  EXPECT_EQ(ran.load(), 1);
  epoch.Unprotect();
}

TEST(LightEpochTest, ActionRunsExactlyOnce) {
  LightEpoch epoch;
  std::atomic<int> ran{0};
  epoch.Protect();
  epoch.BumpEpoch([&] { ran.fetch_add(1); });
  for (int i = 0; i < 10; ++i) epoch.Refresh();
  epoch.Unprotect();
  epoch.TryDrain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(LightEpochTest, SafeEpochIsMinOfProtected) {
  LightEpoch epoch;
  epoch.Protect();
  const uint64_t pinned = epoch.current_epoch();
  std::thread other([&] {
    epoch.Protect();
    epoch.Refresh();
    epoch.Unprotect();
  });
  other.join();
  epoch.BumpEpoch();
  epoch.BumpEpoch();
  EXPECT_EQ(epoch.ComputeSafeEpoch(), pinned);
  epoch.Refresh();
  EXPECT_EQ(epoch.ComputeSafeEpoch(), epoch.current_epoch());
  epoch.Unprotect();
}

TEST(LightEpochTest, ManyThreadsManyBumps) {
  LightEpoch epoch;
  constexpr int kThreads = 8;
  constexpr int kBumpsPerThread = 50;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      epoch.Protect();
      for (int i = 0; i < kBumpsPerThread; ++i) {
        epoch.BumpEpoch([&] { ran.fetch_add(1); });
        epoch.Refresh();
      }
      epoch.Unprotect();
    });
  }
  for (auto& t : threads) t.join();
  epoch.TryDrain();
  EXPECT_EQ(ran.load(), kThreads * kBumpsPerThread);
}

// A full drain list is back-pressure, not a crash: the bump that finds no
// free slot waits (draining) until the thread pinning the old epoch moves
// on, then lands, and every action still runs exactly once.
TEST(LightEpochTest, FullDrainListBlocksUntilDrained) {
  LightEpoch epoch;
  std::atomic<int> ran{0};
  std::atomic<bool> held{false};
  std::atomic<bool> filled{false};
  std::atomic<bool> released{false};
  std::thread holder([&] {
    epoch.Protect();  // pins the pre-bump epoch; never refreshes
    held.store(true);
    while (!filled.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released.store(true);
    epoch.Unprotect();
  });
  while (!held.load()) std::this_thread::yield();
  for (int i = 0; i < LightEpoch::kDrainListSize; ++i) {
    epoch.BumpEpoch([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);  // all pinned behind the holder
  filled.store(true);
  epoch.BumpEpoch([&] { ran.fetch_add(1); });  // list full: must wait
  EXPECT_TRUE(released.load());
  EXPECT_EQ(ran.load(), LightEpoch::kDrainListSize + 1);
  holder.join();
}

TEST(LightEpochTest, SlotReleasedOnUnprotect) {
  LightEpoch epoch;
  // Churn far more logical threads than kMaxThreads slots.
  for (int i = 0; i < 300; ++i) {
    std::thread worker([&] {
      epoch.Protect();
      epoch.Refresh();
      epoch.Unprotect();
    });
    worker.join();
  }
  SUCCEED();
}

TEST(LightEpochTest, PendingActionsRunAtDestruction) {
  std::atomic<int> ran{0};
  {
    LightEpoch epoch;
    epoch.Protect();
    epoch.BumpEpoch([&] { ran.fetch_add(1); });
    epoch.Unprotect();
  }
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace dpr
