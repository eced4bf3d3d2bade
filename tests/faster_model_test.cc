// Randomized model checking for FasterStore: a reference std::map tracks the
// expected state per checkpoint token; random interleavings of operations,
// checkpoints, in-memory rollbacks, and crash-recoveries must always leave
// the store equal to the model at the restored token.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/random.h"
#include "faster/faster_store.h"

namespace dpr {
namespace {

class FasterModelFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FasterModelFuzz, RandomOpsCheckpointsRollbacksCrashes) {
  FasterOptions options;
  options.index_buckets = 256;  // force chain collisions
  options.page_bits = 14;       // small pages: exercise pads + spans
  options.log_device = std::make_unique<MemoryDevice>();
  options.meta_device = std::make_unique<MemoryDevice>();
  FasterStore store(std::move(options));

  Random rng(GetParam());
  constexpr uint64_t kKeySpace = 128;

  std::map<uint64_t, uint64_t> live;                       // current state
  std::map<Version, std::map<uint64_t, uint64_t>> images;  // token -> state
  images[0] = {};

  auto session = store.NewSession();
  int checkpoints = 0;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.80) {
      // Mutation: upsert / rmw / delete.
      const uint64_t key = rng.Uniform(kKeySpace);
      const double kind = rng.NextDouble();
      if (kind < 0.6) {
        const uint64_t value = rng.Next();
        ASSERT_TRUE(session->Upsert(key, value).ok());
        live[key] = value;
      } else if (kind < 0.85) {
        uint64_t result = 0;
        ASSERT_TRUE(session->Rmw(key, 3, &result).ok());
        live[key] = live.count(key) ? live[key] + 3 : 3;
        ASSERT_EQ(result, live[key]);
      } else {
        ASSERT_TRUE(session->Delete(key).ok());
        live.erase(key);
      }
    } else if (roll < 0.86) {
      // Point read must match the model exactly.
      const uint64_t key = rng.Uniform(kKeySpace);
      uint64_t value = 0;
      Status s = session->Read(key, &value);
      if (live.count(key)) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(value, live[key]);
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else if (roll < 0.93 && checkpoints < 60) {
      // Checkpoint: capture the current model image at the token.
      Version token;
      Status s = store.PerformCheckpoint(store.CurrentVersion() + 1, nullptr,
                                         &token, CheckpointHints{});
      if (s.ok()) {
        store.WaitForCheckpoints();
        images[token] = live;
        ++checkpoints;
      } else {
        ASSERT_TRUE(s.IsBusy()) << s.ToString();
      }
    } else if (roll < 0.97) {
      // In-memory rollback to a random earlier durable token.
      if (images.size() > 1) {
        auto it = images.begin();
        std::advance(it, rng.Uniform(images.size()));
        Version restored;
        session.reset();  // rollback is invoked quiesced here
        ASSERT_TRUE(store.RestoreCheckpoint(it->first, &restored).ok());
        session = store.NewSession();
        ASSERT_LE(restored, it->first);
        live = images.at(restored);
        // Tokens above the restore point are gone forever.
        images.erase(images.upper_bound(restored), images.end());
      }
    } else {
      // Crash: volatile state lost; recover to the latest durable token.
      session.reset();
      store.SimulateCrash();
      Version restored;
      ASSERT_TRUE(store.RestoreCheckpoint(~0ULL, &restored).ok());
      session = store.NewSession();
      ASSERT_TRUE(images.count(restored))
          << "recovered to unknown token " << restored;
      live = images.at(restored);
      images.erase(images.upper_bound(restored), images.end());
    }
  }

  // Final audit: every key agrees with the model.
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    uint64_t value = 0;
    Status s = session->Read(key, &value);
    if (live.count(key)) {
      ASSERT_TRUE(s.ok()) << "key " << key << ": " << s.ToString();
      ASSERT_EQ(value, live[key]) << "key " << key;
    } else {
      ASSERT_TRUE(s.IsNotFound()) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FasterModelFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dpr
