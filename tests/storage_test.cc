#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "storage/device.h"
#include "storage/wal.h"

namespace dpr {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/dpr_storage_test_" + name;
}

TEST(NullDeviceTest, AcceptsWritesTracksSize) {
  NullDevice dev;
  EXPECT_TRUE(SyncIo::Write(&dev, 100, "hello", 5).ok());
  EXPECT_EQ(dev.Size(), 105u);
  char buf[5];
  EXPECT_TRUE(SyncIo::Read(&dev, 100, buf, 5).ok());
  EXPECT_EQ(std::string(buf, 5), std::string(5, '\0'));
}

TEST(MemoryDeviceTest, ReadBackAndCrashSemantics) {
  MemoryDevice dev;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "durable", 7).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 7, "volatile", 8).ok());
  dev.SimulateCrash();
  EXPECT_EQ(dev.Size(), 7u);
  char buf[7];
  ASSERT_TRUE(SyncIo::Read(&dev, 0, buf, 7).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
  EXPECT_FALSE(SyncIo::Read(&dev, 0, buf, 8).ok());  // past end
}

TEST(MemoryDeviceTest, OverwriteBeforeFlushSurvivesOnlyAfterFlush) {
  MemoryDevice dev;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "aaaa", 4).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "bbbb", 4).ok());
  dev.SimulateCrash();
  char buf[4];
  ASSERT_TRUE(SyncIo::Read(&dev, 0, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "aaaa");
}

// Reads the whole device as a string.
std::string Contents(Device* dev) {
  std::string out(dev->Size(), '?');
  EXPECT_TRUE(SyncIo::Read(dev, 0, out.data(), out.size()).ok());
  return out;
}

TEST(MemoryDeviceTest, OverwriteInsideDurablePrefixSurvivesItsFsync) {
  MemoryDevice dev;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "0123456789abcdef", 16).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  // An fsync after an overwrite in the middle of the durable prefix makes
  // exactly the overwrite durable; a later unsynced one is lost.
  ASSERT_TRUE(SyncIo::Write(&dev, 4, "WXYZ", 4).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 10, "--", 2).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), "0123WXYZ89abcdef");
}

TEST(MemoryDeviceTest, TruncateThenWrite) {
  MemoryDevice dev;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "AAAAAAAAAAAA", 12).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  // Truncation is immediate on both images; a write past the new end
  // leaves a zero gap, and an fsync makes gap and write durable.
  dev.Truncate(4);
  ASSERT_TRUE(SyncIo::Write(&dev, 8, "BBBB", 4).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), std::string("AAAA\0\0\0\0BBBB", 12));

  // Truncating into an unsynced write keeps only its surviving part, which
  // the next fsync makes durable.
  ASSERT_TRUE(SyncIo::Write(&dev, 12, "CCCCCCCC", 8).ok());
  dev.Truncate(16);
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), std::string("AAAA\0\0\0\0BBBBCCCC", 16));

  // Truncating below an unsynced write drops it entirely.
  ASSERT_TRUE(SyncIo::Write(&dev, 16, "DDDD", 4).ok());
  dev.Truncate(2);
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), "AA");
}

TEST(MemoryDeviceTest, UnsyncedTailIsLost) {
  MemoryDevice dev;
  ASSERT_TRUE(SyncIo::Write(&dev, 0, "aaaa", 4).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 4, "bbbb", 4).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 8, "cccc", 4).ok());
  ASSERT_TRUE(SyncIo::Write(&dev, 1, "X", 1).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), "aaaabbbb");
  // The crash forgot the lost writes: the next fsync persists only what
  // was written after it.
  ASSERT_TRUE(SyncIo::Write(&dev, 8, "dd", 2).ok());
  ASSERT_TRUE(SyncIo::Fsync(&dev).ok());
  dev.SimulateCrash();
  EXPECT_EQ(Contents(&dev), "aaaabbbbdd");
}

TEST(FileDeviceTest, PersistsAcrossReopen) {
  const std::string path = TempPath("file_reopen");
  {
    std::unique_ptr<FileDevice> dev;
    ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev).ok());
    ASSERT_TRUE(SyncIo::Write(dev.get(), 0, "persist me", 10).ok());
    ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  }
  {
    std::unique_ptr<FileDevice> dev;
    ASSERT_TRUE(FileDevice::Open(path, /*reset=*/false, &dev).ok());
    EXPECT_EQ(dev->Size(), 10u);
    char buf[10];
    ASSERT_TRUE(SyncIo::Read(dev.get(), 0, buf, 10).ok());
    EXPECT_EQ(std::string(buf, 10), "persist me");
  }
  remove(path.c_str());
}

TEST(FileDeviceTest, CrashDropsUnsyncedTail) {
  const std::string path = TempPath("file_crash");
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Open(path, /*reset=*/true, &dev).ok());
  ASSERT_TRUE(SyncIo::Write(dev.get(), 0, "12345678", 8).ok());
  ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  ASSERT_TRUE(SyncIo::Write(dev.get(), 8, "rest", 4).ok());
  dev->SimulateCrash();
  EXPECT_EQ(dev->Size(), 8u);
  remove(path.c_str());
}

TEST(LatencyDeviceTest, FlushIsDelayed) {
  auto dev = std::make_unique<LatencyDevice>(
      std::make_unique<MemoryDevice>(), /*flush_latency_us=*/20000,
      /*per_mb_us=*/0);
  ASSERT_TRUE(SyncIo::Write(dev.get(), 0, "x", 1).ok());
  Stopwatch timer;
  ASSERT_TRUE(SyncIo::Fsync(dev.get()).ok());
  EXPECT_GE(timer.ElapsedMicros(), 15000u);
}

TEST(MakeDeviceTest, FactoryProducesWorkingDevices) {
  for (StorageBackend backend :
       {StorageBackend::kNull, StorageBackend::kLocal,
        StorageBackend::kCloud}) {
    auto dev = MakeDevice(backend);
    ASSERT_NE(dev, nullptr);
    EXPECT_TRUE(SyncIo::Write(dev.get(), 0, "probe", 5).ok());
    EXPECT_TRUE(SyncIo::Fsync(dev.get()).ok());
  }
}

TEST(WalTest, AppendReplayRoundTrip) {
  WriteAheadLog wal(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(wal.Append("first").ok());
  ASSERT_TRUE(wal.Append("second").ok());
  ASSERT_TRUE(wal.Sync().ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice rec) {
    seen.push_back(rec.ToString());
  }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_EQ(seen[1], "second");
}

TEST(WalTest, CrashLosesUnsyncedSuffixOnly) {
  WriteAheadLog wal(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(wal.Append("durable").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Append("lost").ok());
  wal.device()->SimulateCrash();
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice rec) {
    seen.push_back(rec.ToString());
  }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "durable");
}

TEST(WalTest, TornTailRecordIsDropped) {
  auto device = std::make_unique<MemoryDevice>();
  MemoryDevice* raw = device.get();
  WriteAheadLog wal(std::move(device));
  ASSERT_TRUE(wal.Append("good").ok());
  uint64_t offset = 0;
  ASSERT_TRUE(wal.Append("to be torn", &offset).ok());
  ASSERT_TRUE(wal.Sync().ok());
  // Corrupt one byte of the second record's payload.
  char byte = 'X';
  ASSERT_TRUE(SyncIo::Write(raw, offset + 9, &byte, 1).ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice rec) {
    seen.push_back(rec.ToString());
  }).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "good");
  // Reading one record by offset applies the same checks.
  std::string rec;
  ASSERT_TRUE(wal.ReadRecord(0, &rec).ok());
  EXPECT_EQ(rec, "good");
  EXPECT_EQ(wal.ReadRecord(offset, &rec).code(), Status::Code::kCorruption);
  EXPECT_EQ(wal.ReadRecord(offset + 4, &rec).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(wal.ReadRecord(raw->Size(), &rec).code(),
            Status::Code::kCorruption);
}

TEST(WalTest, ReplayCapSkipsLongRecordsUnread) {
  auto device = std::make_unique<MemoryDevice>();
  MemoryDevice* raw = device.get();
  WriteAheadLog wal(std::move(device));
  uint64_t a = 0;
  uint64_t big = 0;
  uint64_t b = 0;
  ASSERT_TRUE(wal.Append("short-a", &a).ok());
  ASSERT_TRUE(wal.Append(std::string(100, 'x'), &big).ok());
  ASSERT_TRUE(wal.Append("short-b", &b).ok());
  ASSERT_TRUE(wal.Sync().ok());
  // A flipped byte in the long record's body: the capped replay never reads
  // it, but ReadRecord still checks it.
  char byte = 'y';
  ASSERT_TRUE(SyncIo::Write(raw, big + 8 + 50, &byte, 1).ok());
  ASSERT_TRUE(SyncIo::Fsync(raw).ok());
  std::vector<std::pair<uint64_t, std::string>> seen;
  auto collect = [&](uint64_t offset, Slice rec) {
    seen.emplace_back(offset, rec.ToString());
  };
  ASSERT_TRUE(wal.Replay(collect, /*max_visit=*/16).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(a, std::string("short-a")));
  EXPECT_EQ(seen[1], std::make_pair(b, std::string("short-b")));
  std::string rec;
  EXPECT_EQ(wal.ReadRecord(big, &rec).code(), Status::Code::kCorruption);
  // Uncapped, the replay reads the long record and stops at its bad CRC.
  seen.clear();
  ASSERT_TRUE(wal.Replay(collect).ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, a);
}

TEST(WalTest, SkippedRecordTornAtTheTailEndsTheReplay) {
  auto device = std::make_unique<MemoryDevice>();
  MemoryDevice* raw = device.get();
  WriteAheadLog wal(std::move(device));
  ASSERT_TRUE(wal.Append("short").ok());
  uint64_t torn = 0;
  ASSERT_TRUE(wal.Append(std::string(100, 'z'), &torn).ok());
  ASSERT_TRUE(wal.Sync().ok());
  raw->Truncate(torn + 8 + 50);  // the crash kept half the body
  int visited = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice) { ++visited; },
                         /*max_visit=*/16)
                  .ok());
  EXPECT_EQ(visited, 1);
  // The replay ended at the torn record, so the next append replaces it.
  uint64_t next = 0;
  ASSERT_TRUE(wal.Append("after", &next).ok());
  EXPECT_EQ(next, torn);
}

TEST(WalTest, AppendAfterReplayContinuesAtTail) {
  WriteAheadLog wal(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(wal.Append("a").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Replay([](uint64_t, Slice) {}).ok());
  ASSERT_TRUE(wal.Append("b").ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice rec) {
    seen.push_back(rec.ToString());
  }).ok());
  ASSERT_EQ(seen.size(), 2u);
}

TEST(WalTest, ResetDiscardsEverything) {
  WriteAheadLog wal(std::make_unique<MemoryDevice>());
  ASSERT_TRUE(wal.Append("gone").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Reset().ok());
  int count = 0;
  ASSERT_TRUE(wal.Replay([&](uint64_t, Slice) { count++; }).ok());
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace dpr
