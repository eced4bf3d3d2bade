#include "faster/hash_index.h"

#include <sys/mman.h>

#include <bit>
#include <thread>

#include "common/logging.h"

namespace dpr {

namespace {

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

template <typename Bucket>
Bucket* MapZeroed(uint64_t count) {
  void* p = mmap(nullptr, count * sizeof(Bucket), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DPR_CHECK_MSG(p != MAP_FAILED, "hash index: mmap of %llu buckets failed",
                static_cast<unsigned long long>(count));
  return static_cast<Bucket*>(p);
}

// Insertion steps are sequentially consistent: of two threads claiming
// slots for the same tag, the one whose claim comes second in the single
// total order is guaranteed to see the first claim in its rescan.
bool CasWord(uint64_t* word, uint64_t* expected, uint64_t desired) {
  return std::atomic_ref<uint64_t>(*word).compare_exchange_strong(*expected,
                                                                  desired);
}

void StoreWord(uint64_t* word, uint64_t value) {
  std::atomic_ref<uint64_t>(*word).store(value);
}

}  // namespace

HashIndex::HashIndex(uint64_t bucket_count)
    : bucket_count_(RoundUpPow2(bucket_count < 16 ? 16 : bucket_count)),
      table_(MapZeroed<Bucket>(bucket_count_)) {}

HashIndex::~HashIndex() {
  FreeOverflow();
  munmap(table_, bucket_count_ * sizeof(Bucket));
}

LogAddress HashIndex::Head(uint64_t key) const {
  // Every operation's lookup: one pass that returns the word it matched,
  // rather than FindSlot plus a second load.
  const uint64_t hash = Mix64(key);
  const uint64_t tag = hash >> kTagShift;
  for (const Bucket* b = &table_[hash & (bucket_count_ - 1)]; b != nullptr;
       b = Next(b)) {
    for (const uint64_t& slot : b->entries) {
      const uint64_t word = Load(slot);
      if (Matches(word, tag)) return word & kAddressMask;
    }
  }
  return kNullAddress;
}

uint64_t* HashIndex::FindSlot(uint64_t bucket, uint64_t tag) const {
  for (const Bucket* b = &table_[bucket]; b != nullptr; b = Next(b)) {
    for (const uint64_t& slot : b->entries) {
      if (Matches(Load(slot), tag)) return const_cast<uint64_t*>(&slot);
    }
  }
  return nullptr;
}

bool HashIndex::HasConflict(uint64_t bucket, uint64_t tag,
                            const uint64_t* mine) const {
  for (const Bucket* b = &table_[bucket]; b != nullptr; b = Next(b)) {
    for (const uint64_t& slot : b->entries) {
      if (&slot == mine) continue;
      const uint64_t word =
          std::atomic_ref<const uint64_t>(slot).load(std::memory_order_seq_cst);
      // Tentative or not, another entry for `tag` is a conflict.
      if (word != 0 && (word & ~kTentativeBit) >> kTagPos == tag) return true;
    }
  }
  return false;
}

uint64_t* HashIndex::FindOrInsert(uint64_t bucket, uint64_t tag,
                                  LogAddress address, bool* inserted) {
  const uint64_t entry = (tag << kTagPos) | address;
  for (;;) {
    uint64_t* free_slot = nullptr;
    Bucket* last = &table_[bucket];
    for (Bucket* b = last; b != nullptr;
         b = reinterpret_cast<Bucket*>(Load(b->overflow))) {
      last = b;
      for (uint64_t& slot : b->entries) {
        const uint64_t word = Load(slot);
        if (Matches(word, tag)) {
          *inserted = false;
          return &slot;
        }
        if (word == 0 && free_slot == nullptr) free_slot = &slot;
      }
    }
    if (free_slot == nullptr) {
      // The chain is full: link a fresh overflow bucket after its end. A
      // lost race leaves ours unlinked (zeroed, reclaimed by Clear); the
      // rescan then walks into the winner's bucket.
      Bucket* fresh = AllocateOverflow();
      uint64_t expected = 0;
      if (!CasWord(&last->overflow, &expected,
                   reinterpret_cast<uint64_t>(fresh))) {
        continue;
      }
      free_slot = &fresh->entries[0];
    }
    uint64_t expected = 0;
    if (!CasWord(free_slot, &expected, entry | kTentativeBit)) continue;
    if (HasConflict(bucket, tag, free_slot)) {
      StoreWord(free_slot, 0);
      std::this_thread::yield();
      continue;
    }
    StoreWord(free_slot, entry);
    *inserted = true;
    return free_slot;
  }
}

bool HashIndex::CasHead(uint64_t key, LogAddress* expected,
                        LogAddress desired) {
  const uint64_t hash = Mix64(key);
  const uint64_t bucket = hash & (bucket_count_ - 1);
  const uint64_t tag = hash >> kTagShift;
  uint64_t* slot = FindSlot(bucket, tag);
  if (slot == nullptr) {
    if (*expected != kNullAddress) {
      *expected = kNullAddress;
      return false;
    }
    bool inserted = false;
    slot = FindOrInsert(bucket, tag, desired, &inserted);
    if (inserted) return true;
  }
  uint64_t word = (tag << kTagPos) | *expected;
  if (std::atomic_ref<uint64_t>(*slot).compare_exchange_strong(
          word, (tag << kTagPos) | desired, std::memory_order_acq_rel)) {
    return true;
  }
  *expected = word & kAddressMask;
  return false;
}

void HashIndex::SetHead(uint64_t key, LogAddress address) {
  RestoreEntry(BucketFor(key), (TagFor(key) << kTagPos) | address);
}

void HashIndex::RestoreEntry(uint64_t bucket, uint64_t word) {
  // Single-threaded, so no tentative protocol: overwrite the tag's entry,
  // else fill the first free slot, else link a new overflow bucket.
  uint64_t* target = FindSlot(bucket, word >> kTagPos);
  for (Bucket* b = &table_[bucket]; target == nullptr;) {
    for (uint64_t& slot : b->entries) {
      if (Load(slot) == 0) {
        target = &slot;
        break;
      }
    }
    if (target != nullptr) break;
    Bucket* next = reinterpret_cast<Bucket*>(Load(b->overflow));
    if (next == nullptr) {
      next = AllocateOverflow();
      std::atomic_ref<uint64_t>(b->overflow)
          .store(reinterpret_cast<uint64_t>(next), std::memory_order_release);
    }
    b = next;
  }
  std::atomic_ref<uint64_t>(*target).store(word, std::memory_order_release);
}

HashIndex::Bucket* HashIndex::AllocateOverflow() {
  // Segment s holds (64 << s) buckets and starts at overflow index
  // 64 * (2^s - 1). relaxed: the index only needs to be unique.
  const uint64_t j = overflow_used_.fetch_add(1, std::memory_order_relaxed) +
                     (uint64_t{1} << kFirstSegmentBits);
  const int s = std::bit_width(j) - 1 - kFirstSegmentBits;
  DPR_CHECK_MSG(s < kOverflowSegments, "hash index overflow exhausted");
  const uint64_t size = uint64_t{1} << (kFirstSegmentBits + s);
  Bucket* segment = overflow_segments_[s].load(std::memory_order_acquire);
  if (segment == nullptr) {
    Bucket* fresh = new Bucket[size]();
    if (overflow_segments_[s].compare_exchange_strong(
            segment, fresh, std::memory_order_acq_rel)) {
      segment = fresh;
    } else {
      delete[] fresh;
    }
  }
  return &segment[j - size];
}

void HashIndex::FreeOverflow() {
  for (auto& segment : overflow_segments_) {
    delete[] segment.exchange(nullptr, std::memory_order_acq_rel);
  }
  // relaxed: Clear and the destructor run with no concurrent users.
  overflow_used_.store(0, std::memory_order_relaxed);
}

void HashIndex::Clear() {
  FreeOverflow();
  // Drops the table's pages; the mapping stays valid and reads back zeros.
  DPR_CHECK(madvise(table_, bucket_count_ * sizeof(Bucket), MADV_DONTNEED) ==
            0);
}

}  // namespace dpr
