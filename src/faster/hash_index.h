#ifndef DPR_FASTER_HASH_INDEX_H_
#define DPR_FASTER_HASH_INDEX_H_

#include <atomic>
#include <cstdint>

#include "common/hash.h"
#include "faster/record.h"

namespace dpr {

/// FASTER's latch-free hash index (Chandramouli et al., SIGMOD 2018): a
/// power-of-two table of 64-byte buckets, each holding seven entries and a
/// pointer to an overflow bucket. An entry word packs a 15-bit tag (the top
/// bits of the key's hash) with the address of the newest record of the
/// keys carrying that tag in that bucket; records reached through `prev`
/// pointers form the entry's chain. A lookup therefore walks only its own
/// key's records, plus those of the rare key sharing its bucket and tag.
///
/// Address updates CAS the entry word. A new tag is inserted with FASTER's
/// tentative-bit protocol: the inserter claims a free slot with the
/// tentative bit set, rescans the bucket chain for another entry with the
/// same tag, and backs off if it finds one, so two threads racing to insert
/// the same key end up sharing one entry. Lookups skip tentative entries.
/// Entries are never removed (except by Clear).
class HashIndex {
 public:
  static constexpr uint32_t kEntriesPerBucket = 7;

  /// `bucket_count` 64-byte buckets, rounded up to a power of two (at least
  /// 16). The table is mapped zeroed, so untouched buckets cost no memory.
  explicit HashIndex(uint64_t bucket_count);
  ~HashIndex();

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  uint64_t BucketFor(uint64_t key) const {
    return Mix64(key) & (bucket_count_ - 1);
  }
  static uint64_t TagFor(uint64_t key) { return Mix64(key) >> kTagShift; }

  /// Newest record address of `key`'s entry; kNullAddress when none.
  LogAddress Head(uint64_t key) const;

  /// CAS the address of `key`'s entry from `expected` to `desired`,
  /// inserting the entry when it does not exist and `expected` is null. On
  /// failure `expected` holds the observed address.
  bool CasHead(uint64_t key, LogAddress* expected, LogAddress desired);

  /// Unconditionally sets `key`'s entry (single-threaded recovery rebuild).
  void SetHead(uint64_t key, LogAddress address);

  /// Starts loading `key`'s bucket into cache, so a batch of lookups can
  /// overlap their misses.
  void Prefetch(uint64_t key) const {
    __builtin_prefetch(&table_[BucketFor(key)]);
  }

  /// Entry words, for checkpoint index images: `visit(bucket, word)` runs
  /// for every inserted entry. Safe against concurrent inserts and updates
  /// (it sees each entry at some point during the walk).
  template <typename Visit>
  void ForEachEntry(Visit&& visit) const;

  /// Installs an entry word captured by ForEachEntry into `bucket`,
  /// replacing the entry with the same tag if there is one (single-threaded
  /// chain restore; no record is read).
  void RestoreEntry(uint64_t bucket, uint64_t word);

  static LogAddress AddressOf(uint64_t word) { return word & kAddressMask; }
  static uint64_t WithAddress(uint64_t word, LogAddress address) {
    return (word & ~kAddressMask) | address;
  }

  /// Empties the index (crash / cold recovery; no concurrent users).
  void Clear();

  uint64_t bucket_count() const { return bucket_count_; }
  /// Overflow buckets allocated since construction or the last Clear.
  uint64_t overflow_bucket_count() const {
    // relaxed: a statistic; no memory is reached through it.
    return overflow_used_.load(std::memory_order_relaxed);
  }

 private:
  // Entry word: address in bits 0-47 (log addresses stay below 2^46), tag
  // in bits 48-62, tentative bit 63. A word of 0 is a free slot; an
  // inserted entry always holds a non-null address.
  static constexpr int kTagShift = 49;
  static constexpr int kTagPos = 48;
  static constexpr uint64_t kAddressMask = (uint64_t{1} << kTagPos) - 1;
  static constexpr uint64_t kTentativeBit = uint64_t{1} << 63;

  struct alignas(64) Bucket {
    uint64_t entries[kEntriesPerBucket];
    uint64_t overflow;  // Bucket* of the next bucket in the chain, or 0
  };
  static_assert(sizeof(Bucket) == 64, "bucket is one cache line");

  // Overflow buckets come from segments that double in size, so a bucket
  // never moves and Clear frees them all without walking the table.
  static constexpr int kFirstSegmentBits = 6;  // 64 buckets
  static constexpr int kOverflowSegments = 40;

  // Every entry access is atomic: acquire loads pair with release CASes, so
  // observing an address implies observing the record bytes written at it.
  static uint64_t Load(const uint64_t& word) {
    return std::atomic_ref<const uint64_t>(word).load(
        std::memory_order_acquire);
  }
  static const Bucket* Next(const Bucket* b) {
    return reinterpret_cast<const Bucket*>(Load(b->overflow));
  }
  static bool Matches(uint64_t word, uint64_t tag) {
    // The tentative bit is part of the compared high bits, so tentative
    // entries never match.
    return word != 0 && (word >> kTagPos) == tag;
  }

  uint64_t* FindSlot(uint64_t bucket, uint64_t tag) const;
  // Returns the slot holding `tag`'s entry, inserting it with `address`
  // when absent (*inserted says which).
  uint64_t* FindOrInsert(uint64_t bucket, uint64_t tag, LogAddress address,
                         bool* inserted);
  bool HasConflict(uint64_t bucket, uint64_t tag, const uint64_t* mine) const;
  Bucket* AllocateOverflow();
  void FreeOverflow();

  const uint64_t bucket_count_;
  Bucket* const table_;  // mmap'd, zero-filled on demand
  // release on CAS-install / acquire on load: a thread that sees a segment
  // pointer also sees its zeroed buckets.
  std::atomic<Bucket*> overflow_segments_[kOverflowSegments] = {};
  // relaxed: the fetch_add only hands out distinct indices; the buckets are
  // published through overflow_segments_ and the overflow-link CAS.
  std::atomic<uint64_t> overflow_used_{0};
};

template <typename Visit>
void HashIndex::ForEachEntry(Visit&& visit) const {
  for (uint64_t i = 0; i < bucket_count_; ++i) {
    for (const Bucket* b = &table_[i]; b != nullptr; b = Next(b)) {
      uint64_t words[kEntriesPerBucket];
      uint64_t any = 0;
      for (uint32_t j = 0; j < kEntriesPerBucket; ++j) {
        words[j] = Load(b->entries[j]);
        any |= words[j];
      }
      if (any == 0) continue;  // most buckets of a sparse table
      for (const uint64_t word : words) {
        if (word != 0 && (word & kTentativeBit) == 0) visit(i, word);
      }
    }
  }
}

}  // namespace dpr

#endif  // DPR_FASTER_HASH_INDEX_H_
