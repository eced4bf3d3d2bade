#ifndef DPR_COMMON_CLOCK_H_
#define DPR_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace dpr {

/// Monotonic clock helpers used for benchmarking and checkpoint timers.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t NowMicros() { return NowNanos() / 1000; }

inline void SleepMicros(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

inline void SleepMillis(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Simple elapsed-time stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}
  void Reset() { start_ = NowNanos(); }
  uint64_t ElapsedNanos() const { return NowNanos() - start_; }
  uint64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }
  uint64_t ElapsedMillis() const { return ElapsedNanos() / 1000000; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  uint64_t start_;
};

}  // namespace dpr

#endif  // DPR_COMMON_CLOCK_H_
