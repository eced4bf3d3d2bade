#ifndef DPR_HARNESS_STATS_H_
#define DPR_HARNESS_STATS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dpr {

/// Shared op counters for multi-threaded bench drivers. All relaxed: each
/// field is an independent monotonic tally; the reporting thread may see a
/// slightly stale mix across fields, which throughput math tolerates.
struct BenchCounters {
  // relaxed throughout, per the struct comment above.
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
};

/// Fixed-width row printer for paper-style result tables.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> columns);

  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Fmt(double v, int precision = 2);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dpr

#endif  // DPR_HARNESS_STATS_H_
