#ifndef DPR_OBS_BENCH_ARTIFACT_H_
#define DPR_OBS_BENCH_ARTIFACT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace dpr {

/// Machine-readable result of one bench run, serialized as
///   {"bench": name, "config": {...}, "series": [...], "histograms": {...},
///    "counters": {...}, "gauges": {...}}
/// and written to the path given by --json_out as BENCH_<name>.json. Every
/// bench binary builds exactly one of these; plotting and regression tooling
/// consume the files instead of scraping stdout tables.
class BenchArtifact {
 public:
  explicit BenchArtifact(std::string bench_name);

  const std::string& bench_name() const { return bench_name_; }

  /// Config entries record the knobs that produced this run (flag values,
  /// cluster shape). Stored as strings; numeric configs also keep a numeric
  /// form so consumers need not parse.
  void SetConfig(std::string_view key, std::string_view value);
  /// Without this overload a string literal would convert to bool (the
  /// pointer-to-bool standard conversion beats the string_view one).
  void SetConfig(std::string_view key, const char* value) {
    SetConfig(key, std::string_view(value));
  }
  void SetConfig(std::string_view key, int64_t value);
  void SetConfig(std::string_view key, uint64_t value);
  void SetConfig(std::string_view key, double value);
  void SetConfig(std::string_view key, bool value);

  /// Appends one (x, y) point to the named series, creating it on first use.
  /// Series preserve insertion order of both points and names.
  void AddPoint(std::string_view series, double x, double y,
                std::string_view label = {});

  /// Stores a finished latency histogram under `name` (replacing any prior).
  void AddHistogram(std::string_view name, const Histogram& h);
  void AddHistogram(std::string_view name, const ShardedHistogram& h);

  /// Merges a registry snapshot: histograms are added as-is, counters and
  /// gauges land in the artifact's flat counter/gauge maps.
  void AddSnapshot(const MetricsSnapshot& snapshot);

  void AddCounter(std::string_view name, uint64_t value);
  void AddGauge(std::string_view name, int64_t value);

  std::string ToJson() const;

  /// Serializes to `path` (truncating). The conventional name is
  /// BENCH_<bench_name>.json but any path is accepted.
  Status WriteToFile(const std::string& path) const;

 private:
  struct ConfigValue {
    enum class Kind { kString, kInt, kUInt, kDouble, kBool } kind;
    std::string str;
    int64_t i = 0;
    uint64_t u = 0;
    double d = 0;
    bool b = false;
  };
  struct Point {
    double x = 0;
    double y = 0;
    std::string label;
  };
  struct Series {
    std::string name;
    std::vector<Point> points;
  };

  Series* SeriesFor(std::string_view name);

  std::string bench_name_;
  std::vector<std::pair<std::string, ConfigValue>> config_;
  std::vector<Series> series_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
};

}  // namespace dpr

#endif  // DPR_OBS_BENCH_ARTIFACT_H_
