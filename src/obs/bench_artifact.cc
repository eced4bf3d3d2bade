#include "obs/bench_artifact.h"

#include <cstdio>
#include <utility>

#include "obs/histogram_json.h"
#include "obs/json.h"

namespace dpr {

BenchArtifact::BenchArtifact(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchArtifact::SetConfig(std::string_view key, std::string_view value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kString;
  v.str = std::string(value);
  config_.emplace_back(std::string(key), std::move(v));
}

void BenchArtifact::SetConfig(std::string_view key, int64_t value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kInt;
  v.i = value;
  config_.emplace_back(std::string(key), std::move(v));
}

void BenchArtifact::SetConfig(std::string_view key, uint64_t value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kUInt;
  v.u = value;
  config_.emplace_back(std::string(key), std::move(v));
}

void BenchArtifact::SetConfig(std::string_view key, double value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kDouble;
  v.d = value;
  config_.emplace_back(std::string(key), std::move(v));
}

void BenchArtifact::SetConfig(std::string_view key, bool value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kBool;
  v.b = value;
  config_.emplace_back(std::string(key), std::move(v));
}

BenchArtifact::Series* BenchArtifact::SeriesFor(std::string_view name) {
  for (Series& s : series_) {
    if (s.name == name) return &s;
  }
  series_.emplace_back();
  series_.back().name = std::string(name);
  return &series_.back();
}

void BenchArtifact::AddPoint(std::string_view series, double x, double y,
                             std::string_view label) {
  Point p;
  p.x = x;
  p.y = y;
  p.label = std::string(label);
  SeriesFor(series)->points.push_back(std::move(p));
}

void BenchArtifact::AddHistogram(std::string_view name, const Histogram& h) {
  histograms_[std::string(name)] = h;
}

void BenchArtifact::AddHistogram(std::string_view name,
                                 const ShardedHistogram& h) {
  h.SnapshotInto(&histograms_[std::string(name)]);
}

void BenchArtifact::AddSnapshot(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    if (value != 0) counters_[name] = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (value != 0) gauges_[name] = value;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    if (h.count() != 0) histograms_[name] = h;
  }
}

void BenchArtifact::AddCounter(std::string_view name, uint64_t value) {
  counters_[std::string(name)] = value;
}

void BenchArtifact::AddGauge(std::string_view name, int64_t value) {
  gauges_[std::string(name)] = value;
}

std::string BenchArtifact::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name_);
  w.Key("config").BeginObject();
  for (const auto& [key, v] : config_) {
    w.Key(key);
    switch (v.kind) {
      case ConfigValue::Kind::kString: w.String(v.str); break;
      case ConfigValue::Kind::kInt: w.Int(v.i); break;
      case ConfigValue::Kind::kUInt: w.UInt(v.u); break;
      case ConfigValue::Kind::kDouble: w.Double(v.d); break;
      case ConfigValue::Kind::kBool: w.Bool(v.b); break;
    }
  }
  w.EndObject();
  w.Key("series").BeginArray();
  for (const Series& s : series_) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("points").BeginArray();
    for (const Point& p : s.points) {
      w.BeginObject();
      w.Key("x").Double(p.x);
      w.Key("y").Double(p.y);
      if (!p.label.empty()) w.Key("label").String(p.label);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name);
    HistogramToJson(h, &w);
  }
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) w.Key(name).UInt(value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) w.Key(name).Int(value);
  w.EndObject();
  w.EndObject();
  return w.str();
}

Status BenchArtifact::WriteToFile(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open json_out path: " + path);
  }
  const std::string json = ToJson();
  const size_t written = fwrite(json.data(), 1, json.size(), f);
  const bool newline_ok = fputc('\n', f) != EOF;
  if (fclose(f) != 0 || written != json.size() || !newline_ok) {
    return Status::IOError("short write to json_out path: " + path);
  }
  return Status::OK();
}

}  // namespace dpr
