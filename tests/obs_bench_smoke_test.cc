// End-to-end --json_out smoke: runs real bench binaries in quick mode and
// validates the artifacts they write — they must parse, carry the
// {bench, config, series[], histograms{}} schema, and their histograms must
// round-trip through the JSON codec. The binary paths are injected by CMake
// ($<TARGET_FILE:bench_fig13_tradeoff>, $<TARGET_FILE:bench_tracking_plane>).
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/histogram.h"
#include "gtest/gtest.h"
#include "obs/histogram_json.h"
#include "obs/json.h"

namespace dpr {
namespace {

/// Runs `binary args --json_out=<fresh dir>` and parses the
/// BENCH_<bench>.json it writes into `doc`.
void RunBench(const std::string& binary, const std::string& args,
              const std::string& bench, JsonValue* doc) {
  const std::string dir = ::testing::TempDir() + "obs_smoke_" + bench + "_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string cmd =
      binary + " " + args + " --json_out=" + dir + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  const std::string path = dir + "/BENCH_" + bench + ".json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  ASSERT_TRUE(JsonValue::Parse(buf.str(), doc).ok());
  ASSERT_TRUE(doc->is_object());
}

TEST(ObsBenchSmokeTest, QuickBenchEmitsValidArtifact) {
  JsonValue doc;
  ASSERT_NO_FATAL_FAILURE(RunBench(
      DPR_SMOKE_BENCH_PATH,
      "--quick=true --duration_ms=250 --num_keys=5000 --client_threads=1",
      "fig13_tradeoff", &doc));
  EXPECT_EQ(doc.Find("bench")->string_value(), "fig13_tradeoff");

  const JsonValue* config = doc.Find("config");
  ASSERT_TRUE(config != nullptr && config->is_object());
  EXPECT_TRUE(config->Find("quick")->bool_value());
  EXPECT_EQ(config->Find("num_keys")->uint_value(), 5000u);

  // At least the throughput series, with numeric (x, y) points.
  const JsonValue* series = doc.Find("series");
  ASSERT_TRUE(series != nullptr && series->is_array());
  ASSERT_FALSE(series->array().empty());
  bool found_batch = false;
  for (const JsonValue& s : series->array()) {
    ASSERT_NE(s.Find("name"), nullptr);
    const JsonValue* points = s.Find("points");
    ASSERT_TRUE(points != nullptr && points->is_array());
    for (const JsonValue& p : points->array()) {
      ASSERT_TRUE(p.Find("x") != nullptr && p.Find("x")->is_number());
      ASSERT_TRUE(p.Find("y") != nullptr && p.Find("y")->is_number());
    }
    if (s.Find("name")->string_value() == "batch") {
      found_batch = true;
      EXPECT_FALSE(points->array().empty());
    }
  }
  EXPECT_TRUE(found_batch);

  // Latency histograms round-trip through the codec and merge cleanly.
  const JsonValue* hists = doc.Find("histograms");
  ASSERT_TRUE(hists != nullptr && hists->is_object());
  ASSERT_FALSE(hists->object().empty());
  Histogram merged;
  uint64_t expected_count = 0;
  for (const auto& [name, value] : hists->object()) {
    Histogram h;
    ASSERT_TRUE(HistogramFromJson(value, &h).ok()) << name;
    EXPECT_EQ(h.count(), value.Find("count")->uint_value()) << name;
    expected_count += h.count();
    merged.Merge(h);
  }
  EXPECT_EQ(merged.count(), expected_count);

  // The registry snapshot rode along: bench totals and plane counters.
  const JsonValue* counters = doc.Find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_object());
  EXPECT_NE(counters->Find("bench.ops_completed"), nullptr);
}

// The tracking-plane bench reads its per-layer counts from the registry; the
// artifact must show all three layers — worker dependency tracker, finder
// core and remote batching client — doing work.
TEST(ObsBenchSmokeTest, TrackingPlaneBenchCountsEveryLayer) {
  JsonValue doc;
  ASSERT_NO_FATAL_FAILURE(RunBench(DPR_SMOKE_TRACKING_BENCH_PATH,
                                   "--quick=true --duration_ms=250",
                                   "tracking_plane", &doc));
  const JsonValue* counters = doc.Find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_object());
  for (const char* name :
       {"dpr.dep_tracker.empty_records", "dpr.finder.reports_ingested",
        "dpr.remote.batches_sent"}) {
    const JsonValue* value = counters->Find(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_GT(value->uint_value(), 0u) << name;
  }
}

}  // namespace
}  // namespace dpr
