// OpenMetrics exporter (obs/openmetrics.h): the exposition text is checked
// line by line against the grammar rules that Prometheus enforces on
// ingestion — metadata before samples, contiguous families, `_total` on
// counters, cumulative `le`-ascending histogram buckets, terminal `# EOF` —
// and the sample values are cross-checked against the snapshot fields,
// including a counter above 2^53 that a double-typed pipeline would corrupt.

#include "obs/openmetrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "telemetry_snapshots.h"

namespace streamagg {
namespace {

// The subset of the OpenMetrics line grammar a scraper enforces. Walks the
// exposition text once and fails the test at the first violation.
void ValidateOpenMetrics(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";

  std::map<std::string, std::string> family_type;  // name -> type.
  std::string current_family;                      // Last declared family.
  bool saw_eof = false;

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(saw_eof) << "content after # EOF: " << line;
    ASSERT_FALSE(line.empty()) << "blank lines are not allowed";

    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream meta(line.substr(7));
      std::string name, type;
      ASSERT_TRUE(meta >> name >> type) << line;
      ASSERT_TRUE(type == "gauge" || type == "counter" || type == "histogram")
          << line;
      ASSERT_EQ(family_type.count(name), 0u)
          << "family declared twice: " << name;
      family_type[name] = type;
      current_family = name;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream meta(line.substr(7));
      std::string name;
      ASSERT_TRUE(meta >> name) << line;
      ASSERT_EQ(name, current_family) << "HELP outside its family: " << line;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown metadata line: " << line;

    // Sample line: name[{labels}] value.
    const size_t brace = line.find('{');
    const size_t space = line.find(' ', brace == std::string::npos
                                              ? 0
                                              : line.find('}', brace));
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    if (brace != std::string::npos && brace < space) {
      const size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      name = line.substr(0, brace);
    }
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_TRUE(end != nullptr && *end == '\0')
        << "unparseable value: " << line;

    // The sample must belong to the most recently declared family
    // (contiguity), under the suffix rules of that family's type.
    ASSERT_FALSE(current_family.empty()) << "sample before any TYPE: " << line;
    const std::string& type = family_type[current_family];
    if (type == "counter") {
      ASSERT_EQ(name, current_family + "_total") << line;
    } else if (type == "gauge") {
      ASSERT_EQ(name, current_family) << line;
    } else {  // histogram
      ASSERT_TRUE(name == current_family + "_bucket" ||
                  name == current_family + "_count" ||
                  name == current_family + "_sum")
          << line;
    }
  }
  EXPECT_TRUE(saw_eof) << "missing terminal # EOF";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) out.push_back(line);
  return out;
}

TEST(OpenMetricsTest, FullSnapshotPassesGrammar) {
  ValidateOpenMetrics(TelemetryToOpenMetrics(MakeSnapshot()));
}

TEST(OpenMetricsTest, EmptySnapshotPassesGrammarAndKeepsCoreFamilies) {
  const std::string text = TelemetryToOpenMetrics(TelemetrySnapshot());
  ValidateOpenMetrics(text);
  // Engine-level families and the shedding flag survive an empty snapshot.
  EXPECT_NE(text.find("streamagg_records_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("streamagg_shedding_enabled 0\n"), std::string::npos);
  // Disabled controller exports nothing beyond the flag.
  EXPECT_EQ(text.find("streamagg_shedding_target_fraction"),
            std::string::npos);
}

TEST(OpenMetricsTest, ExportsNoSortDrainFamilies) {
  // The retired sort-drain probe mode leaves no family behind: no per-table
  // probe-mode gauge or sort tallies, and no drain histogram. Nor does the
  // retired ingest rebalance leave its shedding counter.
  const std::string text = TelemetryToOpenMetrics(MakeSnapshot());
  ValidateOpenMetrics(text);
  for (const std::string& line : Lines(text)) {
    EXPECT_EQ(line.find("streamagg_table_probe_mode"), std::string::npos)
        << line;
    EXPECT_EQ(line.find("streamagg_table_sort_"), std::string::npos) << line;
    EXPECT_EQ(line.find("streamagg_sort_"), std::string::npos) << line;
    EXPECT_EQ(line.find("streamagg_shedding_rebalances"), std::string::npos)
        << line;
  }
}

TEST(OpenMetricsTest, CounterValuesAreBitExact) {
  const std::string text = TelemetryToOpenMetrics(MakeSnapshot());
  // (1 << 63) + 12345: exact only if rendered through uint64 formatting.
  EXPECT_NE(text.find("streamagg_records_total 9223372036854788153\n"),
            std::string::npos);
  EXPECT_NE(text.find("streamagg_epochs_flushed_total 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("streamagg_shed_probes_total 4500\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("streamagg_table_probes_total{relation=\"AB\"} 100000\n"),
      std::string::npos);
  EXPECT_NE(text.find("streamagg_shard_records_total{shard=\"0\"} 1000\n"),
            std::string::npos);
  EXPECT_NE(text.find("streamagg_shard_records_total{shard=\"1\"} 997\n"),
            std::string::npos);
  EXPECT_EQ(text.find("streamagg_producer"), std::string::npos);
  EXPECT_NE(text.find("streamagg_hfta_groups{query=\"1\"} 456789\n"),
            std::string::npos);
}

TEST(OpenMetricsTest, PredictedCollisionRateOmittedWithoutPrediction) {
  const std::string text = TelemetryToOpenMetrics(MakeSnapshot());
  EXPECT_NE(text.find("streamagg_table_collision_rate"
                      "{relation=\"AB\",kind=\"observed\"} "),
            std::string::npos);
  EXPECT_NE(text.find("streamagg_table_collision_rate"
                      "{relation=\"AB\",kind=\"predicted\"} "),
            std::string::npos);
  EXPECT_NE(text.find("{relation=\"BC\",kind=\"observed\"} "),
            std::string::npos);
  // BC was never priced by the planner: no predicted sample.
  EXPECT_EQ(text.find("{relation=\"BC\",kind=\"predicted\"}"),
            std::string::npos);
}

TEST(OpenMetricsTest, LabelValuesAreEscaped) {
  const std::string text = TelemetryToOpenMetrics(MakeSnapshot());
  // Relation C"D\E must appear with the quote and backslash escaped.
  EXPECT_NE(text.find("streamagg_shedding_relation_shed_records_total"
                      "{relation=\"C\\\"D\\\\E\"} 15000\n"),
            std::string::npos);
}

TEST(OpenMetricsTest, HistogramBucketsAreCumulativeAndBounded) {
  const TelemetrySnapshot snap = MakeSnapshot();
  const std::string text = TelemetryToOpenMetrics(snap);

  // batch_records saw {64, 3}: log2 buckets up to le="127", then the
  // mandatory +Inf bucket equal to the count.
  std::vector<std::string> batch;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("streamagg_batch_records", 0) == 0) batch.push_back(line);
  }
  const std::vector<std::string> expected = {
      "streamagg_batch_records_bucket{le=\"0\"} 0",
      "streamagg_batch_records_bucket{le=\"1\"} 0",
      "streamagg_batch_records_bucket{le=\"3\"} 1",
      "streamagg_batch_records_bucket{le=\"7\"} 1",
      "streamagg_batch_records_bucket{le=\"15\"} 1",
      "streamagg_batch_records_bucket{le=\"31\"} 1",
      "streamagg_batch_records_bucket{le=\"63\"} 1",
      "streamagg_batch_records_bucket{le=\"127\"} 2",
      "streamagg_batch_records_bucket{le=\"+Inf\"} 2",
      "streamagg_batch_records_count 2",
      "streamagg_batch_records_sum 67",
  };
  EXPECT_EQ(batch, expected);

  // A histogram that never recorded still exposes the +Inf bucket, count
  // and sum (all zero) — scrapers reject bucketless histograms.
  EXPECT_NE(text.find("streamagg_flush_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("streamagg_flush_ns_count 0\n"), std::string::npos);

  // epoch_gap_ns saw one zero: bucket 0 holds it.
  EXPECT_NE(text.find("streamagg_epoch_gap_ns_bucket{le=\"0\"} 1\n"),
            std::string::npos);
}

TEST(OpenMetricsTest, ContentTypeAdvertisesOpenMetrics) {
  EXPECT_EQ(std::string(OpenMetricsContentType()),
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
}

}  // namespace
}  // namespace streamagg
