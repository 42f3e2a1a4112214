// Telemetry exports pinned from outside: golden JSON lines, OpenMetrics
// expositions and ToTable renderings of hand-built snapshots, and a check
// that docs/observability.md §5 names exactly what the exporters emit.
//
// JSON lines and tables must match their goldens byte for byte. An
// exposition must keep every family block byte for byte, in any block
// order. Regenerate deliberately with STREAMAGG_UPDATE_GOLDENS=1 after
// reviewing the new rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/openmetrics.h"
#include "obs/telemetry.h"
#include "telemetry_snapshots.h"

namespace streamagg {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) out.push_back(line);
  return out;
}

/// Every object key of a JSON text by path ("tables[].relation"), with the
/// raw text of each value it takes. A minimal scan over well-formed JSON;
/// callers parse the text with JsonValue::Parse first.
using KeyValues = std::map<std::string, std::vector<std::string>>;

void SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
}

void SkipString(const std::string& s, size_t* i) {
  for (++*i; *i < s.size() && s[*i] != '"'; ++*i) {
    if (s[*i] == '\\') ++*i;
  }
  ++*i;
}

void ScanValue(const std::string& s, size_t* i, const std::string& path,
               KeyValues* out) {
  SkipSpace(s, i);
  if (*i >= s.size()) return;
  const char open = s[*i];
  if (open == '"') {
    SkipString(s, i);
    return;
  }
  if (open != '{' && open != '[') {
    while (*i < s.size() && std::strchr(",]} \t\r\n", s[*i]) == nullptr) ++*i;
    return;
  }
  const char close = open == '{' ? '}' : ']';
  ++*i;
  SkipSpace(s, i);
  while (*i < s.size() && s[*i] != close) {
    if (open == '[') {
      ScanValue(s, i, path + "[]", out);
    } else {
      const size_t key_start = *i;
      SkipString(s, i);
      const std::string key = s.substr(key_start + 1, *i - key_start - 2);
      const std::string child = path.empty() ? key : path + "." + key;
      SkipSpace(s, i);
      ++*i;  // ':'
      SkipSpace(s, i);
      const size_t value_start = *i;
      ScanValue(s, i, child, out);
      (*out)[child].push_back(s.substr(value_start, *i - value_start));
    }
    SkipSpace(s, i);
    if (*i < s.size() && s[*i] == ',') ++*i;
    SkipSpace(s, i);
  }
  ++*i;
}

KeyValues Keys(const std::string& json) {
  EXPECT_TRUE(JsonValue::Parse(json).ok()) << json;
  KeyValues out;
  size_t i = 0;
  ScanValue(json, &i, "", &out);
  return out;
}

std::set<std::string> KeyNames(const KeyValues& keys) {
  std::set<std::string> out;
  for (const auto& [key, values] : keys) out.insert(key);
  return out;
}

// ---------------------------------------------------------------------------
// Goldens

/// No overload controller and no model predictions: the shedding section
/// and every predicted collision-rate sample drop out.
TelemetrySnapshot SheddingOffSnapshot() {
  TelemetrySnapshot snap = HandCraftedSnapshot();
  snap.shedding = SheddingTelemetry{};
  for (TableTelemetry& t : snap.tables) {
    t.predicted_collision_rate = TableTelemetry::kNoPrediction;
  }
  return snap;
}

TelemetrySnapshot DefaultSnapshot() { return TelemetrySnapshot{}; }

/// Every merge rule at once: tables, shedding relations and hfta_groups
/// (two entries into three) merge by index, rates recompute, event and
/// ingest lists concatenate.
TelemetrySnapshot MergedSnapshot() {
  TelemetrySnapshot snap = MakeSnapshot();
  snap.MergeFrom(HandCraftedSnapshot());
  return snap;
}

struct GoldenCase {
  const char* name;
  TelemetrySnapshot (*make)();
};

constexpr GoldenCase kGoldenCases[] = {
    {"hand_crafted", HandCraftedSnapshot},
    {"openmetrics_snapshot", MakeSnapshot},
    {"default", DefaultSnapshot},
    {"shedding_off", SheddingOffSnapshot},
    {"merged", MergedSnapshot},
};

/// An exposition's family blocks (each from its `# TYPE` line up to the
/// next), sorted, so two expositions compare equal iff they differ at most
/// in the order of whole blocks.
std::vector<std::string> FamilyBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  for (const std::string& line : Lines(text)) {
    if (blocks.empty() || line.rfind("# TYPE ", 0) == 0 || line == "# EOF") {
      blocks.emplace_back();
    }
    blocks.back() += line + "\n";
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

void CheckGolden(const std::string& file, const std::string& got) {
  SCOPED_TRACE(file);
  const std::string path =
      std::string(STREAMAGG_TELEMETRY_GOLDEN_DIR) + "/" + file;
  if (std::getenv("STREAMAGG_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with STREAMAGG_UPDATE_GOLDENS=1)";
  std::ostringstream want;
  want << in.rdbuf();
  if (file.ends_with(".om")) {
    ASSERT_TRUE(got.ends_with("\n# EOF\n")) << got;
    EXPECT_EQ(FamilyBlocks(got), FamilyBlocks(want.str()))
        << "family drift in " << path
        << " (review, then regenerate with STREAMAGG_UPDATE_GOLDENS=1)";
  } else {
    EXPECT_EQ(got, want.str())
        << "golden drift in " << path
        << " (review, then regenerate with STREAMAGG_UPDATE_GOLDENS=1)";
  }
}

TEST(TelemetryGoldenTest, RenderingsMatchGoldens) {
  for (const GoldenCase& c : kGoldenCases) {
    const TelemetrySnapshot snap = c.make();
    const std::string name = c.name;
    CheckGolden(name + ".json", snap.ToJsonLine() + "\n");
    CheckGolden(name + ".om", TelemetryToOpenMetrics(snap));
    CheckGolden(name + ".txt", snap.ToTable());
  }
}

TEST(TelemetryGoldenTest, GoldensSetEveryFieldOffItsDefault) {
  // The default value of every key: the default snapshot's, and below the
  // arrays and the shedding section, a default element's.
  KeyValues defaults = Keys(TelemetrySnapshot{}.ToJsonLine());
  auto elements = TelemetrySnapshot::FromJsonLine(
      R"({"tables":[{}],"shards":[{}],"replans":[{}],)"
      R"("query_churn":[{}],"shedding":{"enabled":true,"relations":[{}]}})");
  ASSERT_TRUE(elements.ok()) << elements.status().ToString();
  for (auto& [key, values] : Keys(elements->ToJsonLine())) {
    defaults.emplace(key, values);
  }
  // The section renders only while enabled; its default is disabled.
  defaults["shedding.enabled"] = {"false"};

  KeyValues seen;
  for (const GoldenCase& c : kGoldenCases) {
    for (auto& [key, values] : Keys(c.make().ToJsonLine())) {
      seen[key].insert(seen[key].end(), values.begin(), values.end());
    }
  }
  EXPECT_EQ(KeyNames(seen), KeyNames(defaults));
  for (const auto& [key, values] : defaults) {
    // A histogram is one field: its count, sum and buckets are not.
    const std::string parent = key.substr(0, key.rfind('.'));
    if (defaults.count(parent + ".count") != 0 &&
        defaults.count(parent + ".buckets") != 0) {
      continue;
    }
    const std::vector<std::string>& golden = seen[key];
    EXPECT_TRUE(std::any_of(golden.begin(), golden.end(),
                            [&](const std::string& v) {
                              return v != values.front();
                            }))
        << key << " holds its default " << values.front()
        << " in every golden";
  }
}

// ---------------------------------------------------------------------------
// docs/observability.md §5 against the exporters

std::vector<std::string> DocsSection(const std::string& heading) {
  const std::string path =
      std::string(STREAMAGG_DOCS_DIR) + "/observability.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> section;
  bool inside = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) inside = line.rfind(heading, 0) == 0;
    if (inside) section.push_back(line);
  }
  EXPECT_FALSE(section.empty()) << heading;
  return section;
}

TEST(TelemetryDocsTest, OpenMetricsTableNamesEveryFamily) {
  // Rows look like "| `streamagg_table_buckets`, `_occupied` | labels |
  // JSON field |". A name starting with `_` replaces the last word of the
  // row's first name, not counting a counter's `_total`.
  std::set<std::string> documented;
  for (const std::string& line : DocsSection("## 5.")) {
    if (line.rfind("| `streamagg_", 0) != 0) continue;
    const std::string cell = line.substr(0, line.find(" | "));
    std::string first;
    for (size_t at = cell.find('`'); at != std::string::npos;) {
      const size_t end = cell.find('`', at + 1);
      ASSERT_NE(end, std::string::npos) << line;
      std::string name = cell.substr(at + 1, end - at - 1);
      if (first.empty()) {
        first = name;
      } else if (name.front() == '_') {
        std::string stem = first;
        if (stem.ends_with("_total")) stem.resize(stem.size() - 6);
        name = stem.substr(0, stem.rfind('_')) + name;
      }
      EXPECT_TRUE(documented.insert(name).second) << "named twice: " << name;
      at = cell.find('`', end + 1);
    }
  }
  // Sample names as a scraper sees them: counters carry `_total`.
  std::set<std::string> exported;
  for (const std::string& line :
       Lines(TelemetryToOpenMetrics(HandCraftedSnapshot()))) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::istringstream meta(line.substr(7));
    std::string name, type;
    meta >> name >> type;
    exported.insert(type == "counter" ? name + "_total" : name);
  }
  EXPECT_EQ(documented, exported);
}

TEST(TelemetryDocsTest, JsonExampleNamesEveryKey) {
  std::string example;
  bool inside = false;
  for (const std::string& line : DocsSection("## 5.")) {
    if (line == "```json") {
      inside = true;
    } else if (inside && line == "```") {
      break;
    } else if (inside) {
      example += line + "\n";
    }
  }
  ASSERT_TRUE(JsonValue::Parse(example).ok()) << example;
  EXPECT_EQ(KeyNames(Keys(example)),
            KeyNames(Keys(HandCraftedSnapshot().ToJsonLine())));
}

}  // namespace
}  // namespace streamagg
