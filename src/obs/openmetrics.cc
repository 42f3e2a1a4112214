#include "obs/openmetrics.h"

#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry_fields.h"

namespace streamagg {
namespace {

namespace tf = telemetry_fields;

std::string FormatUint(uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, v);
  return buffer;
}

std::string FormatDouble(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Escapes a label value per the OpenMetrics ABNF: backslash, double quote,
/// and line feed must be backslash-escaped.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One sample of a family: its rendered `{label="value",...}` suffix (empty
/// for unlabeled samples) and value.
struct Sample {
  std::string labels;
  std::string value;
};

/// One metric family, collected from the schema before it is rendered.
struct Family {
  std::string name;
  tf::Export kind;
  const char* help;
  std::vector<Sample> samples;
  const LogHistogram* histogram = nullptr;
};

/// Appends `name="value"` to a comma-joined label list.
std::string AddLabel(const std::string& labels, const char* name,
                     const std::string& value) {
  return (labels.empty() ? "" : labels + ",") + name + "=\"" +
         EscapeLabelValue(value) + "\"";
}

template <typename T>
std::string FormatValue(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return FormatDouble(v);
  } else {
    return FormatUint(static_cast<uint64_t>(v));
  }
}

Family& FamilyNamed(std::vector<Family>* families, const std::string& name,
                    tf::Export kind, const char* help) {
  for (Family& family : *families) {
    if (family.name == name) return family;
  }
  families->push_back({name, kind, help, {}});
  return families->back();
}

/// Adds the samples of `object`'s exported fields to their families
/// (`prefix` + name), object by object, so that fields sharing a family
/// interleave per object. Nested structs and list elements recurse with
/// their prefix and labels.
template <typename S>
void CollectFamilies(const S& object, const std::string& prefix,
                     std::string labels, std::vector<Family>* families) {
  const bool open = tf::GateOpen(object);
  tf::ForEachField(tf::Schema<S>::kFields, [&](const auto& f) {
    using T = typename std::decay_t<decltype(f)>::Type;
    if (f.metric == tf::kNone || !(open || f.gate)) return;
    const T& v = object.*f.member;
    const std::string name = prefix + (f.name != nullptr ? f.name : f.key);
    if constexpr (std::is_same_v<T, std::string>) {
      if (f.metric == tf::kLabel) labels = AddLabel(labels, f.key, v);
    } else if constexpr (tf::HasFields<T>) {
      CollectFamilies(v, name, labels, families);
    } else if constexpr (tf::ListOfStructs<T>) {
      for (size_t i = 0; i < v.size(); ++i) {
        CollectFamilies(v[i], name,
                        f.label != nullptr
                            ? AddLabel(labels, f.label, std::to_string(i))
                            : labels,
                        families);
      }
    } else if constexpr (std::is_arithmetic_v<T> || tf::kIsList<T> ||
                         std::is_same_v<T, LogHistogram>) {
      Family& family = FamilyNamed(families, name, f.metric, f.help);
      auto braced = [](const std::string& l) {
        return l.empty() ? l : "{" + l + "}";
      };
      if constexpr (std::is_same_v<T, LogHistogram>) {
        family.histogram = &v;
      } else if constexpr (tf::kIsList<T>) {
        for (size_t i = 0; i < v.size(); ++i) {
          family.samples.push_back(
              {braced(AddLabel(labels, f.label, std::to_string(i))),
               FormatValue(v[i])});
        }
      } else if (f.present == nullptr || (object.*f.present)()) {
        family.samples.push_back(
            {braced(f.label_value != nullptr
                        ? AddLabel(labels, f.label, f.label_value)
                        : labels),
             FormatValue(v)});
      }
    }
  });
}

void AppendLine(std::string* out,
                std::initializer_list<std::string_view> parts) {
  for (std::string_view part : parts) out->append(part);
  *out += '\n';
}

/// Emits one family: TYPE/HELP metadata followed by all its samples.
/// OpenMetrics requires the samples of a family to be contiguous, counters
/// to expose a `_total`-suffixed sample name, and metadata to precede the
/// samples — this helper is the single place those rules are enforced. A
/// gauge or counter without samples emits nothing. A LogHistogram becomes
/// cumulative `_bucket{le="..."}` samples at the log2 bucket upper bounds
/// (only up to the highest occupied bucket — the tail adds no
/// information), a mandatory `le="+Inf"` bucket equal to the total count,
/// then `_count` and `_sum`.
void EmitFamily(std::string* out, const Family& family) {
  const std::string& name = family.name;
  const bool counter = family.kind == tf::kCounter;
  const LogHistogram* h = family.histogram;
  if (h == nullptr && family.samples.empty()) return;
  const char* type =
      h != nullptr ? " histogram" : (counter ? " counter" : " gauge");
  AppendLine(out, {"# TYPE ", name, type});
  AppendLine(out, {"# HELP ", name, " ", family.help});
  for (const Sample& s : family.samples) {
    AppendLine(out, {name, counter ? "_total" : "", s.labels, " ", s.value});
  }
  if (h == nullptr) return;
  int highest = -1;
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    if (h->bucket_count(b) > 0) highest = b;
  }
  uint64_t cumulative = 0;
  for (int b = 0; b <= highest; ++b) {
    cumulative += h->bucket_count(b);
    AppendLine(out, {name, "_bucket{le=\"",
                     FormatUint(LogHistogram::BucketUpperBound(b)), "\"} ",
                     FormatUint(cumulative)});
  }
  AppendLine(out, {name, "_bucket{le=\"+Inf\"} ", FormatUint(h->count())});
  AppendLine(out, {name, "_count ", FormatUint(h->count())});
  AppendLine(out, {name, "_sum ", FormatUint(h->sum())});
}

}  // namespace

std::string TelemetryToOpenMetrics(const TelemetrySnapshot& snapshot) {
  std::vector<Family> families;
  CollectFamilies(snapshot, "streamagg_", "", &families);
  std::string out;
  out.reserve(8192);
  for (const Family& family : families) EmitFamily(&out, family);
  out += "# EOF\n";
  return out;
}

}  // namespace streamagg
