#include "bench_util.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= min_beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Rank r (1-based) leaves n - r samples above it; the largest rank with
  // n - r >= min_beyond is n - min_beyond.
  const size_t rank = n - min_beyond;
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = min_beyond;
  return tail;
}

Tail WindowedTail(const std::vector<double>& values, size_t window,
                  size_t min_beyond) {
  if (values.size() < window) return TailPercentile(values, min_beyond);
  Tail tail;
  std::vector<double> per_window;
  for (size_t from = 0; from + window <= values.size(); from += window) {
    tail = TailPercentile(
        std::vector<double>(values.begin() + static_cast<long>(from),
                            values.begin() + static_cast<long>(from + window)),
        min_beyond);
    per_window.push_back(tail.value);
  }
  tail.value = Median(per_window);
  tail.samples = values.size();
  return tail;
}

double CalibrationKernel() {
  // 512 KiB: beyond L1, within the L2 of the hosts this runs on.
  constexpr size_t kWords = 64 * 1024;
  constexpr int kUpdates = 200000;
  constexpr int kInserts = 10000;
  static std::vector<uint64_t> table(kWords, 1);
  const uint64_t start = NowNs();
  uint64_t x = 0x2545f4914f6cdd1dULL;
  uint64_t sum = 0;
  for (int i = 0; i < kUpdates; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (kWords - 1)];
    slot = slot * 0x9e3779b97f4a7c15ULL + x;
    sum += slot >> 61;
  }
  std::unordered_map<uint64_t, uint64_t> fresh;
  for (int i = 0; i < kInserts; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    fresh[x] = sum + static_cast<uint64_t>(i);
  }
  sum += fresh.size();
  const uint64_t end = NowNs();
  // Keep the work observable so it cannot be optimized away.
  table[sum & (kWords - 1)] ^= sum;
  return static_cast<double>(end - start);
}

double SpeedFactor(const std::vector<double>& calibration_ns) {
  const double median = Median(calibration_ns);
  return median > 0.0 ? kReferenceCalibrationNs / median : 1.0;
}

int Tracer::Begin(const char* name, uint64_t epoch, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.epoch = epoch;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double SelfTimeNs(const std::vector<Span>& spans, int index) {
  const Span& self = spans[static_cast<size_t>(index)];
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != index) continue;
    const uint64_t a = std::max(s.start_ns, self.start_ns);
    const uint64_t b = std::min(s.end_ns, self.end_ns);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  uint64_t children = 0;
  uint64_t reach = self.start_ns;
  for (const auto& [a, b] : covered) {
    const uint64_t from = std::max(a, reach);
    if (b > from) children += b - from;
    reach = std::max(reach, b);
  }
  return self.duration_ns() - static_cast<double>(children);
}

std::string ToChromeTraceJson(const std::vector<Span>& spans,
                              uint64_t origin_ns) {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
        "\"parent\":%d,\"epoch\":%" PRIu64 ",\"self_us\":%.3f}}",
        i == 0 ? "" : ",", s.name.c_str(),
        static_cast<double>(s.start_ns - origin_ns) / 1e3,
        s.duration_ns() / 1e3, i, s.parent, s.epoch,
        SelfTimeNs(spans, static_cast<int>(i)) / 1e3);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void ReferenceAggregate(const std::vector<streamagg::Record>& records,
                        size_t begin, size_t end,
                        const std::vector<int>& attrs, RefGroups* out) {
  RefKey key;
  key.size = static_cast<uint8_t>(attrs.size());
  for (size_t i = begin; i < end; ++i) {
    for (size_t a = 0; a < attrs.size(); ++a) {
      key.values[a] = records[i].values[static_cast<size_t>(attrs[a])];
    }
    ++(*out)[key];
  }
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

}  // namespace perfbench
