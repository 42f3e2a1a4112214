// The benchmark's own arithmetic, kept apart from perfbench.cc so that
// selftest.cc can check it on hand-made inputs: percentiles and the tail
// rule, the calibration kernel and its scaling, span self time, the
// reference aggregation, and the exact-count digest.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/record.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (mean of the two middle values for even sizes); 0
/// when empty.
double Median(std::vector<double> values);

/// The highest nearest-rank percentile that still has at least
/// `min_beyond` samples above it. With fewer than min_beyond + 1 samples
/// no such percentile exists: the maximum is reported with beyond = 0.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< e.g. 96.9 for 10 samples beyond 320.
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> values, size_t min_beyond = 10);

/// The tail rule applied to each run of `window` consecutive samples (in
/// time order; a leftover shorter run is not used), then the median over
/// those windows: one slow stretch of host time moves one window, not the
/// result. With fewer than `window` samples, TailPercentile of them all.
/// `samples` reports every sample taken, `percentile` the per-window one.
Tail WindowedTail(const std::vector<double>& values, size_t window,
                  size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Calibration: a fixed memory-bound kernel whose time tracks how fast the
// host runs right now. Time metrics are multiplied by
// kReferenceCalibrationNs / (this run's calibration time), rates divided.

/// Calibration time on the reference host (4-vCPU KVM guest, GCC 12 -O3):
/// the median of CalibrationKernel over quiet runs.
inline constexpr double kReferenceCalibrationNs = 1.6e6;

/// Runs the kernel once and returns its wall time in nanoseconds: random
/// read-modify-write over an L2-sized table mixed with inserts into a
/// fresh node-based hash map. Uses no library code.
double CalibrationKernel();

/// kReferenceCalibrationNs / median(calibration_ns): above 1 when the host
/// currently runs faster than the reference. 1 when no sample was taken.
double SpeedFactor(const std::vector<double>& calibration_ns);

/// A time measured at `speed_factor` expressed at reference speed.
inline double ScaleTime(double raw, double speed_factor) {
  return raw * speed_factor;
}
/// A rate measured at `speed_factor` expressed at reference speed.
inline double ScaleRate(double raw, double speed_factor) {
  return raw / speed_factor;
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written once as Chrome trace-event JSON.

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;     ///< Index of the enclosing span, -1 for roots.
  uint64_t epoch = 0;  ///< The shared request id: the stream epoch.
  double duration_ns() const {
    return static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  int Begin(const char* name, uint64_t epoch, int parent);
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// A span's duration minus the part of its interval that its children
/// cover (overlapping children are counted once).
double SelfTimeNs(const std::vector<Span>& spans, int index);

/// {"traceEvents": [...]} with complete ("X") events in microseconds since
/// `origin_ns`; args carry the span id, parent id, epoch and self time.
std::string ToChromeTraceJson(const std::vector<Span>& spans,
                              uint64_t origin_ns);

// ---------------------------------------------------------------------------
// Reference aggregation: count(*) per group, computed without the engine.

/// A group: the values of the grouping attributes in increasing attribute
/// order, like the engine's GroupKey.
struct RefKey {
  std::array<uint32_t, 4> values{};
  uint8_t size = 0;
  bool operator==(const RefKey& o) const {
    return size == o.size && values == o.values;
  }
};
struct RefKeyHash {
  size_t operator()(const RefKey& k) const {
    uint64_t h = 0x9ae16a3b2f90404fULL ^ k.size;
    for (uint8_t i = 0; i < k.size; ++i) {
      h = (h ^ k.values[i]) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};
using RefGroups = std::unordered_map<RefKey, uint64_t, RefKeyHash>;

/// Adds records [begin, end) to `out`, grouped by the attribute indices
/// `attrs` (ascending).
void ReferenceAggregate(const std::vector<streamagg::Record>& records,
                        size_t begin, size_t end,
                        const std::vector<int>& attrs, RefGroups* out);

// ---------------------------------------------------------------------------
// Exact-count digest: FNV-1a over integers and strings.

class Digest {
 public:
  void Add(uint64_t v);
  void Add(const std::string& s);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------

/// Heap bytes in use right now (glibc mallinfo2: arena + mmapped chunks,
/// summed over every arena).
double HeapInUseBytes();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
