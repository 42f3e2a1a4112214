#ifndef STREAMAGG_STREAM_TRACE_STATS_H_
#define STREAMAGG_STREAM_TRACE_STATS_H_

#include <cstdint>
#include <unordered_map>

#include "stream/trace.h"

namespace streamagg {

/// Data statistics the optimizer consumes: the number of groups `g` of any
/// attribute subset, and the average flow length `l_a` (paper Sections 3-5
/// take both as inputs to the collision-rate and cost models). Results are
/// computed lazily from the trace and cached. Not thread-safe.
class TraceStats {
 public:
  /// Does not take ownership; `trace` must outlive this object.
  explicit TraceStats(const Trace* trace) : trace_(trace) {}

  const Trace& trace() const { return *trace_; }
  size_t num_records() const { return trace_->size(); }

  /// Number of distinct groups of the projection onto `set` (exact scan of
  /// the trace, cached). The empty set has one group.
  uint64_t GroupCount(AttributeSet set);

  /// Estimate of the average flow length l_a for the projection onto `set`
  /// (paper Section 4.3). When the trace carries flow ids the value is
  /// exact (records / flows). Otherwise it is measured the way the paper
  /// prescribes: the trace is run through a single-entry-per-bucket hash
  /// table and the empirical collision rate x_emp is inverted through the
  /// random-data model, l_a ~= x_random(g, b) / x_emp, clamped to
  /// [1, n/g]. Cached.
  double AvgFlowLength(AttributeSet set);

  /// Convenience for fully random data: true when every estimated flow
  /// length is ~1 (no clusteredness).
  bool LooksUnclustered();

 private:
  const Trace* trace_;
  std::unordered_map<uint32_t, uint64_t> group_count_cache_;
  std::unordered_map<uint32_t, double> flow_length_cache_;
  /// Distinct flow ids of a trace that carries them; 0 until first needed.
  uint64_t num_flows_ = 0;
};

}  // namespace streamagg

#endif  // STREAMAGG_STREAM_TRACE_STATS_H_
