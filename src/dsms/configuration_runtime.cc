#include "dsms/configuration_runtime.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.h"
#include "util/simd_hash.h"

namespace streamagg {

Result<std::unique_ptr<ConfigurationRuntime>> ConfigurationRuntime::Make(
    const Schema& schema, std::vector<RuntimeRelationSpec> specs,
    double epoch_seconds, Hfta* results, uint64_t seed) {
  if (specs.empty()) {
    return Status::InvalidArgument("configuration has no relations");
  }
  int num_queries = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const RuntimeRelationSpec& s = specs[i];
    if (s.attrs.empty()) {
      return Status::InvalidArgument("relation with empty attribute set");
    }
    if (!s.attrs.IsSubsetOf(schema.AllAttributes())) {
      return Status::InvalidArgument("relation attributes outside schema");
    }
    if (s.num_buckets < 1) {
      return Status::InvalidArgument("relation with zero buckets: " +
                                     schema.FormatAttributeSet(s.attrs));
    }
    if (s.parent >= static_cast<int>(i)) {
      return Status::InvalidArgument(
          "specs must be ordered parents before children");
    }
    if (s.parent >= 0 &&
        !s.attrs.IsProperSubsetOf(specs[s.parent].attrs)) {
      return Status::InvalidArgument(
          "child attributes must be a proper subset of the parent's");
    }
    if (s.metrics.size() > static_cast<size_t>(kMaxMetrics)) {
      return Status::InvalidArgument("too many metrics for relation " +
                                     schema.FormatAttributeSet(s.attrs));
    }
    for (const MetricSpec& m : s.metrics) {
      if (m.attr >= schema.num_attributes()) {
        return Status::InvalidArgument("metric attribute outside schema");
      }
    }
    if (s.parent >= 0 && !MetricsSubset(s.metrics, specs[s.parent].metrics)) {
      return Status::InvalidArgument(
          "child metrics must be a subset of the parent's (" +
          schema.FormatAttributeSet(s.attrs) + ")");
    }
    if (s.is_query) {
      if (s.query_index < 0) {
        return Status::InvalidArgument("query without query_index");
      }
      if (!MetricsSubset(s.query_metrics, s.metrics)) {
        return Status::InvalidArgument(
            "query metrics must be maintained by the relation (" +
            schema.FormatAttributeSet(s.attrs) + ")");
      }
      ++num_queries;
    } else if (s.query_index >= 0) {
      return Status::InvalidArgument("phantom with query_index");
    }
  }
  // query_index values must be exactly 0..num_queries-1, each once. Query
  // i's states follow layout[i], and so must the HFTA they go to: its
  // merges are positional.
  std::vector<bool> seen(static_cast<size_t>(num_queries), false);
  std::vector<std::vector<MetricSpec>> layout(seen.size());
  for (const auto& s : specs) {
    if (!s.is_query) continue;
    if (s.query_index >= num_queries || seen[s.query_index]) {
      return Status::InvalidArgument("query_index values must be a permutation");
    }
    seen[s.query_index] = true;
    layout[s.query_index] = s.query_metrics;
  }
  if (results != nullptr && results->layout() != layout) {
    return Status::InvalidArgument(
        "results HFTA must hold " + std::to_string(num_queries) +
        " queries laid out by their specs' query_metrics");
  }
  return std::unique_ptr<ConfigurationRuntime>(new ConfigurationRuntime(
      schema, std::move(specs), epoch_seconds, results, seed,
      std::move(layout)));
}

ConfigurationRuntime::ConfigurationRuntime(
    const Schema& schema, std::vector<RuntimeRelationSpec> specs,
    double epoch_seconds, Hfta* results, uint64_t seed,
    std::vector<std::vector<MetricSpec>> layout)
    : schema_(schema),
      specs_(std::move(specs)),
      children_(specs_.size()),
      epoch_seconds_(epoch_seconds) {
  tables_.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    tables_.push_back(std::make_unique<LftaHashTable>(
        specs_[i].num_buckets, specs_[i].attrs.Count(), specs_[i].metrics,
        seed + 0x9e3779b97f4a7c15ULL * (i + 1)));
    if (specs_[i].parent >= 0) {
      children_[specs_[i].parent].push_back(static_cast<int>(i));
    } else {
      raw_relations_.push_back(static_cast<int>(i));
    }
  }
  if (results == nullptr) {
    owned_hfta_ = std::make_unique<Hfta>(std::move(layout));
    results = owned_hfta_.get();
  }
  hfta_ = results;
  telemetry_.relations.resize(specs_.size());
  shed_accum_.resize(raw_relations_.size(), 0);
  shed_counts_.resize(raw_relations_.size(), 0);
  // Projection plans for the batched hot path: one per raw relation
  // (record -> key) and one per feeding edge (parent key -> child key).
  raw_plans_.reserve(raw_relations_.size());
  for (int raw : raw_relations_) {
    raw_plans_.push_back(ProjectionPlan::ForRecord(specs_[raw].attrs));
  }
  child_plans_.resize(specs_.size());
  for (size_t rel = 0; rel < specs_.size(); ++rel) {
    child_plans_[rel].reserve(children_[rel].size());
    for (int child : children_[rel]) {
      child_plans_[rel].push_back(
          ProjectionPlan::ForKey(specs_[rel].attrs, specs_[child].attrs));
    }
  }
}

Status ConfigurationRuntime::SetShedPlan(const ShedPlan& plan) {
  if (!plan.numerators.empty() &&
      plan.numerators.size() != raw_relations_.size()) {
    return Status::InvalidArgument(
        "ShedPlan::numerators must be empty or have one entry per raw "
        "relation (got " + std::to_string(plan.numerators.size()) +
        ", need " + std::to_string(raw_relations_.size()) + ")");
  }
  for (uint32_t n : plan.numerators) {
    if (n > ShedPlan::kDenominator) {
      return Status::InvalidArgument(
          "ShedPlan numerator must be <= " +
          std::to_string(ShedPlan::kDenominator) + " (got " +
          std::to_string(n) + ")");
    }
  }
  shed_plan_ = plan;
  return Status::OK();
}

template <bool kFlushing>
void ConfigurationRuntime::ProbeRelation(int rel, const GroupKey& key,
                                         const AggregateState& state) {
  if constexpr (kFlushing) {
    ++counters_.flush_probes;
  } else {
    ++counters_.intra_probes;
  }
  GroupKey evicted_key;
  AggregateState evicted_state;
  const ProbeOutcome outcome =
      tables_[rel]->ProbeState(key, state, &evicted_key, &evicted_state);
  if (outcome == ProbeOutcome::kCollision) {
    PropagateEviction<kFlushing>(rel, evicted_key, evicted_state);
  }
}

template <bool kFlushing>
void ConfigurationRuntime::PropagateEviction(int rel, const GroupKey& key,
                                             const AggregateState& state) {
  const RuntimeRelationSpec& spec = specs_[rel];
#if STREAMAGG_TELEMETRY_LEVEL >= 1
  // Eviction-reason tallies ride the (already expensive) collision path:
  // one relaxed load and a couple of adds per propagated entry.
  if (telemetry_level_.load(std::memory_order_relaxed) !=
      TelemetryLevel::kOff) {
    RelationTelemetry& rt = telemetry_.relations[static_cast<size_t>(rel)];
    if constexpr (kFlushing) {
      ++rt.flush_evictions;
    } else {
      ++rt.intra_evictions;
    }
    if (spec.is_query) ++rt.hfta_transfers;
  }
#endif
  if (spec.is_query) {
    hfta_->Add(spec.query_index, current_epoch_, key,
               state.Project(spec.metrics, spec.query_metrics));
    if constexpr (kFlushing) {
      ++counters_.flush_transfers;
    } else {
      ++counters_.intra_transfers;
    }
  }
  const std::vector<int>& children = children_[rel];
  for (size_t c = 0; c < children.size(); ++c) {
    const int child = children[c];
    ProbeRelation<kFlushing>(
        child, child_plans_[rel][c].Apply(key),
        state.Project(spec.metrics, specs_[child].metrics));
  }
}

void ConfigurationRuntime::ProbeChunkHash(
    int rel, LftaHashTable& table, size_t n, std::span<const Record> records,
    const uint32_t* rec_idx, const std::vector<MetricSpec>& metrics) {
  GroupKey* const keys = scratch_keys_.data();
  uint64_t* const buckets = scratch_buckets_.data();
  LftaHashTable::SlotClass* const classes = scratch_classes_.data();
  uint64_t* const dirty = scratch_dirty_.data();
  const bool count_only = metrics.empty();
  // AoS -> SoA transpose of the just-projected keys (still hot in L1): the
  // column layout is what lets HashWordsBatch sweep whole-chunk lanes.
  const int width = table.key_width();
  const uint32_t* cols[kMaxAttributes];
  for (int w = 0; w < width; ++w) {
    uint32_t* col = scratch_cols_[static_cast<size_t>(w)].data();
    for (size_t j = 0; j < n; ++j) col[j] = keys[j].values[w];
    cols[w] = col;
  }
  HashWordsBatch(cols, width, n, table.seed(), scratch_hashes_.data());
  for (size_t j = 0; j < n; ++j) {
    buckets[j] = table.BucketOfHash(scratch_hashes_[j]);
    table.Prefetch(buckets[j]);
  }
  // Classify pass: a pure read sweep over the (prefetched) slots —
  // gather-compare the whole chunk before any slot is written.
  for (size_t j = 0; j < n; ++j) {
    classes[j] = table.ClassifySlot(buckets[j], keys[j]);
  }
  counters_.intra_probes += n;
  // Apply pass, in record order. A classification is stale once an earlier
  // record of the chunk inserted into or collided on the same bucket
  // (merges leave the resident key and occupancy untouched); those buckets
  // sit in the dirty list and fall back to the serial probe, which keeps
  // the whole pipeline bit-identical to record-at-a-time ProbeStateAt.
  AggregateState from_record;
  size_t dirty_n = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t bucket = buckets[j];
    const AggregateState* add = &count_one_;
    if (!count_only) {
      from_record = AggregateState::FromRecord(records[rec_idx[j]], metrics);
      add = &from_record;
    }
    bool stale = false;
    for (size_t d = 0; d < dirty_n; ++d) {
      if (dirty[d] == bucket) {
        stale = true;
        break;
      }
    }
    if (stale) {
      const ProbeOutcome outcome =
          table.ProbeStateAt(bucket, keys[j], *add, &scratch_evicted_key_,
                             &scratch_evicted_state_);
      if (outcome == ProbeOutcome::kCollision) {
        PropagateEviction</*kFlushing=*/false>(rel, scratch_evicted_key_,
                                               scratch_evicted_state_);
      }
      continue;  // A stale bucket is occupied and already dirty.
    }
    switch (classes[j]) {
      case LftaHashTable::SlotClass::kEmpty:
        table.ApplyInsert(bucket, keys[j], *add);
        dirty[dirty_n++] = bucket;
        break;
      case LftaHashTable::SlotClass::kMatch:
        table.ApplyMerge(bucket, *add);
        break;
      case LftaHashTable::SlotClass::kMismatch:
        table.ApplyCollision(bucket, keys[j], *add, &scratch_evicted_key_,
                             &scratch_evicted_state_);
        dirty[dirty_n++] = bucket;
        PropagateEviction</*kFlushing=*/false>(rel, scratch_evicted_key_,
                                               scratch_evicted_state_);
        break;
    }
  }
}

void ConfigurationRuntime::ProcessEpochRun(std::span<const Record> records) {
  counters_.records += records.size();
  // Probe relation-major: per raw relation, sweep the run in chunks of
  // kChunk records — project + batch-hash + prefetch the whole chunk, then
  // classify and apply it (docs/probe_kernel.md). By the time the classify
  // sweep touches a bucket the prefetch issued up to kChunk-1 slots earlier
  // has (ideally) pulled the line into cache. Relation-major order is
  // bit-identical to record-major: the feeding forest's trees are disjoint,
  // so each table sees the same probe sequence either way, and all
  // cross-tree state (HFTA, counters) merges commutatively.
  GroupKey* const keys = scratch_keys_.data();
  uint32_t* const survivors = scratch_survivors_.data();
  const bool shedding = shed_plan_.active();
  for (size_t ri = 0; ri < raw_relations_.size(); ++ri) {
    const int rel = raw_relations_[ri];
    LftaHashTable& table = *tables_[rel];
    const ProjectionPlan& plan = raw_plans_[ri];
    const std::vector<MetricSpec>& metrics = specs_[rel].metrics;
    const bool count_only = metrics.empty();
    const uint32_t shed_num = shedding ? shed_plan_.numerators[ri] : 0;
    if (shed_num == 0) {
      for (size_t base = 0; base < records.size(); base += kChunk) {
        const size_t n = std::min(kChunk, records.size() - base);
        for (size_t j = 0; j < n; ++j) {
          keys[j] = plan.Apply(records[base + j]);
        }
        // Metric-bearing chunks carry their record indices so the probe
        // helpers can rebuild per-record states; count-only chunks don't
        // touch the records again.
        const uint32_t* rec_idx = nullptr;
        if (!count_only) {
          for (size_t j = 0; j < n; ++j) {
            survivors[j] = static_cast<uint32_t>(base + j);
          }
          rec_idx = survivors;
        }
        ProbeChunkHash(rel, table, n, records, rec_idx, metrics);
      }
      continue;
    }
    // Shedding variant (docs/overload.md): an error-diffusion accumulator
    // drops exactly shed_num out of every kDenominator offered records —
    // deterministic, evenly spread, and exact in integers. Survivor indices
    // are gathered per chunk, then the chunk pipeline runs on survivors
    // only, so the shed records cost one add and one compare each.
    uint32_t accum = shed_accum_[ri];
    uint64_t shed = 0;
    for (size_t base = 0; base < records.size(); base += kChunk) {
      const size_t n = std::min(kChunk, records.size() - base);
      size_t m = 0;
      for (size_t j = 0; j < n; ++j) {
        accum += shed_num;
        if (accum >= ShedPlan::kDenominator) {
          accum -= ShedPlan::kDenominator;
          ++shed;
          continue;
        }
        survivors[m++] = static_cast<uint32_t>(base + j);
      }
      for (size_t j = 0; j < m; ++j) {
        keys[j] = plan.Apply(records[survivors[j]]);
      }
      ProbeChunkHash(rel, table, m, records, survivors, metrics);
    }
    shed_accum_[ri] = accum;
    shed_counts_[ri] += shed;
    counters_.shed_probes += shed;
  }
}

void ConfigurationRuntime::ProcessBatch(std::span<const Record> records) {
#if STREAMAGG_TELEMETRY_LEVEL >= 2
  // The first call and every kBatchSampleInterval-th after it read the
  // steady_clock pair (~30 ns each), so even a caller feeding one record
  // per call pays the clock on 1 record in 64, not on every one.
  const bool timed = !records.empty() &&
                     telemetry_level_.load(std::memory_order_relaxed) ==
                         TelemetryLevel::kFull &&
                     batch_calls_++ % kBatchSampleInterval == 0;
  const uint64_t batch_start = timed ? TelemetryNowNanos() : 0;
#endif
  const auto epoch_of = [this](double timestamp) {
    return static_cast<uint64_t>(std::floor(timestamp / epoch_seconds_));
  };
  size_t i = 0;
  while (i < records.size()) {
    size_t end = records.size();
    if (epoch_seconds_ > 0.0) {
      const uint64_t epoch = epoch_of(records[i].timestamp);
      if (saw_record_ && epoch != current_epoch_) FlushEpoch();
      current_epoch_ = epoch;
      // Timestamps are non-decreasing and floor is monotone, so if the last
      // record shares the first's epoch the whole tail is one run — the
      // common case, dispatched with two divisions instead of one per
      // record. Otherwise scan for the boundary.
      if (epoch_of(records[end - 1].timestamp) != epoch) {
        end = i + 1;
        while (end < records.size() &&
               epoch_of(records[end].timestamp) == epoch) {
          ++end;
        }
      }
    }
    saw_record_ = true;
    ProcessEpochRun(records.subspan(i, end - i));
    i = end;
  }
#if STREAMAGG_TELEMETRY_LEVEL >= 2
  if (timed) {
    telemetry_.batch_records.Record(records.size());
    telemetry_.batch_ns.Record(TelemetryNowNanos() - batch_start);
  }
#endif
}

void ConfigurationRuntime::FlushEpoch() {
  // The flight recorder's span over the whole flush (docs/tracing.md):
  // shard-labeled, so a sharded trace shows each replica's flush phase of
  // the epoch barrier.
  STREAMAGG_TRACE(const uint64_t trace_start =
                      FlightRecorder::Instance().enabled()
                          ? TelemetryNowNanos()
                          : 0);
#if STREAMAGG_TELEMETRY_LEVEL >= 2
  const bool timed = telemetry_level_.load(std::memory_order_relaxed) ==
                     TelemetryLevel::kFull;
  uint64_t flush_start = 0;
  if (timed) {
    flush_start = TelemetryNowNanos();
    if (last_flush_nanos_ != 0) {
      telemetry_.epoch_gap_ns.Record(flush_start - last_flush_nanos_);
    }
    last_flush_nanos_ = flush_start;
  }
#endif
  // Top-down: specs are ordered parents before children, so by the time a
  // relation is flushed it already holds everything its ancestors pushed
  // down during this flush (paper Section 3.2.2).
  for (size_t rel = 0; rel < specs_.size(); ++rel) {
#if STREAMAGG_TELEMETRY_LEVEL >= 2
    // Sampled when the flush *reaches* this relation, so cascaded entries
    // pushed down by already-flushed ancestors are included.
    if (timed) {
      telemetry_.relations[rel].flush_occupancy.Record(
          tables_[rel]->occupied_buckets());
    }
#endif
    tables_[rel]->FlushState([&](const GroupKey& key,
                                 const AggregateState& state) {
      PropagateEviction</*kFlushing=*/true>(static_cast<int>(rel), key, state);
    });
  }
  ++counters_.epochs_flushed;
#if STREAMAGG_TELEMETRY_LEVEL >= 2
  if (timed) telemetry_.flush_ns.Record(TelemetryNowNanos() - flush_start);
#endif
  STREAMAGG_TRACE(if (trace_start != 0) {
    FlightRecorder::Instance().RecordSpan(TraceEventType::kEpochFlush,
                                          trace_start, current_epoch_,
                                          static_cast<uint32_t>(trace_id_));
  });
}

void ConfigurationRuntime::ProcessTrace(const Trace& trace) {
  ProcessBatch(trace.records());
  if (saw_record_) FlushEpoch();
}

uint64_t ConfigurationRuntime::TotalMemoryWords() const {
  uint64_t total = 0;
  for (const auto& t : tables_) total += t->memory_words();
  return total;
}

}  // namespace streamagg
