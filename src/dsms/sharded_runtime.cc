#include "dsms/sharded_runtime.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/hash.h"

namespace streamagg {

namespace {

/// Seed of the record-to-shard hash. Distinct from every table seed so the
/// partitioning is independent of bucket placement (a correlated hash would
/// skew per-shard collision rates).
constexpr uint64_t kShardHashSeed = 0x5eedf00dcafe17ULL;

}  // namespace

Result<std::unique_ptr<ShardedRuntime>> ShardedRuntime::Make(
    const Schema& schema, std::vector<RuntimeRelationSpec> specs,
    double epoch_seconds, Options options, Hfta* results, uint64_t seed) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "Options::num_shards must be >= 1 (got " +
        std::to_string(options.num_shards) + ")");
  }
  if (options.queue_capacity < 2) {
    return Status::InvalidArgument(
        "Options::queue_capacity must be >= 2 (got " +
        std::to_string(options.queue_capacity) + ")");
  }
  const bool runs_inline = options.num_shards == 1;
  std::vector<std::unique_ptr<ConfigurationRuntime>> shards;
  shards.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    // Every replica validates the same specs; the first failure reports.
    // Inline, the one replica writes into (and checks) the results;
    // otherwise each writes into its own HFTA, which every barrier drains.
    STREAMAGG_ASSIGN_OR_RETURN(
        std::unique_ptr<ConfigurationRuntime> shard,
        ConfigurationRuntime::Make(schema, specs, epoch_seconds,
                                   runs_inline ? results : nullptr, seed));
    shard->set_trace_id(s);  // Label the replica's flight-recorder events.
    shards.push_back(std::move(shard));
  }
  // Off-inline, the results must match a replica's own HFTA's layout.
  if (!runs_inline && results != nullptr &&
      results->layout() != shards[0]->hfta().layout()) {
    return Status::InvalidArgument(
        "results HFTA must hold the specs' queries laid out by their "
        "query_metrics");
  }
  AttributeSet partition_attrs;
  for (const RuntimeRelationSpec& spec : specs) {
    if (spec.parent < 0) partition_attrs = partition_attrs.Union(spec.attrs);
  }
  return std::unique_ptr<ShardedRuntime>(
      new ShardedRuntime(std::move(shards), partition_attrs, results,
                         options));
}

ShardedRuntime::ShardedRuntime(
    std::vector<std::unique_ptr<ConfigurationRuntime>> shards,
    AttributeSet partition_attrs, Hfta* results, Options options)
    : shards_(std::move(shards)),
      partition_attrs_(partition_attrs),
      pin_threads_(options.pin_threads),
      inline_(shards_.size() == 1),
      results_(results) {
  ingest_stats_.resize(shards_.size());  // Read at every split; zero inline.
  if (inline_) {
    results_ = shards_[0]->mutable_hfta();  // The caller's, or its own.
    return;
  }
  if (results_ == nullptr) {
    // A copy of a fresh replica's HFTA: no rows, every query's metrics.
    owned_results_ = std::make_unique<Hfta>(shards_[0]->hfta());
    results_ = owned_results_.get();
  }
  queues_.reserve(shards_.size());
  staging_.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    queues_.push_back(
        std::make_unique<SpscQueue<Envelope>>(options.queue_capacity));
  }
  layout_ = AffinityLayout::Plan(
      pin_threads_ ? CpuTopology::Detect() : CpuTopology{},  // {}: unpinned.
      num_shards());
  // Queues must all exist before any worker starts.
  workers_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(static_cast<int>(s)); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  if (inline_) return;
  // Deliver any staged records: queued work is processed, not dropped.
  FlushStaging();
  Envelope stop;
  stop.kind = Envelope::Kind::kStop;
  for (int s = 0; s < num_shards(); ++s) PushBlocking(s, stop);
  for (std::thread& worker : workers_) worker.join();
}

int ShardedRuntime::ShardOf(const Record& record) const {
  const GroupKey key = GroupKey::Project(record, partition_attrs_);
  const uint64_t hash = HashWords(key.values.data(), key.size, kShardHashSeed);
  return static_cast<int>(hash % shards_.size());
}

void ShardedRuntime::PushBlocking(int shard, const Envelope& envelope) {
  SpscQueue<Envelope>& queue = *queues_[static_cast<size_t>(shard)];
  [[maybe_unused]] ShardIngestStats& stats =
      ingest_stats_[static_cast<size_t>(shard)];
  int spins = 0;
  if (!queue.TryPush(envelope)) {
    // Stall span (docs/tracing.md): only the *blocked* path reads the clock,
    // so the uncontended push stays a TryPush plus one relaxed load.
    STREAMAGG_TRACE(const uint64_t stall_start =
                        FlightRecorder::Instance().enabled()
                            ? TelemetryNowNanos()
                            : 0);
    STREAMAGG_TELEMETRY_COUNTERS(
        if (telemetry_level_ != TelemetryLevel::kOff)
            ++stats.blocked_pushes;);
    do {
      // Backpressure: the shard is behind. Yield, then briefly sleep so a
      // stalled worker does not peg the driver's core.
      if (++spins < 1024) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } while (!queue.TryPush(envelope));
    STREAMAGG_TRACE(if (stall_start != 0) {
      FlightRecorder::Instance().RecordSpan(
          TraceEventType::kBlockedPush, stall_start, /*epoch=*/0,
          static_cast<uint32_t>(shard));
    });
  }
#if STREAMAGG_TELEMETRY_LEVEL >= 1
  // Depth sampled right after the push: one acquire load per envelope
  // (kEnvelopeBatch records), amortized to a fraction of a load per record.
  if (telemetry_level_ != TelemetryLevel::kOff) {
    const uint64_t depth = queue.SizeApprox();
    if (depth > stats.queue_depth_hwm) stats.queue_depth_hwm = depth;
  }
#endif
}

void ShardedRuntime::WorkerLoop(int shard) {
  if (pin_threads_) {
    PinCurrentThreadToCpu(layout_.shard_cpu[static_cast<size_t>(shard)]);
  }
  ConfigurationRuntime& runtime = *shards_[shard];
  SpscQueue<Envelope>& queue = *queues_[static_cast<size_t>(shard)];
  Envelope envelope;
  int idle = 0;
  for (;;) {
    if (!queue.TryPop(&envelope)) {
      // Idle backoff mirrors PushBlocking: cheap yields first, then short
      // sleeps once the stream has clearly paused.
      if (++idle < 1024) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      continue;
    }
    idle = 0;
    switch (envelope.kind) {
      case Envelope::Kind::kBatch:
        runtime.ProcessBatch(
            std::span<const Record>(envelope.records.data(), envelope.count));
        continue;
      case Envelope::Kind::kFlush:
        runtime.FlushEpoch();
        break;
      case Envelope::Kind::kQuiesce:
        // The tables are left mid-epoch: the driver wants their occupancy.
        break;
      case Envelope::Kind::kStop:
        return;
    }
    STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
        TraceEventType::kBarrierAck, runtime.current_epoch(),
        static_cast<uint32_t>(shard),
        /*kind=*/envelope.kind == Envelope::Kind::kQuiesce ? 1u : 0u));
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    if (--barrier_pending_ == 0) barrier_cv_.notify_one();
  }
}

void ShardedRuntime::Stage(const Record& record) {
  const int shard = ShardOf(record);
  const size_t index = static_cast<size_t>(shard);
  STREAMAGG_TELEMETRY_COUNTERS(
      if (telemetry_level_ != TelemetryLevel::kOff)
          ++ingest_stats_[index].records;);
  Envelope& staging = staging_[index];
  staging.records[staging.count++] = record;
  if (staging.count == kEnvelopeBatch) {
    PushBlocking(shard, staging);
    staging.count = 0;
  }
}

void ShardedRuntime::FlushStaging() {
  for (int s = 0; s < num_shards(); ++s) {
    Envelope& staging = staging_[static_cast<size_t>(s)];
    if (staging.count == 0) continue;
    PushBlocking(s, staging);
    staging.count = 0;
  }
}

void ShardedRuntime::ProcessRecord(const Record& record) {
  ProcessBatch(std::span<const Record>(&record, 1));
}

void ShardedRuntime::ProcessBatch(std::span<const Record> records) {
  if (inline_) {
    shards_[0]->ProcessBatch(records);
    return;
  }
  for (const Record& record : records) Stage(record);
}

void ShardedRuntime::FlushEpoch() {
  if (inline_) {
    shards_[0]->FlushEpoch();
    return;
  }
  RunBarrier(Envelope::Kind::kFlush);
}

void ShardedRuntime::Quiesce() {
  if (!inline_) RunBarrier(Envelope::Kind::kQuiesce);
}

void ShardedRuntime::RunBarrier(Envelope::Kind kind) {
  // Driver-side barrier span (docs/tracing.md): covers staging delivery,
  // marker propagation, the wait for every shard's ack, and the snapshot
  // drain — the wall-clock cost of one FlushEpoch/Quiesce barrier.
  STREAMAGG_TRACE(const uint64_t barrier_start =
                      FlightRecorder::Instance().enabled()
                          ? TelemetryNowNanos()
                          : 0);
  // Staged records belong to the epoch in flight; deliver them first so
  // the markers land behind every record in every queue.
  FlushStaging();
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_pending_ = num_shards();
  }
  Envelope marker;
  marker.kind = kind;
  for (int s = 0; s < num_shards(); ++s) PushBlocking(s, marker);
  {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    barrier_cv_.wait(lock, [this] { return barrier_pending_ == 0; });
  }
  // All shards have drained their queues up to the markers and
  // acknowledged under the barrier mutex, so reading and draining their
  // state here is race-free: nothing else is in their queues (the driver is
  // the only thread pushing). A worker's next pop orders its next write
  // after the drain.
  DrainReplicas();
  STREAMAGG_TRACE(if (barrier_start != 0) {
    FlightRecorder::Instance().RecordSpan(
        TraceEventType::kBarrier, barrier_start, shards_[0]->current_epoch(),
        /*kind=*/kind == Envelope::Kind::kQuiesce ? 1u : 0u);
  });
}

void ShardedRuntime::DrainReplicas() {
  merged_counters_ = RuntimeCounters{};
  for (const auto& shard : shards_) {
    results_->DrainFrom(shard->mutable_hfta());
    merged_counters_.Add(shard->counters());
  }
}

void ShardedRuntime::ProcessTrace(const Trace& trace) {
  ProcessBatch(trace.records());
  FlushEpoch();
}

uint64_t ShardedRuntime::TotalMemoryWords() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->TotalMemoryWords();
  return total;
}

Status ShardedRuntime::SetShedPlan(const ShedPlan& plan) {
  for (auto& shard : shards_) {
    STREAMAGG_RETURN_NOT_OK(shard->SetShedPlan(plan));
  }
  return Status::OK();
}

uint64_t ShardedRuntime::shed_count(int i) const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->shed_count(i);
  return total;
}

}  // namespace streamagg
