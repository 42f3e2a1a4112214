#include "dsms/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
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
  if (options.num_producers < 1) {
    return Status::InvalidArgument(
        "Options::num_producers must be >= 1 (got " +
        std::to_string(options.num_producers) + ")");
  }
  if (options.queue_capacity < 2) {
    return Status::InvalidArgument(
        "Options::queue_capacity must be >= 2 (got " +
        std::to_string(options.queue_capacity) + ")");
  }
  const bool runs_inline =
      options.num_shards == 1 && options.num_producers == 1;
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
      new ShardedRuntime(schema, std::move(shards), partition_attrs, results,
                         epoch_seconds, options));
}

ShardedRuntime::ShardedRuntime(
    const Schema& schema,
    std::vector<std::unique_ptr<ConfigurationRuntime>> shards,
    AttributeSet partition_attrs, Hfta* results, double epoch_seconds,
    Options options)
    : schema_(schema),
      shards_(std::move(shards)),
      partition_attrs_(partition_attrs),
      epoch_seconds_(epoch_seconds),
      num_producers_(options.num_producers),
      pin_threads_(options.pin_threads),
      inline_(shards_.size() == 1 && num_producers_ == 1),
      results_(results) {
  const size_t matrix = static_cast<size_t>(num_producers_) * shards_.size();
  ingest_stats_.resize(matrix);  // Read at every split; all zero inline.
  if (inline_) {
    results_ = shards_[0]->mutable_hfta();  // The caller's, or its own.
    return;
  }
  if (results_ == nullptr) {
    // A copy of a fresh replica's HFTA: no rows, every query's metrics.
    owned_results_ = std::make_unique<Hfta>(shards_[0]->hfta());
    results_ = owned_results_.get();
  }
  queues_.reserve(matrix);
  staging_.resize(matrix);
  for (size_t i = 0; i < matrix; ++i) {
    queues_.push_back(
        std::make_unique<SpscQueue<Envelope>>(options.queue_capacity));
  }
  if (pin_threads_) {
    layout_ = AffinityLayout::Plan(CpuTopology::Detect(), num_producers_,
                                   num_shards());
  } else {
    layout_ = AffinityLayout::Plan(CpuTopology{}, num_producers_,
                                   num_shards());  // All -1: unpinned.
  }
  // Queues must all exist before any worker or producer thread starts.
  workers_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(static_cast<int>(s)); });
  }
  if (num_producers_ > 1) {
    producer_slots_.reserve(static_cast<size_t>(num_producers_ - 1));
    producer_threads_.reserve(static_cast<size_t>(num_producers_ - 1));
    for (int p = 1; p < num_producers_; ++p) {
      producer_slots_.push_back(std::make_unique<ProducerSlot>());
    }
    for (int p = 1; p < num_producers_; ++p) {
      producer_threads_.emplace_back([this, p] { ProducerLoop(p); });
    }
  }
}

ShardedRuntime::~ShardedRuntime() {
  if (inline_) return;
  // Stop the internal producers first: after this, the driver is the only
  // thread touching staging buffers and queue rows.
  for (auto& slot : producer_slots_) {
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      slot->stop = true;
    }
    slot->cv.notify_all();
  }
  for (std::thread& producer : producer_threads_) producer.join();
  // Deliver any staged records: queued work is processed, not dropped.
  FlushStaging();
  Envelope stop;
  stop.kind = Envelope::Kind::kStop;
  for (int p = 0; p < num_producers_; ++p) {
    for (int s = 0; s < num_shards(); ++s) PushBlocking(p, s, stop);
  }
  for (std::thread& worker : workers_) worker.join();
}

int ShardedRuntime::ShardOf(const Record& record) const {
  if (shards_.size() == 1) return 0;
  const GroupKey key = GroupKey::Project(record, partition_attrs_);
  const uint64_t hash = HashWords(key.values.data(), key.size, kShardHashSeed);
  return static_cast<int>(hash % shards_.size());
}

void ShardedRuntime::PushBlocking(int producer, int shard,
                                  const Envelope& envelope) {
  SpscQueue<Envelope>& queue = *queues_[QueueIndex(producer, shard)];
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
            ++ingest_stats_[QueueIndex(producer, shard)].blocked_pushes;);
    do {
      // Backpressure: the shard is behind. Yield, then briefly sleep so a
      // stalled consumer does not peg the producer core.
      if (++spins < 1024) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } while (!queue.TryPush(envelope));
    STREAMAGG_TRACE(if (stall_start != 0) {
      FlightRecorder::Instance().RecordSpan(
          TraceEventType::kBlockedPush, stall_start, /*epoch=*/0,
          static_cast<uint32_t>(producer), static_cast<uint32_t>(shard));
    });
  }
#if STREAMAGG_TELEMETRY_LEVEL >= 1
  // Depth sampled right after the push: one acquire load per envelope
  // (kEnvelopeBatch records), amortized to a fraction of a load per record.
  if (telemetry_level_ != TelemetryLevel::kOff) {
    const uint64_t depth = queue.SizeApprox();
    ShardIngestStats& stats = ingest_stats_[QueueIndex(producer, shard)];
    if (depth > stats.queue_depth_hwm) stats.queue_depth_hwm = depth;
  }
#endif
}

void ShardedRuntime::WorkerLoop(int shard) {
  if (pin_threads_) {
    PinCurrentThreadToCpu(layout_.shard_cpu[static_cast<size_t>(shard)]);
  }
  ConfigurationRuntime& runtime = *shards_[shard];
  // The worker's view of its queue column: one SPSC ring per producer. It
  // sweeps the column round-robin; control markers (kFlush/kStop) take
  // effect once one has arrived from every producer, which proves the whole
  // column is drained up to the marker (each ring is FIFO and the driver
  // pushes markers after quiescing the producers).
  std::vector<SpscQueue<Envelope>*> column;
  column.reserve(static_cast<size_t>(num_producers_));
  for (int p = 0; p < num_producers_; ++p) {
    column.push_back(queues_[QueueIndex(p, shard)].get());
  }
  Envelope envelope;
  int idle = 0;
  int flush_seen = 0;
  int quiesce_seen = 0;
  int stop_seen = 0;
  for (;;) {
    bool any = false;
    for (SpscQueue<Envelope>* queue : column) {
      if (!queue->TryPop(&envelope)) continue;
      any = true;
      switch (envelope.kind) {
        case Envelope::Kind::kBatch:
          runtime.ProcessBatch(std::span<const Record>(
              envelope.records.data(), envelope.count));
          break;
        case Envelope::Kind::kFlush:
          if (++flush_seen == num_producers_) {
            flush_seen = 0;
            runtime.FlushEpoch();
            STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
                TraceEventType::kBarrierAck, runtime.current_epoch(),
                static_cast<uint32_t>(shard), /*kind=*/0));
            std::lock_guard<std::mutex> lock(barrier_mutex_);
            if (--barrier_pending_ == 0) barrier_cv_.notify_one();
          }
          break;
        case Envelope::Kind::kQuiesce:
          // Same marker-counting proof as kFlush — one from every producer
          // means the whole column is drained — but the shard's tables are
          // left mid-epoch: the driver wants to read their occupancy.
          if (++quiesce_seen == num_producers_) {
            quiesce_seen = 0;
            STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
                TraceEventType::kBarrierAck, runtime.current_epoch(),
                static_cast<uint32_t>(shard), /*kind=*/1));
            std::lock_guard<std::mutex> lock(barrier_mutex_);
            if (--barrier_pending_ == 0) barrier_cv_.notify_one();
          }
          break;
        case Envelope::Kind::kStop:
          if (++stop_seen == num_producers_) return;
          break;
      }
    }
    if (any) {
      idle = 0;
      continue;
    }
    // Idle backoff mirrors PushBlocking: cheap yields first, then short
    // sleeps once the stream has clearly paused.
    if (++idle < 1024) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ShardedRuntime::ProducerLoop(int producer) {
  if (pin_threads_) {
    PinCurrentThreadToCpu(layout_.producer_cpu[static_cast<size_t>(producer)]);
  }
  ProducerSlot& slot = *producer_slots_[static_cast<size_t>(producer - 1)];
  for (;;) {
    std::span<const Record> task;
    {
      std::unique_lock<std::mutex> lock(slot.mutex);
      slot.cv.wait(lock, [&] { return slot.stop || slot.gen != slot.done; });
      if (slot.stop && slot.gen == slot.done) return;
      task = slot.task;
    }
    StageSpan(producer, task);
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      slot.done = slot.gen;
    }
    slot.cv.notify_all();
  }
}

void ShardedRuntime::Stage(int producer, const Record& record) {
  const int shard = ShardOf(record);
  const size_t index = QueueIndex(producer, shard);
  STREAMAGG_TELEMETRY_COUNTERS(
      if (telemetry_level_ != TelemetryLevel::kOff)
          ++ingest_stats_[index].records;);
  Envelope& staging = staging_[index];
  staging.records[staging.count++] = record;
  if (staging.count == kEnvelopeBatch) {
    PushBlocking(producer, shard, staging);
    staging.count = 0;
  }
}

void ShardedRuntime::StageSpan(int producer, std::span<const Record> records) {
  for (const Record& record : records) Stage(producer, record);
}

void ShardedRuntime::FlushStaging() {
  for (int p = 0; p < num_producers_; ++p) {
    for (int s = 0; s < num_shards(); ++s) {
      Envelope& staging = staging_[QueueIndex(p, s)];
      if (staging.count == 0) continue;
      PushBlocking(p, s, staging);
      staging.count = 0;
    }
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
  if (records.empty()) return;
  if (num_producers_ == 1) {
    // Single-producer fast path: stage on the driver, unchanged from the
    // original design. Workers flush interior epochs autonomously when they
    // see the boundary timestamp, so no barriers are needed mid-stream.
    StageSpan(0, records);
    return;
  }
  // Multi-producer path: cut the batch into epoch runs and quiesce the
  // whole matrix at each boundary. Between barriers every in-flight record
  // belongs to one epoch, so the arbitrary cross-producer interleave a
  // worker sees is a within-epoch permutation — harmless, because final
  // (query, epoch, group) aggregates are order-independent inside an epoch.
  const auto epoch_of = [this](double timestamp) {
    return static_cast<uint64_t>(std::floor(timestamp / epoch_seconds_));
  };
  size_t i = 0;
  while (i < records.size()) {
    size_t end = records.size();
    if (epoch_seconds_ > 0.0) {
      const uint64_t epoch = epoch_of(records[i].timestamp);
      if (saw_record_ && epoch != last_epoch_) FlushEpoch();
      last_epoch_ = epoch;
      // Timestamps are non-decreasing and floor is monotone, so if the last
      // record shares the first's epoch the whole tail is one run.
      if (epoch_of(records[end - 1].timestamp) != epoch) {
        end = i + 1;
        while (end < records.size() &&
               epoch_of(records[end].timestamp) == epoch) {
          ++end;
        }
      }
    }
    saw_record_ = true;
    DispatchRun(records.subspan(i, end - i));
    i = end;
  }
}

void ShardedRuntime::DispatchRun(std::span<const Record> records) {
  const size_t p_count = static_cast<size_t>(num_producers_);
  // Tiny runs are not worth two condvar hops per helper: stage them on the
  // driver. Correctness is unaffected (any within-epoch split is valid).
  if (records.size() < p_count * kEnvelopeBatch) {
    StageSpan(0, records);
    return;
  }
  // Contiguous even stripes preserve per-producer timestamp order; the
  // first `extra` stripes take one record more.
  const size_t base = records.size() / p_count;
  const size_t extra = records.size() % p_count;
  const auto begin = [&](size_t p) { return p * base + std::min(p, extra); };
  for (size_t p = 1; p < p_count; ++p) {
    ProducerSlot& slot = *producer_slots_[p - 1];
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      slot.task = records.subspan(begin(p), begin(p + 1) - begin(p));
      ++slot.gen;
    }
    slot.cv.notify_all();
  }
  StageSpan(0, records.first(begin(1)));
  for (size_t p = 1; p < p_count; ++p) {
    ProducerSlot& slot = *producer_slots_[p - 1];
    std::unique_lock<std::mutex> lock(slot.mutex);
    slot.cv.wait(lock, [&] { return slot.done == slot.gen; });
  }
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
  // Producers are quiescent here: DispatchRun joins every helper before
  // returning, and barriers are only run from the driver thread. Staged
  // records belong to the epoch in flight; deliver them first so the
  // markers land behind every record in every ring.
  FlushStaging();
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_pending_ = num_shards();
  }
  Envelope marker;
  marker.kind = kind;
  for (int p = 0; p < num_producers_; ++p) {
    for (int s = 0; s < num_shards(); ++s) PushBlocking(p, s, marker);
  }
  {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    barrier_cv_.wait(lock, [this] { return barrier_pending_ == 0; });
  }
  // All shards have drained their whole queue column up to the markers and
  // acknowledged under the barrier mutex, so reading and draining their
  // state here is race-free: nothing else is in their queues (the driver is
  // the only thread pushing, and the helpers are parked). A worker's next
  // pop orders its next write after the drain.
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

ShardIngestStats ShardedRuntime::shard_stats(int i) const {
  ShardIngestStats total;
  for (int p = 0; p < num_producers_; ++p) {
    const ShardIngestStats& cell = ingest_stats_[QueueIndex(p, i)];
    total.records += cell.records;
    total.queue_depth_hwm = std::max(total.queue_depth_hwm,
                                     cell.queue_depth_hwm);
    total.blocked_pushes += cell.blocked_pushes;
  }
  return total;
}

ShardIngestStats ShardedRuntime::producer_stats(int p) const {
  ShardIngestStats total;
  for (int s = 0; s < num_shards(); ++s) {
    const ShardIngestStats& cell = ingest_stats_[QueueIndex(p, s)];
    total.records += cell.records;
    total.queue_depth_hwm = std::max(total.queue_depth_hwm,
                                     cell.queue_depth_hwm);
    total.blocked_pushes += cell.blocked_pushes;
  }
  return total;
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
