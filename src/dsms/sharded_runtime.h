#ifndef STREAMAGG_DSMS_SHARDED_RUNTIME_H_
#define STREAMAGG_DSMS_SHARDED_RUNTIME_H_

#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dsms/configuration_runtime.h"
#include "obs/metrics.h"
#include "util/cpu_topology.h"
#include "util/spsc_queue.h"

namespace streamagg {

/// Driver-side ingest telemetry of one shard's queue: how many records were
/// routed to it (the skew signal — a hot root group shows up as one shard's
/// count running away from the others) and the deepest the queue ever got,
/// in envelopes (the backpressure signal; at capacity the driver blocks).
struct ShardIngestStats {
  uint64_t records = 0;
  uint64_t queue_depth_hwm = 0;
  /// Envelope pushes that found the queue full and had to spin — the
  /// monotone overload signal the controller prices shedding against
  /// (docs/overload.md). Each blocked push delays up to kEnvelopeBatch
  /// records.
  uint64_t blocked_pushes = 0;
};

/// The engine's LFTA runtime for every shard count. At one shard it runs
/// inline: one ConfigurationRuntime replica driven directly on the caller's
/// thread, with no threads, queues or staging. With S > 1 shards it runs S
/// replicas, each owned by one worker thread and fed by the driver through
/// its own bounded SPSC record queue. Records are partitioned by a hash of
/// their projection onto the configuration's root (raw-relation)
/// attributes, so a root group always lands on the same shard. Each replica
/// transfers into its own HFTA, and every barrier (FlushEpoch, Quiesce)
/// drains those into the one results HFTA, giving the same final aggregates
/// the inline runtime produces — shard merge is order-insensitive because
/// all supported aggregates are commutative. See docs/runtime.md for the
/// full concurrency model.
///
/// Threading contract (single external driver thread):
///  * ProcessRecord / ProcessBatch / ProcessTrace / FlushEpoch / Quiesce
///    must be called from one thread (the driver). Records must arrive in
///    non-decreasing timestamp order, exactly as for ConfigurationRuntime.
///  * hfta() and counters() are live when the runtime runs inline; otherwise
///    they hold everything up to the last barrier and are stable (race-free)
///    between barriers.
///  * shard(i) exposes a shard's runtime for inspection. Inline it is always
///    safe to read; otherwise only between a barrier (or construction) and
///    the next ProcessRecord/ProcessBatch, while the workers are quiescent.
///    The same holds for shard_stats().
class ShardedRuntime {
 public:
  struct Options {
    /// Number of shard replicas. At 1 the runtime runs inline on the
    /// caller's thread; otherwise each shard gets one worker thread.
    int num_shards = 1;
    /// Per-shard queue capacity in *envelopes* (each envelope carries up to
    /// kEnvelopeBatch records); rounded up to a power of two. The driver
    /// blocks (spins) when a queue is full, so this bounds both memory and
    /// the driver/worker skew. Unused inline.
    size_t queue_capacity = 4096;
    /// Pin worker threads to CPUs chosen by AffinityLayout::Plan over the
    /// detected topology: the shards fill the driver's NUMA node first. The
    /// driver thread is never pinned — it belongs to the caller. Pinning is
    /// best-effort; failures degrade to unpinned threads. Unused inline.
    bool pin_threads = false;
  };

  /// Records per queue envelope: the hand-off granularity. Batching
  /// amortizes the per-push atomics and full-queue spin checks across
  /// kEnvelopeBatch records while keeping an envelope within a few cache
  /// lines.
  static constexpr size_t kEnvelopeBatch = 8;

  /// Validates the specs once via ConfigurationRuntime::Make semantics and
  /// instantiates one replica per shard (all replicas share `seed`, i.e.
  /// identical hash functions over identically sized tables). The memory
  /// budget question is the caller's: replicas multiply the footprint by
  /// num_shards, so planners should size specs with budget/num_shards
  /// (StreamAggEngine does; see core/engine.h). Results go to `results`
  /// (one slot per query laid out by its spec's query_metrics, outliving
  /// the runtime; StreamAggEngine passes its own), else to an HFTA the
  /// runtime owns.
  static Result<std::unique_ptr<ShardedRuntime>> Make(
      const Schema& schema, std::vector<RuntimeRelationSpec> specs,
      double epoch_seconds, Options options, Hfta* results = nullptr,
      uint64_t seed = 0x1f7a);

  /// Stops and joins the workers, if any; queued records are processed
  /// first.
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Feeds one record: a batch of one.
  void ProcessRecord(const Record& record);

  /// Feeds a batch of records (non-decreasing timestamps). Inline, the
  /// replica's ProcessBatch runs on the caller's thread. Otherwise each
  /// record is routed to its shard's staging envelope, pushed to the
  /// shard's queue (blocking when full) once it holds kEnvelopeBatch
  /// records; partial envelopes are delivered by the next barrier, which is
  /// also when results become visible. Each worker flushes an epoch when it
  /// sees the next epoch's first record. Partitioning is per-record, so
  /// batch boundaries never affect results.
  void ProcessBatch(std::span<const Record> records);

  /// Feeds a whole trace, then runs the final epoch barrier.
  void ProcessTrace(const Trace& trace);

  /// Flushes every shard's current epoch. Inline that is the replica's own
  /// FlushEpoch. Otherwise it is the epoch barrier: drains every shard's
  /// queue, flushes every shard, drains every replica's HFTA into the
  /// results and rebuilds the counters snapshot, blocking the caller until
  /// all shards have acknowledged.
  void FlushEpoch();

  /// Quiescence barrier *without* flushing: drains every shard's queue and
  /// every replica's HFTA, but leaves each shard's LFTA
  /// tables mid-epoch (occupied). This is the barrier the adaptive engine
  /// snapshots and estimates statistics at — table occupancy is the
  /// group-count signal, and an epoch flush would destroy it. After the
  /// call the same contract as FlushEpoch holds: shard(i)/shard_stats() are
  /// race-free until the next ProcessRecord/ProcessBatch. Inline there is
  /// nothing to drain, so it does nothing.
  void Quiesce();

  /// The results HFTA (Make's `results`, or the runtime's own): live
  /// inline, else complete up to the last barrier.
  const Hfta& hfta() const { return *results_; }
  /// Counters across shards: live inline, else as of the last barrier.
  const RuntimeCounters& counters() const {
    return inline_ ? shards_[0]->counters() : merged_counters_;
  }
  /// True at one shard: no threads or queues, ProcessBatch runs the replica
  /// on the caller's thread, and every read is live.
  bool runs_inline() const { return inline_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// A shard's replica; see the threading contract above.
  const ConfigurationRuntime& shard(int i) const { return *shards_[i]; }
  /// Ingest stats of shard `i`'s queue. Same contract as shard(). All zero
  /// inline, where nothing is routed.
  const ShardIngestStats& shard_stats(int i) const {
    return ingest_stats_[static_cast<size_t>(i)];
  }
  /// Sets the runtime telemetry tier on the driver-side gauges and every
  /// shard replica (an atomic store per shard; workers may be running).
  void set_telemetry_level(TelemetryLevel level) {
    telemetry_level_ = level;
    for (auto& shard : shards_) shard->set_telemetry_level(level);
  }
  /// The attribute set records are partitioned by (the union of the
  /// configuration's raw-relation attributes).
  AttributeSet partition_attrs() const { return partition_attrs_; }
  /// The affinity placement chosen at construction. All -1 (unpinned) when
  /// Options::pin_threads is false; empty inline, where there are no
  /// threads to place.
  const AffinityLayout& layout() const { return layout_; }

  /// Total LFTA memory across all shard replicas, in 4-byte words.
  uint64_t TotalMemoryWords() const;

  /// Installs a probe-shedding plan on every shard replica. Driver-only,
  /// between barriers (the workers are parked; the next envelope push
  /// publishes the plan with release/acquire ordering). See
  /// docs/overload.md.
  Status SetShedPlan(const ShedPlan& plan);
  const ShedPlan& shed_plan() const { return shards_[0]->shed_plan(); }
  /// Records dropped at raw relation `i` (raw-relation order), summed over
  /// shards. Same quiescence contract as shard().
  uint64_t shed_count(int i) const;

 private:
  /// One queue entry: a batch of up to kEnvelopeBatch records, or a control
  /// command for the worker. The queue is FIFO, so a worker that pops a
  /// marker has processed everything pushed ahead of it.
  struct Envelope {
    enum class Kind : uint8_t {
      kBatch,    ///< Process records[0..count).
      kFlush,    ///< Flush the shard's epoch and acknowledge the barrier.
      kQuiesce,  ///< Acknowledge the barrier without flushing (Quiesce()).
      kStop,     ///< Exit the worker loop (destructor only).
    };
    Kind kind = Kind::kBatch;
    uint16_t count = 0;
    std::array<Record, kEnvelopeBatch> records;
  };

  ShardedRuntime(std::vector<std::unique_ptr<ConfigurationRuntime>> shards,
                 AttributeSet partition_attrs, Hfta* results, Options options);

  /// The shard a record routes to: the kShardHashSeed hash of its root
  /// projection, mod num_shards.
  int ShardOf(const Record& record) const;
  void PushBlocking(int shard, const Envelope& envelope);
  /// Appends `record` to its shard's staging envelope, pushing it when full.
  void Stage(const Record& record);
  /// Pushes every non-empty staging envelope (barriers and destructor).
  void FlushStaging();
  /// Shared body of FlushEpoch/Quiesce: delivers staged records, pushes one
  /// `kind` marker down every shard's queue, waits for every shard's
  /// acknowledgement, then drains the replicas (DrainReplicas).
  void RunBarrier(Envelope::Kind kind);
  void WorkerLoop(int shard);
  /// Drains every quiescent replica's HFTA into results_ and rebuilds
  /// merged_counters_.
  void DrainReplicas();

  std::vector<std::unique_ptr<ConfigurationRuntime>> shards_;
  AttributeSet partition_attrs_;

  /// One queue per shard: the driver writes, the shard's worker reads.
  std::vector<std::unique_ptr<SpscQueue<Envelope>>> queues_;
  /// Per-shard staging envelopes and ingest telemetry, owned by the driver.
  std::vector<Envelope> staging_;
  std::vector<ShardIngestStats> ingest_stats_;
  /// Driver-side copy of the telemetry tier (gates the gauges above; the
  /// shard replicas hold their own atomic copy).
  TelemetryLevel telemetry_level_ = TelemetryLevel::kFull;
  std::vector<std::thread> workers_;
  AffinityLayout layout_;
  bool pin_threads_ = false;

  /// One shard: no threads, queues or staging (runs_inline()).
  const bool inline_;

  /// Barrier handshake: FlushEpoch sets pending = num_shards, each worker
  /// decrements after flushing; the mutex also orders the driver's
  /// subsequent reads of shard state after the workers' writes.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_pending_ = 0;

  std::unique_ptr<Hfta> owned_results_;  ///< Threaded, without Make's results.
  Hfta* results_;
  RuntimeCounters merged_counters_;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_SHARDED_RUNTIME_H_
