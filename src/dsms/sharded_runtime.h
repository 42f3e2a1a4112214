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

/// Producer-side ingest telemetry of one (producer, shard) queue: how many
/// records were routed through it (the skew signal — a hot root group shows
/// up as one shard's count running away from the others) and the deepest
/// the queue ever got, in envelopes (the backpressure signal; at capacity
/// the producer blocks).
struct ShardIngestStats {
  uint64_t records = 0;
  uint64_t queue_depth_hwm = 0;
  /// Envelope pushes that found the queue full and had to spin — the
  /// monotone overload signal the controller prices shedding against
  /// (docs/overload.md). Each blocked push delays up to kEnvelopeBatch
  /// records.
  uint64_t blocked_pushes = 0;
};

/// The engine's LFTA runtime for every producers x shards split. At 1 x 1 it
/// runs inline: one ConfigurationRuntime replica driven directly on the
/// caller's thread, with no threads, queues or staging. Any other split runs
/// parallel ingest: S replicas, each owned by one worker thread and fed
/// through bounded SPSC record queues by P producers (a P x S queue matrix
/// — every (producer, shard) pair has its own ring, so the hot path never
/// needs an MPMC queue or a lock). Records are partitioned by a hash of
/// their projection onto the configuration's root (raw-relation)
/// attributes, so a root group always lands on the same shard regardless
/// of which producer routed it. Each replica transfers into its own HFTA,
/// and every barrier (FlushEpoch, Quiesce) drains those into the one
/// results HFTA, giving the same final aggregates the inline runtime
/// produces — shard merge is order-insensitive because all supported
/// aggregates are commutative. See docs/runtime.md for the full concurrency
/// model.
///
/// Threading contract (single external driver thread):
///  * ProcessRecord / ProcessBatch / ProcessTrace / FlushEpoch / Quiesce
///    must be called from one thread (the driver). Records must arrive in
///    non-decreasing timestamp order, exactly as for ConfigurationRuntime.
///    With num_producers > 1 the runtime owns P-1 internal producer threads;
///    ProcessBatch stripes each epoch-run across them and joins before
///    returning, so the multi-producer fan-out is invisible to the caller.
///  * hfta() and counters() are live when the runtime runs inline; otherwise
///    they hold everything up to the last barrier and are stable (race-free)
///    between barriers.
///  * shard(i) exposes a shard's runtime for inspection. Inline it is always
///    safe to read; otherwise only between a barrier (or construction) and
///    the next ProcessRecord/ProcessBatch, while the workers are quiescent.
///    The same holds for shard_stats()/producer_stats().
class ShardedRuntime {
 public:
  struct Options {
    /// Number of shard replicas. At 1 with one producer the runtime runs
    /// inline on the caller's thread; otherwise each shard gets one worker
    /// thread.
    int num_shards = 1;
    /// Number of ingest producers. 1 (default) stages and enqueues on the
    /// driver thread. P > 1 adds P-1 internal producer threads;
    /// ProcessBatch splits each batch into contiguous stripes and all P
    /// producers hash/route/stage in parallel through their own queue rows.
    /// Epoch boundaries insert a quiescing barrier (all producers joined,
    /// all queues drained, every shard flushed) so each worker only ever
    /// interleaves same-epoch records — which keeps final aggregates
    /// bit-identical to the inline runtime for any producer/shard split.
    int num_producers = 1;
    /// Per-(producer, shard) queue capacity in *envelopes* (each envelope
    /// carries up to kEnvelopeBatch records); rounded up to a power of two.
    /// A producer blocks (spins) when a queue is full, so this bounds both
    /// memory and the producer/consumer skew. Unused inline.
    size_t queue_capacity = 4096;
    /// Pin worker threads (and internal producer threads) to CPUs chosen by
    /// AffinityLayout::Plan over the detected topology: producers spread
    /// across NUMA nodes, each shard consumer co-located with the producer
    /// that owns its busiest queue row. The driver thread (producer 0) is
    /// never pinned — it belongs to the caller. Pinning is best-effort;
    /// failures degrade to unpinned threads. Unused inline.
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
  /// (StreamAggEngine does; see core/engine.h). Producers do not replicate
  /// tables — only queues and staging buffers scale with num_producers.
  /// Results go to `results` (one slot per query laid out by its spec's
  /// query_metrics, outliving the runtime; StreamAggEngine passes its own),
  /// else to an HFTA the runtime owns.
  static Result<std::unique_ptr<ShardedRuntime>> Make(
      const Schema& schema, std::vector<RuntimeRelationSpec> specs,
      double epoch_seconds, Options options, Hfta* results = nullptr,
      uint64_t seed = 0x1f7a);

  /// Stops and joins workers and producer threads, if any; queued records
  /// are processed first.
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Feeds one record: a batch of one.
  void ProcessRecord(const Record& record);

  /// Feeds a batch of records (non-decreasing timestamps). Inline, the
  /// replica's ProcessBatch runs on the caller's thread. Otherwise each
  /// record is routed (via producer 0) to its shard's staging envelope,
  /// pushed to the shard's queue (blocking when full) once it holds
  /// kEnvelopeBatch records; partial envelopes are delivered by the next
  /// barrier, which is also when results become visible. Partitioning is
  /// per-record, so batch boundaries never affect results. With
  /// num_producers > 1 the batch is cut into epoch runs, each run striped
  /// across all P producers, and an epoch barrier quiesces the matrix
  /// between runs.
  void ProcessBatch(std::span<const Record> records);

  /// Feeds a whole trace, then runs the final epoch barrier.
  void ProcessTrace(const Trace& trace);

  /// Flushes every shard's current epoch. Inline that is the replica's own
  /// FlushEpoch. Otherwise it is the epoch barrier: quiesces the producers,
  /// drains every queue of the P x S matrix, flushes every shard, drains
  /// every replica's HFTA into the results and rebuilds the counters
  /// snapshot, blocking the caller until all shards have acknowledged.
  void FlushEpoch();

  /// Quiescence barrier *without* flushing: drains every queue of the
  /// matrix and every replica's HFTA, but leaves each shard's LFTA
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
  /// True at 1 x 1: no threads or queues, ProcessBatch runs the replica on
  /// the caller's thread, and every read is live.
  bool runs_inline() const { return inline_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_producers() const { return num_producers_; }
  /// A shard's replica; see the threading contract above.
  const ConfigurationRuntime& shard(int i) const { return *shards_[i]; }
  /// Ingest stats of shard `i` summed over its queue column (records routed
  /// to the shard by any producer; queue depth high-water mark is the max
  /// over the column). Safe while the producers are quiescent (same
  /// contract as shard()). All zero inline, where nothing is routed.
  ShardIngestStats shard_stats(int i) const;
  /// Ingest stats of producer `p` summed over its queue row (records the
  /// producer routed anywhere; depth HWM is the max over the row).
  ShardIngestStats producer_stats(int p) const;
  /// Sets the runtime telemetry tier on the producer-side gauges and every
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
  /// command for the worker. A worker acts on kFlush/kStop only once it has
  /// received one from *every* producer's queue — by then each FIFO queue
  /// has delivered everything pushed ahead of its marker, so the whole
  /// matrix column is drained.
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

  /// Hand-off slot of one internal producer thread: the driver publishes a
  /// stripe under the mutex and bumps `gen`; the producer stages it and
  /// reports back through `done`. One slot per producer keeps the hand-off
  /// contention-free across producers.
  struct ProducerSlot {
    std::mutex mutex;
    std::condition_variable cv;
    std::span<const Record> task;
    uint64_t gen = 0;   ///< Driver-incremented task generation.
    uint64_t done = 0;  ///< Last generation the producer completed.
    bool stop = false;
  };

  ShardedRuntime(const Schema& schema,
                 std::vector<std::unique_ptr<ConfigurationRuntime>> shards,
                 AttributeSet partition_attrs, Hfta* results,
                 double epoch_seconds, Options options);

  /// The shard a record routes to: the kShardHashSeed hash of its root
  /// projection, mod num_shards.
  int ShardOf(const Record& record) const;
  size_t QueueIndex(int producer, int shard) const {
    return static_cast<size_t>(producer) * shards_.size() +
           static_cast<size_t>(shard);
  }
  void PushBlocking(int producer, int shard, const Envelope& envelope);
  /// Appends `record` to producer `p`'s staging envelope for its shard,
  /// pushing it when full. Called on the owning producer's thread.
  void Stage(int producer, const Record& record);
  /// Stages a span of records as producer `p` (the per-producer inner loop).
  void StageSpan(int producer, std::span<const Record> records);
  /// Stripes `records` (all of one epoch) across the P producers and joins.
  void DispatchRun(std::span<const Record> records);
  /// Pushes every non-empty staging envelope of every producer. Driver-only,
  /// requires quiescent producers (FlushEpoch and destructor).
  void FlushStaging();
  /// Shared body of FlushEpoch/Quiesce: delivers staged records, pushes one
  /// `kind` marker down every queue of the matrix, waits for every shard's
  /// acknowledgement, then drains the replicas (DrainReplicas).
  void RunBarrier(Envelope::Kind kind);
  void WorkerLoop(int shard);
  void ProducerLoop(int producer);
  /// Drains every quiescent replica's HFTA into results_ and rebuilds
  /// merged_counters_.
  void DrainReplicas();

  Schema schema_;
  std::vector<std::unique_ptr<ConfigurationRuntime>> shards_;
  AttributeSet partition_attrs_;
  double epoch_seconds_ = 0.0;
  int num_producers_ = 1;

  /// P x S queue matrix, row-major by producer (QueueIndex). Producer p
  /// writes only row p; worker s reads only column s.
  std::vector<std::unique_ptr<SpscQueue<Envelope>>> queues_;
  /// Per-(producer, shard) staging envelopes, laid out like queues_; each
  /// row is owned by its producer thread.
  std::vector<Envelope> staging_;
  /// Per-(producer, shard) ingest telemetry, laid out like queues_; each
  /// row is owned by its producer thread.
  std::vector<ShardIngestStats> ingest_stats_;
  /// Producer-side copy of the telemetry tier (gates the gauges above; the
  /// shard replicas hold their own atomic copy).
  TelemetryLevel telemetry_level_ = TelemetryLevel::kFull;
  std::vector<std::thread> workers_;
  /// Internal producer threads 1..P-1 (producer 0 is the driver thread).
  std::vector<std::thread> producer_threads_;
  std::vector<std::unique_ptr<ProducerSlot>> producer_slots_;
  AffinityLayout layout_;
  bool pin_threads_ = false;

  /// 1 x 1: no threads, queues or staging (runs_inline()).
  const bool inline_;

  /// Epoch tracking on the driver (multi-producer path only): an epoch
  /// boundary inside ProcessBatch triggers the quiescing barrier before the
  /// next epoch's records are dispatched.
  uint64_t last_epoch_ = 0;
  bool saw_record_ = false;

  /// Barrier handshake: FlushEpoch sets pending = num_shards, each worker
  /// decrements after flushing; the mutex also orders the producer's
  /// subsequent reads of shard state after the workers' writes.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_pending_ = 0;

  std::unique_ptr<Hfta> owned_results_;  ///< P x S without Make's results.
  Hfta* results_;
  RuntimeCounters merged_counters_;
};

}  // namespace streamagg

#endif  // STREAMAGG_DSMS_SHARDED_RUNTIME_H_
