#ifndef STREAMAGG_OBS_TRACE_H_
#define STREAMAGG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// Flight recorder (docs/tracing.md): an always-on, allocation-free record
/// of the runtime's *events* — epoch boundaries, barrier phases, SPSC
/// stalls, re-plan swaps, shed-plan installs, query churn — where the
/// telemetry layer (obs/telemetry.h) records only aggregates. Each thread
/// writes typed span/instant events into its own fixed-capacity ring
/// buffer; rings can be snapshotted from any thread without stopping
/// ingest, and the snapshot exports as Chrome trace-event JSON
/// (TraceToChromeJson) loadable in Perfetto / about://tracing.
///
/// Overhead discipline mirrors obs/metrics.h: instrumentation sites are
/// compiled out entirely below STREAMAGG_TELEMETRY_LEVEL 1 (wrap them in
/// STREAMAGG_TRACE(...)), and within a compiled-in binary the recorder is
/// runtime-gated — a disabled recorder costs one relaxed load per *event
/// site* (epoch/barrier/stall cadence, never per record or per batch).
/// BM_EngineTraceOverhead gates tracing-on within noise of tracing-off at
/// batch 64.
#if STREAMAGG_TELEMETRY_LEVEL >= 1
#define STREAMAGG_TRACE(...) __VA_ARGS__
#else
#define STREAMAGG_TRACE(...) \
  do {                       \
  } while (false)
#endif

namespace streamagg {

/// The event catalog (docs/tracing.md §2). Spans carry a nonzero duration;
/// instants mark a point in time. Payload args are type-specific. Values 7
/// and 10 belonged to the retired sort-drain probe mode's events, and 9 to
/// the retired ingest rebalance; they stay unused, so every other type keeps
/// its number:
enum class TraceEventType : uint8_t {
  kEpochBoundary = 0,  ///< instant: engine epoch advanced (arg0 = next epoch).
  kEpochFlush = 1,     ///< span: ConfigurationRuntime::FlushEpoch (arg0 = shard).
  kBarrier = 2,        ///< span: ShardedRuntime::RunBarrier (arg0 = kind: 0 flush, 1 quiesce).
  kBarrierAck = 3,     ///< instant: a worker acknowledged the barrier (arg0 = shard, arg1 = kind).
  kBlockedPush = 4,    ///< span: SPSC PushBlocking stall (arg0 = shard).
  kTrendAssess = 5,    ///< instant: AdaptiveController verdict (arg0 = should_replan, arg1 = max table, arg2 = drift permille).
  kReplanSwap = 6,     ///< span: re-plan + runtime swap (arg0 = replanned nodes, arg1 = pinned nodes).
  kShedPlanInstall = 8,  ///< instant: shed plan installed (arg0 = target permille, arg1 = shedding relations).
  kQueryChurn = 11,      ///< instant: query added/dropped (arg0 = 1 add / 0 drop, arg1 = query id, arg2 = 1 when grafted).
};

/// Chrome-trace event name of `type` ("epoch_flush", "blocked_push", ...).
const char* TraceEventName(TraceEventType type);

/// One decoded flight-recorder event. `duration_ns == 0` means an instant.
struct TraceEvent {
  uint64_t start_ns = 0;     ///< TelemetryNowNanos() at event start.
  uint64_t duration_ns = 0;  ///< Span length; 0 for instants.
  uint64_t epoch = 0;        ///< Engine/runtime epoch the event belongs to.
  uint32_t tid = 0;          ///< Recorder-assigned compact thread id.
  uint32_t arg0 = 0;         ///< Type-specific payload (see TraceEventType).
  uint32_t arg1 = 0;
  uint32_t arg2 = 0;
  TraceEventType type = TraceEventType::kEpochBoundary;
};

/// A fixed-capacity single-writer ring of trace events. The owning thread
/// appends; any thread may Snapshot concurrently. Each slot is a seqlock
/// over relaxed-atomic words: the writer never blocks (a wrapped slot is
/// simply overwritten), and a reader discards slots it caught mid-write —
/// snapshots are consistent per event, possibly missing events that wrapped
/// during the copy. All slot storage is allocated once at construction;
/// Append never allocates.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  TraceRing(size_t capacity, uint32_t tid);

  /// Owner thread only. Overwrites the oldest event once full.
  void Append(const TraceEvent& event);

  /// Copies the ring's consistent events into `out` (appending), oldest
  /// first. Safe from any thread while the owner keeps appending.
  void Snapshot(std::vector<TraceEvent>* out) const;

  size_t capacity() const { return mask_ + 1; }
  uint32_t tid() const { return tid_; }
  /// Events ever appended; head() - capacity() of them (if positive) have
  /// been overwritten.
  uint64_t head() const { return head_.load(std::memory_order_acquire); }

  /// Re-assigns the ring to a new owner thread (FlightRecorder's free-list
  /// reuse); existing events keep the tid they were recorded under.
  void set_tid(uint32_t tid) { tid_ = tid; }
  /// Drops all events. Only while no thread is appending.
  void Clear();

 private:
  static constexpr size_t kWords = 5;
  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> words[kWords];
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  uint32_t tid_;
  std::atomic<uint64_t> head_{0};
};

/// The process-wide recorder: a registry of per-thread rings plus the
/// runtime enable gate. Threads register lazily on their first event (one
/// mutex-guarded allocation, never on a recording path again); rings of
/// exited threads return to a free list and are re-assigned to new threads
/// under a fresh tid, so worker churn (adaptive runtime swaps spawn fresh
/// shard workers) cannot grow memory without bound.
class FlightRecorder {
 public:
  /// The process-wide instance (leaky singleton — safe from thread-exit
  /// destructors).
  static FlightRecorder& Instance();

  /// Runtime gate, checked with one relaxed load per event site. Disabled
  /// by default; tools (engine_monitor, streamagg_cli --trace-json) enable
  /// it for the run.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Per-ring capacity (events) for rings created *after* the call;
  /// existing rings keep their size. Default 4096 (docs/tracing.md §3).
  void set_ring_capacity(size_t events);
  size_t ring_capacity() const;

  /// Records an instant event (no-op while disabled).
  void RecordInstant(TraceEventType type, uint64_t epoch, uint32_t arg0 = 0,
                     uint32_t arg1 = 0, uint32_t arg2 = 0);
  /// Records a span from `start_ns` (a TelemetryNowNanos() stamp taken when
  /// the span opened) to now. No-op while disabled — callers gate the start
  /// stamp on enabled() so a disabled site never reads the clock.
  void RecordSpan(TraceEventType type, uint64_t start_ns, uint64_t epoch,
                  uint32_t arg0 = 0, uint32_t arg1 = 0, uint32_t arg2 = 0);

  /// Copies every ring's consistent events (live and free-listed), sorted
  /// by start time. Does not stop or perturb writers.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all recorded events; rings stay registered. Call only while no
  /// thread is recording (tests, between runs).
  void Clear();

  /// Rings ever created (live + free).
  size_t num_rings() const;

 private:
  FlightRecorder() = default;

  TraceRing* CurrentRing();
  TraceRing* AcquireRing();
  void ReleaseRing(TraceRing* ring);

  struct ThreadRingHandle;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<TraceRing*> free_rings_;
  size_t ring_capacity_ = 4096;
  uint32_t next_tid_ = 0;
};

/// Renders events as Chrome trace-event JSON ("JSON object format":
/// {"traceEvents": [...]}), loadable in Perfetto / about://tracing. Spans
/// become complete events (ph "X"), instants thread-scoped instants (ph
/// "i"); timestamps are microseconds rebased to the earliest event; the
/// payload args are spelled out per type ({"epoch": .., "shard": ..}).
std::string TraceToChromeJson(std::span<const TraceEvent> events);

/// Convenience: snapshots FlightRecorder::Instance() and renders it —
/// rings are copied consistently without stopping ingest.
std::string TraceToChromeJson();

}  // namespace streamagg

#endif  // STREAMAGG_OBS_TRACE_H_
