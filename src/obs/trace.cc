#include "obs/trace.h"

#include <algorithm>
#include <bit>

#include "obs/json.h"

namespace streamagg {

namespace {

/// Slot word layout (5 x uint64): start, duration, epoch,
/// type | tid << 8 | arg2 << 32, arg0 | arg1 << 32. tid is truncated to 24
/// bits — recorder-assigned ids count threads, not OS tids, so 16M thread
/// registrations would have to happen in one process before a collision.
void Encode(const TraceEvent& e, uint64_t words[5]) {
  words[0] = e.start_ns;
  words[1] = e.duration_ns;
  words[2] = e.epoch;
  words[3] = static_cast<uint64_t>(e.type) |
             (static_cast<uint64_t>(e.tid & 0xffffffu) << 8) |
             (static_cast<uint64_t>(e.arg2) << 32);
  words[4] = static_cast<uint64_t>(e.arg0) |
             (static_cast<uint64_t>(e.arg1) << 32);
}

TraceEvent Decode(const uint64_t words[5]) {
  TraceEvent e;
  e.start_ns = words[0];
  e.duration_ns = words[1];
  e.epoch = words[2];
  e.type = static_cast<TraceEventType>(words[3] & 0xff);
  e.tid = static_cast<uint32_t>((words[3] >> 8) & 0xffffffu);
  e.arg2 = static_cast<uint32_t>(words[3] >> 32);
  e.arg0 = static_cast<uint32_t>(words[4]);
  e.arg1 = static_cast<uint32_t>(words[4] >> 32);
  return e;
}

}  // namespace

const char* TraceEventName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kEpochBoundary:
      return "epoch_boundary";
    case TraceEventType::kEpochFlush:
      return "epoch_flush";
    case TraceEventType::kBarrier:
      return "barrier";
    case TraceEventType::kBarrierAck:
      return "barrier_ack";
    case TraceEventType::kBlockedPush:
      return "blocked_push";
    case TraceEventType::kTrendAssess:
      return "trend_assess";
    case TraceEventType::kReplanSwap:
      return "replan_swap";
    case TraceEventType::kShedPlanInstall:
      return "shed_plan_install";
    case TraceEventType::kQueryChurn:
      return "query_churn";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TraceRing

TraceRing::TraceRing(size_t capacity, uint32_t tid) : tid_(tid) {
  const size_t cap = std::bit_ceil(std::max<size_t>(capacity, 8));
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

void TraceRing::Append(const TraceEvent& event) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[head & mask_];
  uint64_t words[kWords];
  TraceEvent stamped = event;
  stamped.tid = tid_;
  Encode(stamped, words);
  // Per-slot seqlock, single writer: odd seq marks the slot in flux. The
  // words themselves are relaxed atomics, so a concurrent Snapshot never
  // races — it merely discards the slot when the seq moved under it.
  const uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_relaxed);
  head_.store(head + 1, std::memory_order_release);
}

void TraceRing::Snapshot(std::vector<TraceEvent>* out) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t capacity = mask_ + 1;
  const uint64_t n = std::min(head, capacity);
  for (uint64_t i = head - n; i < head; ++i) {
    const Slot& slot = slots_[i & mask_];
    const uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before & 1) continue;  // Mid-write: the writer lapped us here.
    uint64_t words[kWords];
    for (size_t w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
    out->push_back(Decode(words));
  }
}

void TraceRing::Clear() {
  const uint64_t capacity = mask_ + 1;
  for (uint64_t i = 0; i < capacity; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    for (size_t w = 0; w < kWords; ++w) {
      slots_[i].words[w].store(0, std::memory_order_relaxed);
    }
  }
  head_.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// FlightRecorder

/// Thread-local ring handle: releases the ring back to the recorder's free
/// list when the thread exits, so short-lived shard workers recycle rings
/// instead of accumulating them.
struct FlightRecorder::ThreadRingHandle {
  TraceRing* ring = nullptr;
  ~ThreadRingHandle() {
    if (ring != nullptr) FlightRecorder::Instance().ReleaseRing(ring);
  }
};

FlightRecorder& FlightRecorder::Instance() {
  // Leaky singleton: thread-exit destructors (ThreadRingHandle) may run
  // after static destruction, so the registry must never be torn down.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::set_ring_capacity(size_t events) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = std::max<size_t>(events, 8);
}

size_t FlightRecorder::ring_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_capacity_;
}

TraceRing* FlightRecorder::CurrentRing() {
  thread_local ThreadRingHandle handle;
  if (handle.ring == nullptr) handle.ring = AcquireRing();
  return handle.ring;
}

TraceRing* FlightRecorder::AcquireRing() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_rings_.empty()) {
    TraceRing* ring = free_rings_.back();
    free_rings_.pop_back();
    ring->set_tid(next_tid_++);
    return ring;
  }
  rings_.push_back(std::make_unique<TraceRing>(ring_capacity_, next_tid_++));
  return rings_.back().get();
}

void FlightRecorder::ReleaseRing(TraceRing* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_rings_.push_back(ring);
}

void FlightRecorder::RecordInstant(TraceEventType type, uint64_t epoch,
                                   uint32_t arg0, uint32_t arg1,
                                   uint32_t arg2) {
  if (!enabled()) return;
  TraceEvent e;
  e.start_ns = TelemetryNowNanos();
  e.epoch = epoch;
  e.type = type;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  CurrentRing()->Append(e);
}

void FlightRecorder::RecordSpan(TraceEventType type, uint64_t start_ns,
                                uint64_t epoch, uint32_t arg0, uint32_t arg1,
                                uint32_t arg2) {
  if (!enabled()) return;
  const uint64_t now = TelemetryNowNanos();
  TraceEvent e;
  e.start_ns = start_ns;
  e.duration_ns = now > start_ns ? now - start_ns : 1;
  e.epoch = epoch;
  e.type = type;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  CurrentRing()->Append(e);
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) ring->Snapshot(&events);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) ring->Clear();
}

size_t FlightRecorder::num_rings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rings_.size();
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

namespace {

/// Spells out the type-specific payload args (docs/tracing.md §2) under
/// their Chrome-trace names.
JsonValue EventArgs(const TraceEvent& e) {
  JsonValue args = JsonValue::Object();
  args.Set("epoch", JsonValue::Number(e.epoch));
  switch (e.type) {
    case TraceEventType::kEpochBoundary:
      args.Set("next_epoch", JsonValue::Number(uint64_t{e.arg0}));
      break;
    case TraceEventType::kEpochFlush:
    case TraceEventType::kBlockedPush:
      args.Set("shard", JsonValue::Number(uint64_t{e.arg0}));
      break;
    case TraceEventType::kBarrier:
      args.Set("kind", JsonValue::Str(e.arg0 == 0 ? "flush" : "quiesce"));
      break;
    case TraceEventType::kBarrierAck:
      args.Set("shard", JsonValue::Number(uint64_t{e.arg0}));
      args.Set("kind", JsonValue::Str(e.arg1 == 0 ? "flush" : "quiesce"));
      break;
    case TraceEventType::kTrendAssess:
      args.Set("should_replan", JsonValue::Bool(e.arg0 != 0));
      args.Set("max_table", JsonValue::Number(static_cast<int64_t>(
                                static_cast<int32_t>(e.arg1))));
      args.Set("drift_permille", JsonValue::Number(uint64_t{e.arg2}));
      break;
    case TraceEventType::kReplanSwap:
      args.Set("replanned_nodes", JsonValue::Number(uint64_t{e.arg0}));
      args.Set("pinned_nodes", JsonValue::Number(uint64_t{e.arg1}));
      break;
    case TraceEventType::kShedPlanInstall:
      args.Set("target_permille", JsonValue::Number(uint64_t{e.arg0}));
      args.Set("shedding_relations", JsonValue::Number(uint64_t{e.arg1}));
      break;
    case TraceEventType::kQueryChurn:
      args.Set("action", JsonValue::Str(e.arg0 != 0 ? "add" : "drop"));
      args.Set("query_id", JsonValue::Number(uint64_t{e.arg1}));
      args.Set("grafted", JsonValue::Bool(e.arg2 != 0));
      break;
  }
  return args;
}

}  // namespace

std::string TraceToChromeJson(std::span<const TraceEvent> events) {
  // Rebase timestamps to the earliest event: steady-clock nanoseconds since
  // boot make Chrome's timeline origin unreadable.
  uint64_t base_ns = 0;
  bool first = true;
  for (const TraceEvent& e : events) {
    if (first || e.start_ns < base_ns) base_ns = e.start_ns;
    first = false;
  }
  JsonValue trace_events = JsonValue::Array();
  for (const TraceEvent& e : events) {
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::Str(TraceEventName(e.type)));
    event.Set("cat", JsonValue::Str("streamagg"));
    const bool span = e.duration_ns > 0;
    event.Set("ph", JsonValue::Str(span ? "X" : "i"));
    // Chrome trace timestamps are microseconds (doubles keep sub-us).
    event.Set("ts", JsonValue::Number(
                        static_cast<double>(e.start_ns - base_ns) / 1000.0));
    if (span) {
      event.Set("dur", JsonValue::Number(
                           static_cast<double>(e.duration_ns) / 1000.0));
    } else {
      event.Set("s", JsonValue::Str("t"));  // Thread-scoped instant.
    }
    event.Set("pid", JsonValue::Number(uint64_t{1}));
    event.Set("tid", JsonValue::Number(uint64_t{e.tid}));
    event.Set("args", EventArgs(e));
    trace_events.Append(std::move(event));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", JsonValue::Str("ms"));
  return root.Dump();
}

std::string TraceToChromeJson() {
  const std::vector<TraceEvent> events = FlightRecorder::Instance().Snapshot();
  return TraceToChromeJson(std::span<const TraceEvent>(events));
}

}  // namespace streamagg
