// Flight recorder (obs/trace.h): ring wraparound and seqlock consistency,
// the runtime enable gate, Chrome trace-event JSON export (schema and an
// exact golden string), and end-to-end engine integration — a traced run
// must leave epoch/flush/barrier events behind.
//
// FlightRecorder is process-global: every test that enables it restores
// enabled=false and Clear()s before returning, so tests stay independent
// under any gtest ordering.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/json.h"
#include "stream/uniform_generator.h"

namespace streamagg {
namespace {

TraceEvent MakeEvent(TraceEventType type, uint64_t start_ns,
                     uint64_t duration_ns, uint64_t epoch, uint32_t arg0 = 0,
                     uint32_t arg1 = 0, uint32_t arg2 = 0) {
  TraceEvent e;
  e.type = type;
  e.start_ns = start_ns;
  e.duration_ns = duration_ns;
  e.epoch = epoch;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  return e;
}

// Restores the global recorder to its default (disabled, empty) state.
void ResetRecorder() {
  FlightRecorder::Instance().set_enabled(false);
  FlightRecorder::Instance().Clear();
}

// ---------------------------------------------------------------------------
// TraceRing

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1, 0).capacity(), 8u);   // Min 8.
  EXPECT_EQ(TraceRing(8, 0).capacity(), 8u);
  EXPECT_EQ(TraceRing(9, 0).capacity(), 16u);
  EXPECT_EQ(TraceRing(4096, 0).capacity(), 4096u);
}

TEST(TraceRingTest, WrapAroundKeepsNewestEvents) {
  TraceRing ring(8, /*tid=*/3);
  // Append 3x the capacity; only the last `capacity` events survive.
  const uint64_t kTotal = 24;
  for (uint64_t i = 0; i < kTotal; ++i) {
    ring.Append(MakeEvent(TraceEventType::kEpochBoundary, /*start_ns=*/100 + i,
                          /*duration_ns=*/0, /*epoch=*/i));
  }
  EXPECT_EQ(ring.head(), kTotal);

  std::vector<TraceEvent> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), ring.capacity());
  // Oldest-first, exactly epochs [16, 24), all stamped with the ring's tid.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].epoch, kTotal - ring.capacity() + i);
    EXPECT_EQ(out[i].start_ns, 100 + kTotal - ring.capacity() + i);
    EXPECT_EQ(out[i].tid, 3u);
  }
}

TEST(TraceRingTest, SnapshotAppendsAndClearDrops) {
  TraceRing ring(8, 0);
  ring.Append(MakeEvent(TraceEventType::kShedPlanInstall, 10, 0, 1, 4));
  ring.Append(MakeEvent(TraceEventType::kEpochFlush, 20, 5, 1));

  std::vector<TraceEvent> out;
  out.push_back(MakeEvent(TraceEventType::kBarrier, 1, 1, 0));  // Pre-existing.
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].type, TraceEventType::kShedPlanInstall);
  EXPECT_EQ(out[1].arg0, 4u);
  EXPECT_EQ(out[2].type, TraceEventType::kEpochFlush);
  EXPECT_EQ(out[2].duration_ns, 5u);

  ring.Clear();
  out.clear();
  ring.Snapshot(&out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ring.head(), 0u);
}

// The seqlock contract: a reader racing a writer never observes a torn
// event. Every appended event carries the invariant arg2 == arg0 + arg1
// and epoch == start_ns, so any mix of fields from two different writes is
// detectable. Run under TSan in CI (thread-sanitizer job).
TEST(TraceRingTest, ConcurrentSnapshotSeesOnlyConsistentEvents) {
  TraceRing ring(16, 9);
  std::atomic<bool> stop{false};

  std::thread writer([&ring, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t a = static_cast<uint32_t>(i * 3 + 1);
      const uint32_t b = static_cast<uint32_t>(i * 7 + 2);
      ring.Append(MakeEvent(TraceEventType::kEpochFlush, /*start_ns=*/i,
                            /*duration_ns=*/1, /*epoch=*/i, a, b, a + b));
      ++i;
    }
  });

  size_t total_seen = 0;
  int rounds = 0;
  while (rounds < 200) {
    std::vector<TraceEvent> out;
    ring.Snapshot(&out);
    if (out.empty()) {
      // Single-CPU schedulers can starve the writer; let it run.
      std::this_thread::yield();
      continue;
    }
    ++rounds;
    total_seen += out.size();
    for (const TraceEvent& e : out) {
      // No torn fields. (Slot *order* is not asserted: a writer that laps
      // the reader mid-scan can legitimately leave a newer event in an
      // earlier slot; per-event consistency is the seqlock's contract.)
      ASSERT_EQ(e.arg2, e.arg0 + e.arg1);
      ASSERT_EQ(e.epoch, e.start_ns);
      ASSERT_EQ(e.type, TraceEventType::kEpochFlush);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(total_seen, 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  ResetRecorder();
  FlightRecorder& rec = FlightRecorder::Instance();
  ASSERT_FALSE(rec.enabled());
  rec.RecordInstant(TraceEventType::kEpochBoundary, 1);
  rec.RecordSpan(TraceEventType::kEpochFlush, TelemetryNowNanos(), 1);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(FlightRecorderTest, RecordsInstantsAndSpansWhenEnabled) {
  ResetRecorder();
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.set_enabled(true);

  rec.RecordInstant(TraceEventType::kShedPlanInstall, /*epoch=*/7,
                    /*arg0=*/500, /*arg1=*/2);
  const uint64_t start = TelemetryNowNanos();
  rec.RecordSpan(TraceEventType::kBarrier, start, /*epoch=*/7, /*arg0=*/1);

  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot() sorts by start time: the instant was recorded first.
  EXPECT_EQ(events[0].type, TraceEventType::kShedPlanInstall);
  EXPECT_EQ(events[0].duration_ns, 0u);  // Instant.
  EXPECT_EQ(events[0].epoch, 7u);
  EXPECT_EQ(events[0].arg0, 500u);
  EXPECT_EQ(events[1].type, TraceEventType::kBarrier);
  EXPECT_GT(events[1].duration_ns, 0u);  // Span, clamped to >= 1.
  EXPECT_EQ(events[1].start_ns, start);
  ResetRecorder();
}

TEST(FlightRecorderTest, ThreadsGetDistinctTidsAndRingsAreReused) {
  ResetRecorder();
  FlightRecorder& rec = FlightRecorder::Instance();
  rec.set_enabled(true);
  const size_t rings_before = rec.num_rings();

  // Two short-lived threads record one event each, sequentially: the second
  // must reuse the first's freed ring (under a fresh tid), so the registry
  // grows by at most one ring total.
  for (int i = 0; i < 2; ++i) {
    std::thread t([&rec, i] {
      rec.RecordInstant(TraceEventType::kShedPlanInstall,
                        /*epoch=*/uint64_t(i), /*arg0=*/uint32_t(i));
    });
    t.join();
  }
  EXPECT_LE(rec.num_rings(), rings_before + 1);

  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Distinct compact tids even though the ring was reused.
  EXPECT_NE(events[0].tid, events[1].tid);
  ResetRecorder();
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

TEST(TraceCatalogTest, DocsTableNamesEveryEventType) {
  // docs/tracing.md §2 is the catalog operators read: its table names every
  // event the recorder can emit, by its Chrome-export name, and nothing
  // else. Rows look like "| `name` | kind | payload | emitted by |".
  const std::string path = std::string(STREAMAGG_DOCS_DIR) + "/tracing.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::set<std::string> documented;
  bool in_catalog = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_catalog = line.rfind("## 2. Event catalog", 0) == 0;
      continue;
    }
    if (!in_catalog || line.rfind("| `", 0) != 0) continue;
    const size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_TRUE(documented.insert(line.substr(3, end - 3)).second)
        << "duplicate row: " << line;
  }
  std::set<std::string> defined;
  for (int value = 0; value < 256; ++value) {
    const std::string name =
        TraceEventName(static_cast<TraceEventType>(value));
    if (name != "unknown") defined.insert(name);
  }
  ASSERT_FALSE(defined.empty());
  EXPECT_EQ(documented, defined);
}

TEST(TraceToChromeJsonTest, SchemaParsesAndCarriesEventFields) {
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(TraceEventType::kEpochFlush, /*start_ns=*/5000,
                             /*duration_ns=*/1500, /*epoch=*/2, /*arg0=*/1));
  events.push_back(MakeEvent(TraceEventType::kBarrierAck, /*start_ns=*/9000,
                             /*duration_ns=*/0, /*epoch=*/2, /*arg0=*/1,
                             /*arg1=*/1));
  events.push_back(MakeEvent(TraceEventType::kTrendAssess, /*start_ns=*/12000,
                             /*duration_ns=*/0, /*epoch=*/3, /*arg0=*/1,
                             /*arg1=*/static_cast<uint32_t>(-1),
                             /*arg2=*/125));
  events[1].tid = 4;

  auto parsed = JsonValue::Parse(TraceToChromeJson(events));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Get("displayTimeUnit").AsString(), "ms");
  const JsonValue& list = parsed->Get("traceEvents");
  ASSERT_TRUE(list.is_array());
  ASSERT_EQ(list.size(), 3u);

  // Span: ph "X" with dur; timestamps rebased to the earliest event and
  // converted to microseconds.
  const JsonValue& flush = list.at(0);
  EXPECT_EQ(flush.Get("name").AsString(), "epoch_flush");
  EXPECT_EQ(flush.Get("cat").AsString(), "streamagg");
  EXPECT_EQ(flush.Get("ph").AsString(), "X");
  EXPECT_DOUBLE_EQ(flush.Get("ts").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(flush.Get("dur").AsDouble(), 1.5);
  EXPECT_EQ(flush.Get("pid").AsUint64(), 1u);
  EXPECT_EQ(flush.Get("args").Get("epoch").AsUint64(), 2u);
  EXPECT_EQ(flush.Get("args").Get("shard").AsUint64(), 1u);

  // Instant: ph "i", thread scope, no dur.
  const JsonValue& ack = list.at(1);
  EXPECT_EQ(ack.Get("name").AsString(), "barrier_ack");
  EXPECT_EQ(ack.Get("ph").AsString(), "i");
  EXPECT_EQ(ack.Get("s").AsString(), "t");
  EXPECT_FALSE(ack.Has("dur"));
  EXPECT_DOUBLE_EQ(ack.Get("ts").AsDouble(), 4.0);
  EXPECT_EQ(ack.Get("tid").AsUint64(), 4u);
  EXPECT_EQ(ack.Get("args").Get("kind").AsString(), "quiesce");

  // Type-specific args spell out signed fields correctly.
  const JsonValue& trend = list.at(2);
  EXPECT_TRUE(trend.Get("args").Get("should_replan").AsBool());
  EXPECT_EQ(trend.Get("args").Get("max_table").AsInt64(), -1);
  EXPECT_EQ(trend.Get("args").Get("drift_permille").AsUint64(), 125u);
}

TEST(TraceToChromeJsonTest, GoldenTwoEventTrace) {
  // Dump() is deterministic (insertion-ordered keys, %.17g doubles, PRIu64
  // integers), so the full export is an exact string.
  std::vector<TraceEvent> events;
  events.push_back(MakeEvent(TraceEventType::kEpochFlush, /*start_ns=*/1000,
                             /*duration_ns=*/2500, /*epoch=*/3, /*arg0=*/1));
  events[0].tid = 7;
  events.push_back(MakeEvent(TraceEventType::kEpochBoundary,
                             /*start_ns=*/4000, /*duration_ns=*/0,
                             /*epoch=*/3, /*arg0=*/4));
  events[1].tid = 8;

  EXPECT_EQ(
      TraceToChromeJson(events),
      "{\"traceEvents\":["
      "{\"name\":\"epoch_flush\",\"cat\":\"streamagg\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":2.5,\"pid\":1,\"tid\":7,"
      "\"args\":{\"epoch\":3,\"shard\":1}},"
      "{\"name\":\"epoch_boundary\",\"cat\":\"streamagg\",\"ph\":\"i\","
      "\"ts\":3,\"s\":\"t\",\"pid\":1,\"tid\":8,"
      "\"args\":{\"epoch\":3,\"next_epoch\":4}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceToChromeJsonTest, EmptyEventListIsValidJson) {
  EXPECT_EQ(TraceToChromeJson(std::span<const TraceEvent>()),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// ---------------------------------------------------------------------------
// Engine integration

Trace UniformTrace(uint64_t groups, size_t n, uint64_t seed) {
  auto gen =
      std::move(UniformGenerator::Make(*Schema::Default(4), groups, seed))
          .value();
  return Trace::Generate(*gen, n, 10.0);
}

std::set<TraceEventType> EventTypes(const std::vector<TraceEvent>& events) {
  std::set<TraceEventType> types;
  for (const TraceEvent& e : events) types.insert(e.type);
  return types;
}

TEST(FlightRecorderEngineTest, SerialRunRecordsEpochLifecycle) {
  ResetRecorder();
  FlightRecorder::Instance().set_enabled(true);

  const Trace trace = UniformTrace(400, 60000, 11);
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 20000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  auto engine = StreamAggEngine::FromQueryTexts(
      trace.schema(),
      {"select A, B, count(*) from R group by A, B, time/2"}, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const std::vector<TraceEvent> events = FlightRecorder::Instance().Snapshot();
  const std::set<TraceEventType> types = EventTypes(events);
  // A 10-second trace over 2-second epochs crosses several boundaries, each
  // flushing the LFTA tables.
  EXPECT_TRUE(types.count(TraceEventType::kEpochBoundary));
  EXPECT_TRUE(types.count(TraceEventType::kEpochFlush));
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kEpochFlush) {
      EXPECT_GT(e.duration_ns, 0u);  // Flushes are spans.
      EXPECT_EQ(e.arg0, 0u);         // Serial runtime is trace id 0.
    }
  }
  ResetRecorder();
}

TEST(FlightRecorderEngineTest, ShardedRunRecordsBarriersAndAcks) {
  ResetRecorder();
  FlightRecorder::Instance().set_enabled(true);

  const Trace trace = UniformTrace(400, 60000, 13);
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 20000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  options.num_shards = 2;
  // Epoch snapshots quiesce the shard matrix at each boundary — that's the
  // quiesce-barrier path this test pins down.
  options.telemetry_epoch_snapshots = true;
  auto engine = StreamAggEngine::FromQueryTexts(
      trace.schema(),
      {"select A, B, count(*) from R group by A, B, time/2"}, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (const Record& r : trace.records()) {
    ASSERT_TRUE((*engine)->Process(r).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  const std::vector<TraceEvent> events = FlightRecorder::Instance().Snapshot();
  const std::set<TraceEventType> types = EventTypes(events);
  EXPECT_TRUE(types.count(TraceEventType::kBarrier));
  EXPECT_TRUE(types.count(TraceEventType::kBarrierAck));
  EXPECT_TRUE(types.count(TraceEventType::kEpochFlush));

  // Every barrier ack names a valid shard; the quiesce barrier from
  // Finish() must be present (kind = 1).
  bool saw_quiesce = false;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kBarrierAck) {
      EXPECT_LT(e.arg0, 2u);
      if (e.arg1 == 1) saw_quiesce = true;
    }
  }
  EXPECT_TRUE(saw_quiesce);
  // Both shard workers recorded flushes under their own trace ids.
  std::set<uint32_t> flush_shards;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kEpochFlush) flush_shards.insert(e.arg0);
  }
  EXPECT_EQ(flush_shards, (std::set<uint32_t>{0, 1}));
  ResetRecorder();
}

TEST(FlightRecorderEngineTest, ChurnSwapRunsOneFlushBarrier) {
  // A churn swap on a sharded engine retires the runtime with a single
  // FlushEpoch barrier: the flush already drains the shard queues, so no
  // Quiesce barrier may precede it.
  ResetRecorder();
  FlightRecorder::Instance().set_enabled(true);

  const Trace trace = UniformTrace(400, 60000, 19);
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 20000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  options.num_shards = 2;
  auto engine = StreamAggEngine::FromQueryTexts(
      trace.schema(),
      {"select A, B, count(*) from R group by A, B, time/2",
       "select C, count(*) from R group by C, time/2"},
      options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::span<const Record> records(trace.records());
  ASSERT_TRUE((*engine)->ProcessBatch(records.first(30000)).ok());
  ASSERT_TRUE((*engine)->planned());

  // Kinds (0 flush, 1 quiesce) of the barrier spans started since `from`.
  const auto barriers_since = [](uint64_t from) {
    std::vector<uint32_t> kinds;
    for (const TraceEvent& e : FlightRecorder::Instance().Snapshot()) {
      if (e.type == TraceEventType::kBarrier && e.start_ns >= from) {
        kinds.push_back(e.arg0);
      }
    }
    return kinds;
  };
  uint64_t start = TelemetryNowNanos();
  auto added =
      (*engine)->AddQuery("select B, C, count(*) from R group by B, C, time/2");
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(barriers_since(start), std::vector<uint32_t>{0});

  ASSERT_TRUE((*engine)->ProcessBatch(records.subspan(30000, 10000)).ok());
  start = TelemetryNowNanos();
  ASSERT_TRUE((*engine)->DropQuery(1).ok());  // Not an alias: prune + swap.
  EXPECT_EQ(barriers_since(start), std::vector<uint32_t>{0});
  ASSERT_EQ((*engine)->churn_events().size(), 2u);
  EXPECT_FALSE((*engine)->churn_events().back().aliased);
  ResetRecorder();
}

}  // namespace
}  // namespace streamagg
