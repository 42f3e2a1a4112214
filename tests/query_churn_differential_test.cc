// Query-churn differential harness (docs/query_frontend.md §4): an engine
// whose query set changes mid-stream (AddQuery/DropQuery at arbitrary
// record positions) must stay epoch-for-epoch bit-identical to the serial
// reference aggregation computed over each query's own lifetime window —
// the sub-trace from the record where it was added to the record where it
// was dropped. Runs seeded random add/drop schedules over every shard count
// of the acceptance matrix, including schedules interleaved
// with adaptive re-plans and an engaged overload controller, at several
// batch sizes. Serial engines are also read at every epoch boundary, so a
// closed epoch that a churn swap split must already serve both parts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dsms/reference_aggregator.h"
#include "engine_parity.h"
#include "stream/zipf_generator.h"

namespace streamagg {
namespace {

/// Base seed for the randomized schedules; override with
/// STREAMAGG_DIFF_SEED=<n> to explore other draws (CI runs three — the
/// invariants here hold for every draw, not just the defaults).
uint64_t HarnessSeed() {
  if (const char* env = std::getenv("STREAMAGG_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 4242;
}

Trace ZipfTrace(uint64_t seed) {
  const Schema schema = *Schema::Default(4);
  auto universe = GroupUniverse::Uniform(schema, 800, {60, 60, 60, 60}, seed);
  auto gen =
      std::move(ZipfGenerator::Make(std::move(*universe), 1.0, seed + 1))
          .value();
  return Trace::Generate(*gen, 60000, 12.0);
}

StreamAggEngine::Options BaseOptions(int shards) {
  StreamAggEngine::Options options;
  options.memory_words = 30000.0;
  options.sample_size = 10000;
  options.epoch_seconds = 2.0;
  options.clustered = false;
  options.num_shards = shards;
  return options;
}

/// The acceptance matrix's shard counts.
constexpr int kShardCounts[] = {1, 4};

/// The records of `trace` in [begin, end), as a replayable trace (epoch
/// boundaries stay aligned: references use absolute timestamps).
Trace SubTrace(const Trace& trace, size_t begin, size_t end) {
  Trace sub(trace.schema());
  sub.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) sub.Append(trace.record(i));
  sub.set_duration_seconds(trace.duration_seconds());
  return sub;
}

/// One query id's lifetime: the record index where it joined and the index
/// where it was dropped (trace end when it survived).
struct Window {
  QueryDef def;
  size_t begin = 0;
  size_t end = 0;
};

/// Asserts query id `id` holds exactly the reference aggregation of its
/// lifetime window — every epoch, every group, count AND metric states.
void ExpectWindowMatches(const StreamAggEngine& engine, const Trace& trace,
                         int id, const Window& window, double epoch_seconds) {
  const Trace sub = SubTrace(trace, window.begin, window.end);
  const auto expected = ComputeReferenceAggregate(
      sub, window.def.group_by, epoch_seconds, window.def.metrics);
  const std::vector<uint64_t> epochs = engine.Epochs(id);
  ASSERT_EQ(epochs.size(), expected.size())
      << "query id " << id << " window [" << window.begin << ", "
      << window.end << ")";
  for (const auto& [epoch, groups] : expected) {
    const EpochAggregate& actual = engine.EpochResult(id, epoch);
    ASSERT_EQ(actual.size(), groups.size())
        << "query id " << id << " epoch " << epoch;
    for (const auto& [key, state] : groups) {
      auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << "query id " << id << " epoch " << epoch
                                  << " missing " << key.ToString();
      EXPECT_TRUE(it->second == state)
          << "query id " << id << " epoch " << epoch << " " << key.ToString()
          << ": " << it->second.ToString() << " != " << state.ToString();
    }
  }
}

/// Asserts that every query id serves epoch `epoch` — closed once the
/// first `fed` records went in — exactly: the reference over the records of
/// that epoch inside the id's window so far.
void ExpectClosedEpochMatches(const StreamAggEngine& engine,
                              const Trace& trace,
                              const std::map<int, Window>& windows,
                              uint64_t epoch, size_t fed) {
  const double seconds = engine.epoch_seconds();
  const auto epoch_of = [&](size_t i) {
    return static_cast<uint64_t>(trace.record(i).timestamp / seconds);
  };
  size_t first = 0;
  while (first < fed && epoch_of(first) < epoch) ++first;
  size_t last = first;
  while (last < fed && epoch_of(last) == epoch) ++last;
  for (const auto& [id, window] : windows) {
    const size_t begin = std::max(first, window.begin);
    const size_t end = std::min(last, window.end);
    EpochAggregate expected;
    if (begin < end) {
      const auto reference =
          ComputeReferenceAggregate(SubTrace(trace, begin, end),
                                    window.def.group_by, seconds,
                                    window.def.metrics);
      auto it = reference.find(epoch);
      if (it != reference.end()) expected = it->second;
    }
    EXPECT_TRUE(engine.EpochResult(id, epoch) == expected)
        << "query id " << id << " read at the close of epoch " << epoch;
  }
}

/// Feeds `trace` through `engine` in calls of at most `batch` records while
/// executing a seeded random churn schedule: `churn_points` add/drop
/// actions at sorted record indices in [first_churn_index, size - 1000),
/// never dropping below two live queries and only adding group-bys not
/// currently live (alias semantics get their own test). Fills `windows`
/// with the lifetime window per query id. With `read_closed_epochs` (serial
/// engines, whose results are live mid-stream) every epoch is checked as
/// soon as the next one opens.
void RunChurnSchedule(StreamAggEngine* engine, const Trace& trace,
                      const std::vector<QueryDef>& initial, uint64_t seed,
                      int churn_points, size_t first_churn_index,
                      std::map<int, Window>* windows, size_t batch,
                      bool read_closed_epochs) {
  const Schema& schema = trace.schema();
  std::mt19937_64 rng(seed);
  const std::vector<std::string> pool = {"A",   "B",   "C",   "D",   "AC",
                                         "AD",  "BC",  "BD",  "ABC", "ABD",
                                         "ACD", "BCD", "ABCD"};
  const std::vector<std::vector<MetricSpec>> metric_pool = {
      {},
      {{AggregateOp::kSum, 0}},
      {{AggregateOp::kMin, 1}, {AggregateOp::kMax, 2}},
  };

  for (size_t i = 0; i < initial.size(); ++i) {
    (*windows)[static_cast<int>(i)] = Window{initial[i], 0, trace.size()};
  }

  std::vector<size_t> points;
  std::uniform_int_distribution<size_t> at(first_churn_index,
                                           trace.size() - 1000);
  for (int i = 0; i < churn_points; ++i) points.push_back(at(rng));
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  size_t next_point = 0;
  uint64_t open_epoch = 0;
  for (size_t i = 0; i < trace.size();) {
    while (next_point < points.size() && points[next_point] == i) {
      ++next_point;
      std::vector<int> live;
      for (const auto& [id, w] : *windows) {
        if (engine->IsLive(id)) live.push_back(id);
      }
      const bool add = live.size() < 2 || (rng() & 1) == 0;
      if (add) {
        // Draw a group-by no live query holds (distinct sets only — the
        // alias path is covered by AliasAddAndDropKeepSlotExact).
        QueryDef def;
        for (int tries = 0; tries < 64 && def.group_by.empty(); ++tries) {
          AttributeSet set =
              *schema.ParseAttributeSet(pool[rng() % pool.size()]);
          bool taken = false;
          for (int id : live) {
            if ((*windows)[id].def.group_by == set) taken = true;
          }
          if (!taken) {
            def = QueryDef(set, metric_pool[rng() % metric_pool.size()]);
          }
        }
        if (def.group_by.empty()) continue;
        auto id = engine->AddQuery(def);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        (*windows)[*id] = Window{def, i, trace.size()};
      } else {
        const int victim = live[rng() % live.size()];
        const Status dropped = engine->DropQuery(victim);
        ASSERT_TRUE(dropped.ok()) << dropped.ToString();
        (*windows)[victim].end = i;
      }
    }
    // One call, cut short at the next churn point.
    size_t end = std::min(trace.size(), i + batch);
    if (next_point < points.size()) end = std::min(end, points[next_point]);
    const Status status = FeedInCalls(
        engine, std::span<const Record>(trace.records()).subspan(i, end - i),
        batch);
    ASSERT_TRUE(status.ok()) << status.ToString();
    i = end;
    if (!read_closed_epochs || !engine->planned()) continue;
    const uint64_t now = static_cast<uint64_t>(
        trace.record(i - 1).timestamp / engine->epoch_seconds());
    for (; open_epoch < now; ++open_epoch) {
      ExpectClosedEpochMatches(*engine, trace, *windows, open_epoch, i);
    }
  }
  const Status finished = engine->Finish();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
}

TEST(QueryChurnDifferentialTest, RandomScheduleBitIdenticalOnAllSplits) {
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c1);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  for (int shards : kShardCounts) {
    std::unique_ptr<StreamAggEngine> per_record;
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " batch=" + std::to_string(batch));
      auto engine = StreamAggEngine::FromQueryDefs(schema, initial,
                                                   BaseOptions(shards));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();

      std::map<int, Window> windows;
      RunChurnSchedule(&**engine, trace, initial,
                       HarnessSeed() + 31 + shards,
                       /*churn_points=*/8, /*first_churn_index=*/12000,
                       &windows, batch, /*read_closed_epochs=*/shards == 1);
      if (::testing::Test::HasFatalFailure()) return;

      for (const auto& [id, window] : windows) {
        ExpectWindowMatches(**engine, trace, id, window, 2.0);
      }
      // Every churn action is on the record, oldest first.
      EXPECT_EQ((*engine)->churn_events().size(),
                windows.size() - initial.size() +
                    static_cast<size_t>(std::count_if(
                        windows.begin(), windows.end(), [&](const auto& w) {
                          return w.second.end != trace.size();
                        })));
      if (batch == 1) {
        per_record = std::move(*engine);
      } else {
        ExpectSameEngineRecord(**engine, *per_record, "churn schedule");
      }
    }
  }
}

TEST(QueryChurnDifferentialTest, ChurnInterleavedWithAdaptiveReplans) {
  // The same invariant with drift-triggered re-planning live: adaptive
  // swaps between (and around) churn points must not disturb any query's
  // lifetime window.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c2);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  for (int shards : kShardCounts) {
    StreamAggEngine::Options options = BaseOptions(shards);
    options.adaptive = true;
    options.adaptive_options.trend_epochs = 2;
    options.adaptive_options.deviation_threshold = 0.05;
    options.adaptive_options.absolute_floor = 0.01;
    options.adaptive_options.min_probes_per_table = 100;
    std::unique_ptr<StreamAggEngine> per_record;
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " batch=" + std::to_string(batch));
      auto engine = StreamAggEngine::FromQueryDefs(schema, initial, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();

      std::map<int, Window> windows;
      RunChurnSchedule(&**engine, trace, initial, HarnessSeed() + 0x0c2a,
                       /*churn_points=*/6, /*first_churn_index=*/12000,
                       &windows, batch, /*read_closed_epochs=*/shards == 1);
      if (::testing::Test::HasFatalFailure()) return;

      for (const auto& [id, window] : windows) {
        ExpectWindowMatches(**engine, trace, id, window, 2.0);
      }
      if (batch == 1) {
        per_record = std::move(*engine);
      } else {
        ExpectSameEngineRecord(**engine, *per_record, "churn with re-plans");
      }
    }
  }
}

TEST(QueryChurnDifferentialTest, ChurnWithIdleOverloadControllerIsExact) {
  // Churn with the overload controller engaged but never shedding
  // (unreachable watermarks, zero floor): the controller re-prices its
  // plan at every churn swap yet results must stay exact.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c3);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  StreamAggEngine::Options options = BaseOptions(4);
  options.overload.enabled = true;
  options.overload.queue_blocked_fraction = 1e9;  // Never reachable.
  options.overload.epoch_gap_watermark_ns = 0;    // Signal disabled.
  options.overload.min_shed_fraction = 0.0;
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto engine = StreamAggEngine::FromQueryDefs(schema, initial, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    std::map<int, Window> windows;
    RunChurnSchedule(&**engine, trace, initial, HarnessSeed() + 0x0c3a,
                     /*churn_points=*/6, /*first_churn_index=*/12000,
                     &windows, batch, /*read_closed_epochs=*/false);
    if (::testing::Test::HasFatalFailure()) return;

    for (const auto& [id, window] : windows) {
      ExpectWindowMatches(**engine, trace, id, window, 2.0);
    }
    EXPECT_EQ((*engine)->counters().shed_probes, 0u);
  }
}

TEST(QueryChurnDifferentialTest, ChurnUnderActiveShedPlanRunsToCompletion) {
  // With a forced shed floor results are deliberately lossy, so the
  // differential becomes an accounting check: the engine survives churn
  // under an active shed plan, every record is offered, the shed books
  // close exactly, and dropped queries keep serving their archive.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c4);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  StreamAggEngine::Options options = BaseOptions(4);
  options.telemetry_level = TelemetryLevel::kCounters;
  options.overload.enabled = true;
  options.overload.min_shed_fraction = 0.5;
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    auto engine = StreamAggEngine::FromQueryDefs(schema, initial, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    std::map<int, Window> windows;
    RunChurnSchedule(&**engine, trace, initial, HarnessSeed() + 0x0c4a,
                     /*churn_points=*/6, /*first_churn_index=*/12000, &windows,
                     batch, /*read_closed_epochs=*/false);
    if (::testing::Test::HasFatalFailure()) return;

    EXPECT_EQ((*engine)->counters().records, trace.size());
    const SheddingTelemetry& shedding = (*engine)->telemetry().shedding;
    ASSERT_TRUE(shedding.enabled);
    // With a 0.5 shed floor the plan actually dropped probes, and the
    // lifetime tallies agree between counters and telemetry. Per-relation
    // counts are live-runtime-scoped (they reset at every churn swap), so
    // their sum only bounds the lifetime total from below.
    EXPECT_GT(shedding.shed_probes, 0u);
    EXPECT_EQ(shedding.shed_probes, (*engine)->counters().shed_probes);
    uint64_t live_runtime_shed = 0;
    for (const SheddingRelationTelemetry& rel : shedding.relations) {
      live_runtime_shed += rel.shed_records;
    }
    EXPECT_LE(live_runtime_shed, shedding.shed_probes);
    for (const auto& [id, window] : windows) {
      if (window.end == trace.size()) continue;
      EXPECT_FALSE((*engine)->IsLive(id));
      // The archive answers reads even though the slot is gone.
      (void)(*engine)->Epochs(id);
    }
  }
}

TEST(QueryChurnDifferentialTest, AliasAddAndDropKeepSlotExact) {
  // Adding a query whose (group-by, metrics) matches a live one aliases
  // its dense slot: zero plan change, shared results. Dropping the alias
  // archives the slot's state up to the drop; the original keeps
  // accumulating to the end, still exact.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c5);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  auto engine =
      StreamAggEngine::FromQueryDefs(schema, initial, BaseOptions(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const size_t alias_at = 20000;
  const size_t drop_at = 40000;
  int alias_id = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == alias_at) {
      auto added = (*engine)->AddQuery(QueryDef(initial[0].group_by));
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      alias_id = *added;
      ASSERT_EQ((*engine)->num_queries(), 2);  // No new dense slot.
      ASSERT_TRUE((*engine)->churn_events().back().aliased);
    }
    if (i == drop_at) {
      ASSERT_TRUE((*engine)->DropQuery(alias_id).ok());
      EXPECT_FALSE((*engine)->IsLive(alias_id));
      EXPECT_TRUE((*engine)->IsLive(0));
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  // The alias shared slot 0's accumulation, which began at record 0 — its
  // archive is the slot's state at the drop, i.e. the [0, drop_at) window.
  ExpectWindowMatches(**engine, trace, alias_id,
                      Window{initial[0], 0, drop_at}, 2.0);
  // The original is untouched by the alias lifecycle.
  ExpectWindowMatches(**engine, trace, 0, Window{initial[0], 0, trace.size()},
                      2.0);
  ExpectWindowMatches(**engine, trace, 1, Window{initial[1], 0, trace.size()},
                      2.0);
}

TEST(QueryChurnDifferentialTest, SamplingPhaseChurnJoinsInitialPlan) {
  // Churn before the plan exists is structural: an added query joins the
  // initial optimization and sees the whole buffered sample on replay, so
  // its window starts at record 0 even when added later.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c6);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  auto engine =
      StreamAggEngine::FromQueryDefs(schema, initial, BaseOptions(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const QueryDef added(*schema.ParseAttributeSet("BC"),
                       {{AggregateOp::kSum, 3}});
  int added_id = -1;
  int dropped_id = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 2000) {  // Mid-sample: the buffer replays through the plan.
      auto id = (*engine)->AddQuery(added);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      added_id = *id;
      auto doomed = (*engine)->AddQuery(QueryDef(*schema.ParseAttributeSet("AD")));
      ASSERT_TRUE(doomed.ok());
      dropped_id = *doomed;
    }
    if (i == 4000) {  // Still sampling: a pure structural removal.
      ASSERT_TRUE((*engine)->DropQuery(dropped_id).ok());
      EXPECT_FALSE((*engine)->planned());
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  ExpectWindowMatches(**engine, trace, added_id,
                      Window{added, 0, trace.size()}, 2.0);
  // Dropped while sampling: nothing had flowed into any runtime yet, so
  // the archive is empty but the id keeps answering.
  EXPECT_TRUE((*engine)->Epochs(dropped_id).empty());
  for (size_t qi = 0; qi < initial.size(); ++qi) {
    ExpectWindowMatches(**engine, trace, static_cast<int>(qi),
                        Window{initial[qi], 0, trace.size()}, 2.0);
  }
}

TEST(QueryChurnDifferentialTest, DroppedQueryGroupsStopAccumulating) {
  // The Hfta::Add target-cache regression (docs/query_frontend.md §5): a
  // dropped query's archive must be frozen at the drop — identical before
  // and after the remainder of the stream flows.
  const Trace trace = ZipfTrace(HarnessSeed() + 0x0c7);
  const Schema& schema = trace.schema();
  const std::vector<QueryDef> initial = {
      QueryDef(*schema.ParseAttributeSet("AB")),
      QueryDef(*schema.ParseAttributeSet("CD"))};

  auto engine =
      StreamAggEngine::FromQueryDefs(schema, initial, BaseOptions(1));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const size_t drop_at = 30000;
  std::map<uint64_t, uint64_t> at_drop;  // epoch -> total count.
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == drop_at) {
      ASSERT_TRUE((*engine)->DropQuery(0).ok());
      for (uint64_t e : (*engine)->Epochs(0)) {
        uint64_t total = 0;
        for (const auto& [key, state] : (*engine)->EpochResult(0, e)) {
          total += state.count;
        }
        at_drop[e] = total;
      }
    }
    ASSERT_TRUE((*engine)->Process(trace.record(i)).ok());
  }
  ASSERT_TRUE((*engine)->Finish().ok());

  std::map<uint64_t, uint64_t> at_end;
  for (uint64_t e : (*engine)->Epochs(0)) {
    uint64_t total = 0;
    for (const auto& [key, state] : (*engine)->EpochResult(0, e)) {
      total += state.count;
    }
    at_end[e] = total;
  }
  EXPECT_EQ(at_drop, at_end);
  ExpectWindowMatches(**engine, trace, 0, Window{initial[0], 0, drop_at}, 2.0);
  ExpectWindowMatches(**engine, trace, 1,
                      Window{initial[1], 0, trace.size()}, 2.0);
}

}  // namespace
}  // namespace streamagg
