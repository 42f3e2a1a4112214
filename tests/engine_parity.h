// Batch-split helpers shared by the engine differential suites: feeding an
// engine in calls of a given size, and asserting that a batch-fed engine
// kept the exact record of one fed one Process call per record (the
// contract of StreamAggEngine::ProcessBatch).

#ifndef STREAMAGG_TESTS_ENGINE_PARITY_H_
#define STREAMAGG_TESTS_ENGINE_PARITY_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"

namespace streamagg {

/// Batch sizes every differential schedule runs at: per record, and splits
/// that put epoch boundaries and churn points mid-batch.
inline constexpr size_t kBatchSizes[] = {1, 7, 64, 997};

/// Feeds `records` in calls of at most `batch` records (Process when
/// `batch` is 1) and returns the first failure.
inline Status FeedInCalls(StreamAggEngine* engine,
                          std::span<const Record> records, size_t batch) {
  for (size_t i = 0; i < records.size(); i += batch) {
    const Status status =
        batch == 1 ? engine->Process(records[i])
                   : engine->ProcessBatch(records.subspan(
                         i, std::min(batch, records.size() - i)));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

/// Asserts `actual` kept the record of `expected`: counters, re-plan and
/// churn events (wall-clock fields aside) and, for every telemetry_history()
/// snapshot, its epoch, counters and per-table probes and collisions.
inline void ExpectSameEngineRecord(const StreamAggEngine& actual,
                                   const StreamAggEngine& expected,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(actual.counters() == expected.counters());
  EXPECT_EQ(actual.reoptimizations(), expected.reoptimizations());
  const auto untimed_replans = [](const StreamAggEngine& engine) {
    std::vector<ReplanEvent> events = engine.telemetry().replans;
    for (ReplanEvent& e : events) e.optimize_millis = e.merge_millis = 0.0;
    return events;
  };
  EXPECT_EQ(untimed_replans(actual), untimed_replans(expected));
  const auto untimed_churn = [](const StreamAggEngine& engine) {
    std::vector<QueryChurnEvent> events = engine.churn_events();
    for (QueryChurnEvent& e : events) e.optimize_millis = e.merge_millis = 0.0;
    return events;
  };
  EXPECT_EQ(untimed_churn(actual), untimed_churn(expected));

  const std::vector<TelemetrySnapshot>& got = actual.telemetry_history();
  const std::vector<TelemetrySnapshot>& want = expected.telemetry_history();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("history snapshot " + std::to_string(i));
    EXPECT_EQ(got[i].epoch, want[i].epoch);
    EXPECT_TRUE(got[i].counters == want[i].counters);
    ASSERT_EQ(got[i].tables.size(), want[i].tables.size());
    for (size_t t = 0; t < got[i].tables.size(); ++t) {
      EXPECT_EQ(got[i].tables[t].probes, want[i].tables[t].probes)
          << got[i].tables[t].relation;
      EXPECT_EQ(got[i].tables[t].collisions, want[i].tables[t].collisions)
          << got[i].tables[t].relation;
    }
  }
}

}  // namespace streamagg

#endif  // STREAMAGG_TESTS_ENGINE_PARITY_H_
