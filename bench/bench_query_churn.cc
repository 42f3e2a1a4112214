// Churn-policy bench (ISSUE 10 / docs/query_frontend.md §5): what does
// incremental grafting cost in plan quality, and what does it buy in
// planning latency?
//
// A seeded random AddQuery/DropQuery schedule is applied to a live plan
// two ways: (a) the engine's incremental policy — GraftQueries per add
// (full-Optimize fallback when grafting fails), PruneQueries per drop —
// and (b) an optimize-from-scratch oracle that re-runs the full optimizer
// over the surviving query set at every churn point. After each event the
// two plans' per_record_cost is compared; the gap is the price of pinning
// trees instead of re-deriving the global phantom choice. Planning
// wall-clock per add is recorded per path (p50/p90/max), which is the
// latency a churn swap holds the stream for.
//
// Reported at churn rates of 1, 10 and 100 events per 1000 epochs (the
// horizon fixes the event count; the paper's 2 s epochs make 1000 epochs
// a ~33 minute stream).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/optimizer.h"
#include "util/random.h"

using namespace streamagg;

namespace {

constexpr double kBudgetWords = 40000.0;
// Mirrors Options::churn_reserve_fraction: the incremental path's base
// and fallback plans hold back headroom; grafts see the full budget.
constexpr double kReserve = 0.25;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

struct RateRow {
  int rate = 0;
  int adds = 0;
  int grafted = 0;
  int drops = 0;
  double mean_gap_pct = 0.0;
  double max_gap_pct = 0.0;
  std::vector<double> graft_millis;
  std::vector<double> scratch_millis;
};

RateRow RunSchedule(const RelationCatalog& catalog, const Schema& schema,
                    int rate, uint64_t seed) {
  // Candidate pool: every single and pair grouping.
  std::vector<QueryDef> pool;
  for (int a = 0; a < 4; ++a) {
    pool.push_back(QueryDef(AttributeSet::Single(a)));
    for (int b = a + 1; b < 4; ++b) {
      pool.push_back(
          QueryDef(AttributeSet::Single(a).Union(AttributeSet::Single(b))));
    }
  }

  Optimizer optimizer;
  std::vector<QueryDef> live = {QueryDef(*schema.ParseAttributeSet("AB")),
                                QueryDef(*schema.ParseAttributeSet("CD"))};
  auto incremental =
      optimizer.Optimize(catalog, live, kBudgetWords * (1.0 - kReserve));
  if (!incremental.ok()) {
    std::fprintf(stderr, "base plan failed: %s\n",
                 incremental.status().ToString().c_str());
    std::exit(1);
  }

  Random rng(seed);
  RateRow row;
  row.rate = rate;
  double gap_sum = 0.0;
  int gap_count = 0;
  for (int event = 0; event < rate; ++event) {
    const bool add = live.size() <= 2 || rng.Uniform(3) != 0;
    if (add) {
      // Draw a pool grouping not currently live.
      QueryDef def = pool[rng.Uniform(pool.size())];
      bool is_live = true;
      for (int tries = 0; tries < 64 && is_live; ++tries) {
        def = pool[rng.Uniform(pool.size())];
        is_live = false;
        for (const QueryDef& q : live) {
          if (q.group_by == def.group_by) is_live = true;
        }
      }
      if (is_live) continue;  // Pool exhausted; skip this event.
      live.push_back(def);
      ++row.adds;
      auto grafted =
          optimizer.GraftQueries(catalog, *incremental, {def}, kBudgetWords);
      if (grafted.ok()) {
        ++row.grafted;
        row.graft_millis.push_back(grafted->optimize_millis);
        incremental = std::move(grafted);
      } else {
        auto fallback = optimizer.Optimize(catalog, live,
                                           kBudgetWords * (1.0 - kReserve));
        if (!fallback.ok()) {
          std::fprintf(stderr, "fallback failed: %s\n",
                       fallback.status().ToString().c_str());
          std::exit(1);
        }
        row.graft_millis.push_back(fallback->optimize_millis);
        incremental = std::move(fallback);
      }
    } else {
      const int victim = static_cast<int>(rng.Uniform(live.size()));
      auto pruned = optimizer.PruneQueries(catalog, *incremental, {victim});
      if (!pruned.ok()) continue;
      live.erase(live.begin() + victim);
      ++row.drops;
      incremental = std::move(pruned);
    }
    // The from-scratch oracle re-optimizes the same survivor set under the
    // full budget at every churn point.
    auto scratch = optimizer.Optimize(catalog, live, kBudgetWords);
    if (!scratch.ok()) continue;
    row.scratch_millis.push_back(scratch->optimize_millis);
    const double gap = 100.0 * (incremental->per_record_cost /
                                    scratch->per_record_cost -
                                1.0);
    gap_sum += gap;
    ++gap_count;
    row.max_gap_pct = std::max(row.max_gap_pct, gap);
  }
  row.mean_gap_pct = gap_count == 0 ? 0.0 : gap_sum / gap_count;
  return row;
}

}  // namespace

int main() {
  bench::PrintHeader("query churn: graft vs optimize-from-scratch",
                     "ISSUE 10; docs/query_frontend.md Section 5");
  bench::PaperData data = bench::MakePaperData(200000);
  const Schema& schema = data.trace->schema();

  std::printf(
      "rate: churn events per 1000 epochs; gap: incremental plan's\n"
      "per_record_cost over the from-scratch oracle's, percent; millis:\n"
      "planning wall-clock per add (incremental = graft or fallback).\n"
      "reserve %.2f of %.0f words held back from base/fallback plans.\n\n",
      kReserve, kBudgetWords);
  std::printf(
      "rate  adds graft drops | gap mean%%  max%% | incr ms p50/p90/max | "
      "scratch ms p50/p90/max\n");
  for (const int rate : {1, 10, 100}) {
    const RateRow row =
        RunSchedule(*data.catalog, schema, rate, 0x15111000u + rate);
    std::printf(
        "%4d  %4d %5d %5d | %8.2f %5.2f | %6.3f %6.3f %6.3f | %6.3f %6.3f "
        "%6.3f\n",
        row.rate, row.adds, row.grafted, row.drops, row.mean_gap_pct,
        row.max_gap_pct, Percentile(row.graft_millis, 0.5),
        Percentile(row.graft_millis, 0.9),
        row.graft_millis.empty()
            ? 0.0
            : *std::max_element(row.graft_millis.begin(),
                                row.graft_millis.end()),
        Percentile(row.scratch_millis, 0.5),
        Percentile(row.scratch_millis, 0.9),
        row.scratch_millis.empty()
            ? 0.0
            : *std::max_element(row.scratch_millis.begin(),
                                row.scratch_millis.end()));
  }
  return 0;
}
