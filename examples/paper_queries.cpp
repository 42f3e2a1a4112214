// The paper's own queries, verbatim: the GSQL-like front end parses the
// introduction's examples ("for every destination IP, destination port and
// interval, report the average packet length", and the source-side variant),
// the optimizer picks phantoms, and the two-level runtime answers them over
// a netflow-like packet stream with per-packet lengths.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "core/optimizer.h"
#include "core/query_language.h"
#include "dsms/configuration_runtime.h"
#include "stream/flow_generator.h"
#include "stream/trace_stats.h"
#include "util/random.h"

using namespace streamagg;

namespace {

// Packets: srcIP, srcPort, dstIP, dstPort (flow-clustered) plus a per-packet
// length in [40, 1500].
Trace PacketTrace(size_t n) {
  const Schema schema =
      *Schema::Make({"srcIP", "srcPort", "dstIP", "dstPort", "len"});
  auto flows = std::move(FlowGenerator::MakePaperTrace({})).value();
  Random length_rng(0x1e47);
  Trace trace(schema);
  trace.Reserve(n);
  trace.set_duration_seconds(62.0);
  for (size_t i = 0; i < n; ++i) {
    Record r = flows->Next();
    r.values[4] = 40 + static_cast<uint32_t>(length_rng.Uniform(1461));
    r.timestamp = 62.0 * static_cast<double>(i) / static_cast<double>(n);
    trace.AppendWithFlow(r, flows->last_flow_id());
  }
  return trace;
}

}  // namespace

int main() {
  const Trace trace = PacketTrace(500000);
  const Schema& schema = trace.schema();

  // --- The queries, in the paper's own language ---------------------------
  const std::vector<std::string> texts = {
      "select dstIP, dstPort, avg(len) from packets "
      "group by dstIP, dstPort, time/10",
      "select srcIP, dstIP, avg(len) from packets "
      "group by srcIP, dstIP, time/10",
      "select srcIP, count(*) as cnt from packets "
      "group by srcIP, time/10",
  };
  auto parsed = ParseQuerySet(schema, texts);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::vector<QueryDef> defs;
  for (const ParsedQuery& q : *parsed) defs.push_back(q.def);
  const double epoch_seconds = parsed->front().epoch_seconds;

  for (size_t i = 0; i < texts.size(); ++i) {
    std::printf("Q%zu: %s\n", i + 1, texts[i].c_str());
  }

  // --- Optimize and run ----------------------------------------------------
  TraceStats stats(&trace);
  const RelationCatalog catalog = RelationCatalog::FromTrace(&stats);
  Optimizer optimizer;
  auto plan = optimizer.Optimize(catalog, defs, /*memory_words=*/40000);
  if (!plan.ok()) {
    std::fprintf(stderr, "optimize failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nLFTA configuration: %s (optimized in %.2f ms)\n",
              plan->config.ToString().c_str(), plan->optimize_millis);

  auto runtime = ConfigurationRuntime::Make(
      schema, std::move(*plan->ToRuntimeSpecs()), epoch_seconds);
  (*runtime)->ProcessTrace(trace);
  const Hfta& hfta = (*runtime)->hfta();

  // --- Report --------------------------------------------------------------
  // For each query, print its three busiest groups of the first interval
  // with all declared output columns.
  for (size_t qi = 0; qi < parsed->size(); ++qi) {
    const ParsedQuery& q = (*parsed)[qi];
    const EpochAggregate& result = hfta.Result(static_cast<int>(qi), 0);
    // The table yields each key by value: keep the key, not its address.
    std::vector<std::pair<GroupKey, const AggregateState*>> rows;
    rows.reserve(result.size());
    for (const auto& [key, state] : result) rows.emplace_back(key, &state);
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second->count != b.second->count) {
        return a.second->count > b.second->count;
      }
      return a.first < b.first;
    });
    std::printf("\nQ%zu, interval 0 (%zu groups), busiest three:\n", qi + 1,
                result.size());
    std::printf("  ");
    for (const QueryOutput& out : q.outputs) {
      std::printf("%-14s", out.name.c_str());
    }
    std::printf("\n");
    for (size_t row = 0; row < std::min<size_t>(3, rows.size()); ++row) {
      std::printf("  ");
      for (size_t col = 0; col < q.outputs.size(); ++col) {
        std::printf("%-14.1f",
                    q.OutputValue(col, rows[row].first, *rows[row].second));
      }
      std::printf("\n");
    }
  }

  const RuntimeCounters& counters = (*runtime)->counters();
  std::printf("\n%.2f probes/packet, %.4f HFTA transfers/packet\n",
              static_cast<double>(counters.total_probes()) / counters.records,
              static_cast<double>(counters.total_transfers()) /
                  counters.records);
  return 0;
}
