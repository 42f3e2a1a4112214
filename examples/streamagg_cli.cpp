// streamagg_cli — run the full pipeline on a CSV trace from the command
// line:
//
//   # Generate a demo trace (netflow-like, with per-packet lengths):
//   streamagg_cli --make-demo-trace /tmp/packets.csv
//
//   # Answer queries over it:
//   streamagg_cli --trace /tmp/packets.csv --memory 40000 \
//     --query "select srcIP, count(*) from R group by srcIP, time/10" \
//     --query "select dstIP, avg(len) from R group by dstIP, time/10"
//
// Options:
//   --trace FILE        input trace (see stream/trace_io.h for the format)
//   --query SQL         one or more queries (paper GSQL-like syntax)
//   --memory WORDS      LFTA memory budget in 4-byte words (default 40000)
//   --adaptive          enable drift-triggered re-planning
//   --top N             rows printed per query and epoch (default 3)
//   --save-plan FILE    write the chosen plan (pin it for later runs)
//   --stats             print the final telemetry snapshot as a table
//                       (per-table occupancy, observed vs predicted
//                       collision rates, latency histograms)
//   --stats-json FILE   write the snapshot as one JSON line ("-" = stdout,
//                       as its last line); schema in docs/observability.md
//   --trace-json FILE   enable the flight recorder and write the run's
//                       events as a Chrome trace ("-" = stdout);
//                       format in docs/tracing.md
//   --churn-script FILE apply online AddQuery/DropQuery mid-stream; each
//                       line is "<epoch> add <sql>" or "<epoch> drop <id>"
//                       ('#' starts a comment), fired when the stream
//                       reaches that epoch (docs/query_frontend.md §4)
//   --checksums         print one FNV-1a 64 line per query id over its
//                       sorted per-epoch rows ("checksum query=<id>
//                       value=<hex>") — stable across runs and engine
//                       splits, used by the CI churn drill
//   --make-demo-trace FILE   write a demo trace and exit

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/plan_io.h"
#include "obs/trace.h"
#include "stream/flow_generator.h"
#include "stream/trace_io.h"
#include "util/random.h"

using namespace streamagg;

namespace {

int MakeDemoTrace(const std::string& path) {
  auto flows = std::move(FlowGenerator::MakePaperTrace({})).value();
  const Schema schema =
      *Schema::Make({"srcIP", "srcPort", "dstIP", "dstPort", "len"});
  Random length_rng(7);
  Trace trace(schema);
  const size_t kN = 400000;
  trace.Reserve(kN);
  trace.set_duration_seconds(62.0);
  for (size_t i = 0; i < kN; ++i) {
    Record r = flows->Next();
    r.values[4] = 40 + static_cast<uint32_t>(length_rng.Uniform(1461));
    r.timestamp = 62.0 * static_cast<double>(i) / kN;
    trace.AppendWithFlow(r, flows->last_flow_id());
  }
  const Status status = SaveTraceCsv(trace, path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s (schema: srcIP,srcPort,dstIP,"
              "dstPort,len)\n",
              trace.size(), path.c_str());
  return 0;
}

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --trace FILE --query SQL [--query SQL ...]\n"
               "          [--memory WORDS] [--adaptive] [--top N]\n"
               "          [--stats] [--stats-json FILE] [--trace-json FILE]\n"
               "          [--churn-script FILE] [--checksums]\n"
               "       %s --make-demo-trace FILE\n",
               argv0, argv0);
}

/// One line of a churn script: at `epoch`, either AddQuery(`sql`) or
/// DropQuery(`query_id`).
struct ChurnAction {
  uint64_t epoch = 0;
  bool add = true;
  std::string sql;    // add only
  int query_id = -1;  // drop only
  int line = 0;       // 1-based source line, for diagnostics
};

/// Parses a churn script: "<epoch> add <sql>" / "<epoch> drop <id>" per
/// line, '#' comments and blank lines skipped. Returns actions sorted by
/// epoch (stable, so same-epoch lines keep file order).
bool LoadChurnScript(const std::string& path,
                     std::vector<ChurnAction>* actions) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: could not open churn script %s\n",
                 path.c_str());
    return false;
  }
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    if ((line >> std::ws).eof()) continue;  // blank / comment-only
    ChurnAction action;
    action.line = line_no;
    if (line.peek() == '-' || !(line >> action.epoch)) {
      std::fprintf(stderr, "error: %s:%d: expected an epoch number\n",
                   path.c_str(), line_no);
      return false;
    }
    std::string verb;
    line >> verb;
    if (verb == "add") {
      std::getline(line, action.sql);
      const size_t start = action.sql.find_first_not_of(" \t");
      if (start == std::string::npos) {
        std::fprintf(stderr, "error: %s:%d: add needs a query\n",
                     path.c_str(), line_no);
        return false;
      }
      action.sql.erase(0, start);
      action.add = true;
    } else if (verb == "drop") {
      if (!(line >> action.query_id)) {
        std::fprintf(stderr, "error: %s:%d: drop needs a query id\n",
                     path.c_str(), line_no);
        return false;
      }
      action.add = false;
    } else {
      std::fprintf(stderr, "error: %s:%d: expected add or drop, got %s\n",
                   path.c_str(), line_no,
                   verb.empty() ? "nothing" : verb.c_str());
      return false;
    }
    actions->push_back(std::move(action));
  }
  std::stable_sort(actions->begin(), actions->end(),
                   [](const ChurnAction& a, const ChurnAction& b) {
                     return a.epoch < b.epoch;
                   });
  return true;
}

/// FNV-1a 64 over a query's results: epochs ascending, rows within an
/// epoch sorted by group key, each row contributing its key values, count
/// and metric values. Independent of hash-map iteration order and engine
/// split, so equal results hash equal.
uint64_t QueryChecksum(const StreamAggEngine& engine, int query_id) {
  uint64_t h = 1469598103934665603ull;
  auto mix64 = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  };
  for (uint64_t epoch : engine.Epochs(query_id)) {
    mix64(epoch);
    const EpochAggregate& result = engine.EpochResult(query_id, epoch);
    // The table yields each key by value: keep the key, not its address.
    std::vector<std::pair<GroupKey, const AggregateState*>> rows;
    rows.reserve(result.size());
    for (const auto& [key, state] : result) rows.emplace_back(key, &state);
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (const auto& [key, state] : rows) {
      mix64(key.size);
      for (uint8_t i = 0; i < key.size; ++i) mix64(key.values[i]);
      mix64(state->count);
      for (uint8_t i = 0; i < state->num_metrics; ++i) {
        mix64(state->metrics[i]);
      }
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::vector<std::string> query_texts;
  double memory_words = 40000.0;
  bool adaptive = false;
  size_t top = 3;
  std::string save_plan_path;
  bool print_stats = false;
  std::string stats_json_path;
  std::string trace_json_path;
  std::string churn_script_path;
  bool print_checksums = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--make-demo-trace") return MakeDemoTrace(next());
    if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--query") {
      query_texts.push_back(next());
    } else if (arg == "--memory") {
      memory_words = std::strtod(next(), nullptr);
    } else if (arg == "--adaptive") {
      adaptive = true;
    } else if (arg == "--top") {
      top = static_cast<size_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--save-plan") {
      save_plan_path = next();
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--stats-json") {
      stats_json_path = next();
    } else if (arg == "--trace-json") {
      trace_json_path = next();
    } else if (arg == "--churn-script") {
      churn_script_path = next();
    } else if (arg == "--checksums") {
      print_checksums = true;
    } else {
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (trace_path.empty() || query_texts.empty() || memory_words <= 0.0) {
    PrintUsage(argv[0]);
    return 2;
  }

  auto trace = LoadTraceCsv(trace_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu records over %.1f s\n", trace->size(),
              trace->duration_seconds());

  StreamAggEngine::Options options;
  options.memory_words = memory_words;
  options.adaptive = adaptive;
  options.sample_size = std::min<size_t>(50000, trace->size());
  if (!trace_json_path.empty()) {
    FlightRecorder::Instance().set_enabled(true);
  }
  std::vector<ChurnAction> churn;
  if (!churn_script_path.empty() &&
      !LoadChurnScript(churn_script_path, &churn)) {
    return 1;
  }

  auto engine =
      StreamAggEngine::FromQueryTexts(trace->schema(), query_texts, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (!churn.empty() && (*engine)->epoch_seconds() <= 0.0) {
    std::fprintf(stderr,
                 "error: --churn-script needs an epoched engine (give the "
                 "queries a time/N grouping or an epoch clause)\n");
    return 1;
  }
  // Per-id query text, extended as the churn script adds queries.
  std::vector<std::string> id_texts = query_texts;
  size_t next_churn = 0;
  for (const Record& r : trace->records()) {
    // Fire churn actions whose epoch the stream has reached.
    while (next_churn < churn.size() &&
           static_cast<double>(churn[next_churn].epoch) *
                   (*engine)->epoch_seconds() <=
               r.timestamp) {
      const ChurnAction& action = churn[next_churn++];
      if (action.add) {
        auto id = (*engine)->AddQuery(action.sql);
        if (!id.ok()) {
          std::fprintf(stderr, "error: %s:%d: %s\n",
                       churn_script_path.c_str(), action.line,
                       id.status().ToString().c_str());
          return 1;
        }
        id_texts.push_back(action.sql);
        std::printf("churn: epoch %" PRIu64 " add -> query %d\n",
                    action.epoch, *id);
      } else {
        if (Status s = (*engine)->DropQuery(action.query_id); !s.ok()) {
          std::fprintf(stderr, "error: %s:%d: %s\n",
                       churn_script_path.c_str(), action.line,
                       s.ToString().c_str());
          return 1;
        }
        std::printf("churn: epoch %" PRIu64 " drop query %d\n", action.epoch,
                    action.query_id);
      }
    }
    if (Status s = (*engine)->Process(r); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (Status s = (*engine)->Finish(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("configuration: %s\n", (*engine)->ConfigurationText().c_str());
  if (!save_plan_path.empty() && (*engine)->plan() != nullptr) {
    std::FILE* f = std::fopen(save_plan_path.c_str(), "w");
    if (f != nullptr) {
      const std::string text =
          SerializePlan(trace->schema(), *(*engine)->plan());
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("plan pinned to %s\n", save_plan_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not open %s\n",
                   save_plan_path.c_str());
    }
  }
  // The final snapshot survives Finish(): tables, drift and histograms as
  // the stream left them.
  if (print_stats) {
    std::printf("\n%s\n", (*engine)->telemetry().ToTable().c_str());
  }
  // "-" prints the line last, after the result rows (see the end of main).
  if (!stats_json_path.empty() && stats_json_path != "-") {
    const std::string line = (*engine)->telemetry().ToJsonLine();
    std::FILE* f = std::fopen(stats_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: could not open %s\n",
                   stats_json_path.c_str());
      return 1;
    }
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("telemetry snapshot written to %s\n", stats_json_path.c_str());
  }
  if (!trace_json_path.empty()) {
    const std::string json = TraceToChromeJson();
    if (trace_json_path == "-") {
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else {
      std::FILE* f = std::fopen(trace_json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: could not open %s\n",
                     trace_json_path.c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("flight-recorder trace written to %s (%zu events)\n",
                  trace_json_path.c_str(),
                  FlightRecorder::Instance().Snapshot().size());
    }
  }
  const RuntimeCounters counters = (*engine)->counters();
  std::printf("%.2f probes/record, %.4f HFTA transfers/record, %d "
              "re-optimizations\n\n",
              static_cast<double>(counters.total_probes()) / counters.records,
              static_cast<double>(counters.total_transfers()) /
                  counters.records,
              (*engine)->reoptimizations());

  if (print_checksums) {
    for (int id = 0; id < (*engine)->num_query_ids(); ++id) {
      std::printf("checksum query=%d value=%016" PRIx64 "\n", id,
                  QueryChecksum(**engine, id));
    }
  }

  const std::vector<ParsedQuery>& queries = (*engine)->parsed_queries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const ParsedQuery& q = queries[qi];
    const bool live = (*engine)->IsLive(static_cast<int>(qi));
    std::printf("== Q%zu: %s%s\n", qi + 1, id_texts[qi].c_str(),
                live ? "" : " (dropped)");
    for (uint64_t epoch : (*engine)->Epochs(static_cast<int>(qi))) {
      const EpochAggregate& result =
          (*engine)->EpochResult(static_cast<int>(qi), epoch);
      std::vector<std::pair<GroupKey, const AggregateState*>> rows;
      rows.reserve(result.size());
      for (const auto& [key, state] : result) {
        if (!q.HavingSatisfied(key, state)) continue;  // having clause.
        rows.emplace_back(key, &state);
      }
      // Busiest first; ties by key, so the rows shown do not depend on
      // the table's order.
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second->count != b.second->count) {
          return a.second->count > b.second->count;
        }
        return a.first < b.first;
      });
      std::printf("  epoch %" PRIu64 " (%zu groups%s):", epoch, rows.size(),
                  q.having.has_value() ? " after having" : "");
      std::printf("  ");
      for (const QueryOutput& out : q.outputs) {
        std::printf("%s ", out.name.c_str());
      }
      std::printf("\n");
      for (size_t row = 0; row < std::min(top, rows.size()); ++row) {
        std::printf("    ");
        for (size_t col = 0; col < q.outputs.size(); ++col) {
          std::printf("%.1f ",
                      q.OutputValue(col, rows[row].first, *rows[row].second));
        }
        std::printf("\n");
      }
    }
  }
  // The JSON line is stdout's last line, so `tail -n 1` takes it.
  if (stats_json_path == "-") {
    std::printf("%s\n", (*engine)->telemetry().ToJsonLine().c_str());
  }
  return 0;
}
