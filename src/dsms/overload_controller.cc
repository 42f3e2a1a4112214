#include "dsms/overload_controller.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/adaptive.h"

namespace streamagg {

namespace {

uint64_t SumBlockedPushes(const std::vector<ShardTelemetry>& shards) {
  uint64_t total = 0;
  for (const ShardTelemetry& s : shards) total += s.blocked_pushes;
  return total;
}

}  // namespace

Status OverloadController::ValidateOptions(const Options& options) {
  if (!(options.queue_blocked_fraction >= 0.0)) {
    return Status::InvalidArgument(
        "Options::overload.queue_blocked_fraction must be >= 0 (got " +
        std::to_string(options.queue_blocked_fraction) + ")");
  }
  if (!(options.min_shed_fraction >= 0.0 && options.min_shed_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "Options::overload.min_shed_fraction must be in [0, 1] (got " +
        std::to_string(options.min_shed_fraction) + ")");
  }
  if (!(options.max_shed_fraction >= options.min_shed_fraction &&
        options.max_shed_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "Options::overload.max_shed_fraction must be in [min_shed_fraction, "
        "1] (got " +
        std::to_string(options.max_shed_fraction) + ")");
  }
  if (!(options.shed_step > 0.0)) {
    return Status::InvalidArgument(
        "Options::overload.shed_step must be > 0 (got " +
        std::to_string(options.shed_step) + ")");
  }
  if (options.trend_epochs < 1) {
    return Status::InvalidArgument(
        "Options::overload.trend_epochs must be >= 1 (got " +
        std::to_string(options.trend_epochs) + ")");
  }
  if (!(options.widening_slack >= 0.0 && options.widening_slack <= 1.0)) {
    return Status::InvalidArgument(
        "Options::overload.widening_slack must be in [0, 1] (got " +
        std::to_string(options.widening_slack) + ")");
  }
  return Status::OK();
}

OverloadController::OverloadController(Options options)
    : options_(options), target_fraction_(options.min_shed_fraction) {}

void OverloadController::PriceRelations(const CostModel* cost_model,
                                        const OptimizedPlan& plan,
                                        const Schema& schema) {
  prices_.clear();
  const Configuration& config = plan.config;
  const std::vector<double> by_root =
      cost_model != nullptr
          ? cost_model->PerRecordCostByRoot(config, plan.buckets)
          : std::vector<double>(static_cast<size_t>(config.num_nodes()), 1.0);
  // Root attribution and query census, same walk as PerRecordCostByRoot
  // (parents precede children in the node order).
  std::vector<int> root(static_cast<size_t>(config.num_nodes()), 0);
  std::vector<int> queries_by_root(static_cast<size_t>(config.num_nodes()), 0);
  int total_queries = 0;
  for (int i = 0; i < config.num_nodes(); ++i) {
    const Configuration::Node& node = config.node(i);
    root[static_cast<size_t>(i)] =
        node.parent >= 0 ? root[static_cast<size_t>(node.parent)] : i;
    if (node.is_query) {
      ++queries_by_root[static_cast<size_t>(root[static_cast<size_t>(i)])];
      ++total_queries;
    }
  }
  for (int i = 0; i < config.num_nodes(); ++i) {
    if (config.node(i).parent >= 0) continue;
    RelationPrice price;
    price.raw_index = static_cast<int>(prices_.size());
    price.node = i;
    price.relation = schema.FormatAttributeSet(config.node(i).attrs);
    price.cycles_per_record = by_root[static_cast<size_t>(i)];
    price.accuracy_weight =
        total_queries > 0
            ? static_cast<double>(queries_by_root[static_cast<size_t>(i)]) /
                  static_cast<double>(total_queries)
            : 0.0;
    prices_.push_back(std::move(price));
  }
  plan_ = BuildPlan(target_fraction_);
}

ShedPlan OverloadController::BuildPlan(double fraction) const {
  ShedPlan plan;
  if (prices_.empty()) return plan;
  const double floor =
      std::min(options_.min_shed_fraction, options_.max_shed_fraction);
  std::vector<double> fractions(prices_.size(), floor);
  double total_cycles = 0.0;
  for (const RelationPrice& p : prices_) total_cycles += p.cycles_per_record;
  // Cycles still to save beyond what the floor already sheds everywhere.
  double needed = std::max(0.0, fraction - floor) * total_cycles;
  // Cheapest accuracy per saved cycle first: descending cycles/weight.
  std::vector<size_t> order(prices_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    const double va = prices_[a].cycles_per_record /
                      std::max(prices_[a].accuracy_weight, 1e-9);
    const double vb = prices_[b].cycles_per_record /
                      std::max(prices_[b].accuracy_weight, 1e-9);
    if (va != vb) return va > vb;
    return a < b;  // Deterministic tie-break.
  });
  for (size_t i : order) {
    if (needed <= 0.0) break;
    const double price = prices_[i].cycles_per_record;
    if (price <= 0.0) continue;
    const double extra =
        std::min(options_.max_shed_fraction - fractions[i], needed / price);
    if (extra <= 0.0) continue;
    fractions[i] += extra;
    needed -= extra * price;
  }
  plan.numerators.resize(prices_.size());
  for (size_t i = 0; i < prices_.size(); ++i) {
    const double f = std::clamp(fractions[i], 0.0, 1.0);
    plan.numerators[i] = static_cast<uint32_t>(std::min<long long>(
        ShedPlan::kDenominator,
        std::llround(f * static_cast<double>(ShedPlan::kDenominator))));
  }
  return plan;
}

double OverloadController::EpochPressure(const TelemetrySnapshot* prev,
                                         const TelemetrySnapshot& cur) const {
  double pressure = 0.0;
  if (options_.queue_blocked_fraction > 0.0) {
    const uint64_t blocked = SumBlockedPushes(cur.shards);
    const uint64_t prev_blocked =
        prev != nullptr ? SumBlockedPushes(prev->shards) : 0;
    const uint64_t records = cur.counters.records;
    const uint64_t prev_records = prev != nullptr ? prev->counters.records : 0;
    // A runtime swap resets the shard tallies (counters are engine
    // totals and stay monotone); a shrinking delta reads as no signal.
    if (blocked >= prev_blocked && records > prev_records) {
      const double fraction = static_cast<double>(blocked - prev_blocked) /
                              static_cast<double>(records - prev_records);
      pressure = std::max(pressure,
                          fraction / options_.queue_blocked_fraction);
    }
  }
  if (options_.epoch_gap_watermark_ns > 0) {
    // p99 of this epoch's gap distribution: LogHistogram merges
    // element-wise, so the per-epoch view is the lifetime delta (Since);
    // counts are monotone within one runtime's life, and a runtime swap
    // (counts shrink) clamps to an empty epoch.
    const LogHistogram delta = prev != nullptr
                                   ? cur.epoch_gap_ns.Since(prev->epoch_gap_ns)
                                   : cur.epoch_gap_ns;
    const uint64_t p99 = delta.Quantile(0.99);
    pressure = std::max(pressure,
                        static_cast<double>(p99) /
                            static_cast<double>(options_.epoch_gap_watermark_ns));
  }
  return pressure;
}

bool OverloadController::UpdateShedPlan(
    std::span<const TelemetrySnapshot> history) {
  double target = target_fraction_;
  const size_t k = static_cast<size_t>(std::max(1, options_.trend_epochs));
  if (history.size() >= k) {
    std::vector<double> window(k);
    bool relief = true;
    for (size_t w = 0; w < k; ++w) {
      const size_t j = history.size() - k + w;
      const TelemetrySnapshot* prev = j > 0 ? &history[j - 1] : nullptr;
      window[w] = EpochPressure(prev, history[j]);
      if (window[w] >= 1.0) relief = false;
    }
    // The adaptive controller's sustained-trend rule over pressure ratios
    // with the watermark (ratio 1.0) as the floor: k consecutive epochs
    // over the watermark and never decaying faster than the slack. A
    // single-epoch spike fails the floor test on its neighbors.
    if (SustainedTrend(std::span<const double>(window), 1.0,
                       options_.widening_slack)) {
      target = std::min(options_.max_shed_fraction,
                        target + options_.shed_step);
    } else if (relief) {
      target = std::max(options_.min_shed_fraction,
                        target - options_.shed_step);
    }
  }
  target = std::clamp(target, options_.min_shed_fraction,
                      options_.max_shed_fraction);
  ShedPlan plan = BuildPlan(target);
  if (target == target_fraction_ && plan == plan_) return false;
  target_fraction_ = target;
  plan_ = std::move(plan);
  return true;
}

double OverloadController::accuracy_loss() const {
  double loss = 0.0;
  for (size_t i = 0;
       i < prices_.size() && i < plan_.numerators.size(); ++i) {
    const double f = static_cast<double>(plan_.numerators[i]) /
                     static_cast<double>(ShedPlan::kDenominator);
    loss += f * prices_[i].accuracy_weight;
  }
  return loss;
}

double OverloadController::cycles_saved_per_record() const {
  double saved = 0.0;
  for (size_t i = 0;
       i < prices_.size() && i < plan_.numerators.size(); ++i) {
    const double f = static_cast<double>(plan_.numerators[i]) /
                     static_cast<double>(ShedPlan::kDenominator);
    saved += f * prices_[i].cycles_per_record;
  }
  return saved;
}

}  // namespace streamagg
