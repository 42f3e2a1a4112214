#include "core/cost_model.h"

#include <cassert>

namespace streamagg {

double CostModel::NodeCollisionRate(const Configuration& config, int node,
                                    double buckets) const {
  const Relation rel = catalog_->Get(config.node(node).attrs);
  return collision_->ClusteredRate(static_cast<double>(rel.group_count),
                                   buckets, rel.avg_flow_length);
}

std::vector<double> CostModel::CollisionRates(
    const Configuration& config, const std::vector<double>& buckets) const {
  assert(buckets.size() == static_cast<size_t>(config.num_nodes()));
  std::vector<double> rates(buckets.size());
  for (int i = 0; i < config.num_nodes(); ++i) {
    rates[i] = NodeCollisionRate(config, i, buckets[i]);
  }
  return rates;
}

double CostModel::PerRecordCost(const Configuration& config,
                                const std::vector<double>& buckets) const {
  const std::vector<double> x = CollisionRates(config, buckets);
  // feed[i] = prod of ancestor collision rates (1 for raw relations); nodes
  // are ordered parents before children.
  std::vector<double> feed(x.size(), 1.0);
  double cost = 0.0;
  for (int i = 0; i < config.num_nodes(); ++i) {
    const Configuration::Node& node = config.node(i);
    if (node.parent >= 0) feed[i] = feed[node.parent] * x[node.parent];
    cost += feed[i] * params_.c1;
    if (node.is_query) cost += feed[i] * x[i] * params_.c2;
  }
  return cost;
}

std::vector<double> CostModel::PerRecordCostByRoot(
    const Configuration& config, const std::vector<double>& buckets) const {
  const std::vector<double> x = CollisionRates(config, buckets);
  // Same recurrence as PerRecordCost, but each node's terms are credited to
  // the root of its feeding tree. Nodes are ordered parents before children,
  // so root[i] is already resolved when node i is visited.
  std::vector<double> feed(x.size(), 1.0);
  std::vector<int> root(x.size(), 0);
  std::vector<double> by_root(x.size(), 0.0);
  for (int i = 0; i < config.num_nodes(); ++i) {
    const Configuration::Node& node = config.node(i);
    root[i] = node.parent >= 0 ? root[node.parent] : i;
    if (node.parent >= 0) feed[i] = feed[node.parent] * x[node.parent];
    double cost = feed[i] * params_.c1;
    if (node.is_query) cost += feed[i] * x[i] * params_.c2;
    by_root[static_cast<size_t>(root[i])] += cost;
  }
  return by_root;
}

double CostModel::EndOfEpochCost(const Configuration& config,
                                 const std::vector<double>& buckets) const {
  const std::vector<double> x = CollisionRates(config, buckets);
  // Entries a table actually holds when flushed: the expected number of
  // occupied buckets, b (1 - (1 - 1/b)^g) = g (1 - x_random). This is what
  // makes the paper's "shift" method effective (Section 6.3.4): a phantom's
  // flush volume saturates at its group count, so growing its table does not
  // grow E_u, while shrinking query tables directly cuts their c2 terms.
  std::vector<double> occupied(x.size(), 0.0);
  for (int i = 0; i < config.num_nodes(); ++i) {
    const double g =
        static_cast<double>(catalog_->GroupCount(config.node(i).attrs));
    occupied[i] =
        g * (1.0 - RandomHashCollisionRate(g, buckets[i]));
  }
  std::vector<double> feed(x.size(), 0.0);
  double cost = 0.0;
  for (int i = 0; i < config.num_nodes(); ++i) {
    const Configuration::Node& node = config.node(i);
    if (node.parent >= 0) {
      feed[i] = occupied[node.parent] + feed[node.parent] * x[node.parent];
      cost += feed[i] * params_.c1;
    }
    if (node.is_query) {
      cost += (occupied[i] + feed[i] * x[i]) * params_.c2;
    }
  }
  return cost;
}

double CostModel::NoPhantomCost(const std::vector<Relation>& queries,
                                const std::vector<double>& buckets) const {
  assert(queries.size() == buckets.size());
  double cost = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double x = collision_->ClusteredRate(
        static_cast<double>(queries[i].group_count), buckets[i],
        queries[i].avg_flow_length);
    cost += params_.c1 + x * params_.c2;
  }
  return cost;
}

}  // namespace streamagg
