#ifndef STREAMAGG_CORE_COST_MODEL_H_
#define STREAMAGG_CORE_COST_MODEL_H_

#include <vector>

#include "core/collision_model.h"
#include "core/configuration.h"
#include "core/relation_catalog.h"
#include "util/status.h"

namespace streamagg {

/// Architecture constants of the two-level DSMS: c1 is the cost of one LFTA
/// hash-table probe, c2 of one LFTA-to-HFTA transfer. The paper (and
/// Gigascope measurements) use c2/c1 = 50 (Section 6.1).
struct CostParams {
  double c1 = 1.0;
  double c2 = 50.0;
};

/// Evaluates the paper's cost model for a configuration and a space
/// allocation: per-record intra-epoch maintenance cost (Equation 7) and
/// end-of-epoch update cost (Equation 8; see DESIGN.md for the
/// reconstruction of the garbled formula).
class CostModel {
 public:
  /// Neither pointer is owned; both must outlive the model.
  CostModel(const RelationCatalog* catalog, const CollisionModel* collision,
            CostParams params)
      : catalog_(catalog), collision_(collision), params_(params) {}

  const CostParams& params() const { return params_; }
  const RelationCatalog& catalog() const { return *catalog_; }
  const CollisionModel& collision_model() const { return *collision_; }

  /// Collision rate of node `i` when its table has `buckets` buckets,
  /// applying the clustered-data correction with the catalog's flow length.
  double NodeCollisionRate(const Configuration& config, int node,
                           double buckets) const;

  /// Collision rates for all nodes under `buckets`.
  std::vector<double> CollisionRates(const Configuration& config,
                                     const std::vector<double>& buckets) const;

  /// Per-record intra-epoch cost e_m (Equation 7):
  ///   sum_{R in I} (prod_{ancestors} x) c1
  /// + sum_{R query} (prod_{ancestors} x) x_R c2.
  /// The eviction term ranges over queries, which equals the paper's leaf
  /// sum when queries form an antichain.
  double PerRecordCost(const Configuration& config,
                       const std::vector<double>& buckets) const;

  /// Equation 7 attributed to feeding-tree roots: element r holds the part
  /// of PerRecordCost contributed by root node r's whole subtree, and is 0
  /// for non-root nodes. Because every term of Eq 7 belongs to exactly one
  /// tree, the vector sums to PerRecordCost exactly — this is the price (in
  /// c1-cycles per record) that shedding one record at root r's raw-relation
  /// probe saves (docs/overload.md).
  std::vector<double> PerRecordCostByRoot(
      const Configuration& config, const std::vector<double>& buckets) const;

  /// End-of-epoch update cost E_u (Equation 8): top-down flush; each non-raw
  /// relation R receives feed_R = M_parent + feed_parent * x_parent probes
  /// (c1 each); each query evicts M_R + feed_R * x_R entries (c2 each).
  /// M_R is the table capacity in buckets — a peak-load bound.
  double EndOfEpochCost(const Configuration& config,
                        const std::vector<double>& buckets) const;

  /// The per-record cost of the no-phantom configuration with the *same*
  /// allocation scheme baseline used in Section 2.5's worked example:
  /// probing every query directly. Provided for benefit computations.
  double NoPhantomCost(const std::vector<Relation>& queries,
                       const std::vector<double>& buckets) const;

 private:
  const RelationCatalog* catalog_;
  const CollisionModel* collision_;
  CostParams params_;
};

}  // namespace streamagg

#endif  // STREAMAGG_CORE_COST_MODEL_H_
