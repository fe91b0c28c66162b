// The per-query half of the session API (DESIGN.md §17).
//
// A skyline computation has two scopes: state that is fixed for the
// lifetime of a resident dataset (grid policy, bounds choice, engine
// sizing, the worker pool, caches — SessionOptions in serve/session.h)
// and parameters that change per request. QuerySpec is the per-request
// half: which skyline job to run, the mapper-side kernel, the
// constraint box, and the query's identity/deadline/tag. A Session
// answers many QuerySpecs over one dataset; ComputeSkyline
// (serve/session.h) answers one.

#ifndef SKYMR_SERVE_QUERY_SPEC_H_
#define SKYMR_SERVE_QUERY_SPEC_H_

#include <cstdint>
#include <optional>

#include "src/core/runner.h"
#include "src/obs/log.h"

namespace skymr {

/// Which admission lane a query rides. The session's two-lane admission
/// reserves a few slots that large queries may not occupy, so a burst
/// of heavy queries cannot starve cheap ones (serve/session.h).
enum class AdmissionClass {
  kAuto,   // classify by the session dataset's cardinality
  kSmall,  // may use any slot, including the reserved ones
  kLarge,  // may not occupy the reserved slots
};

/// Everything one query brings to a resident session.
struct QuerySpec {
  Algorithm algorithm = Algorithm::kMrGpmrs;
  /// Mapper-side local skyline algorithm (kBnl is the paper's
  /// InsertTuple; kSfs and the R-tree kBbs realize the Section 8
  /// future-work optimization; kAuto picks kBbs vs kSfs per partition).
  core::LocalAlgorithm local_algorithm = core::LocalAlgorithm::kBnl;
  /// MR-GPMRS group merging policy (Section 5.4.1).
  core::GroupMergeStrategy merge =
      core::GroupMergeStrategy::kComputationCost;
  /// Hybrid switch tunables (Algorithm::kHybrid only).
  core::HybridPolicy hybrid;
  /// MR-Angle: approximate number of angular partitions.
  uint32_t angle_partitions = 64;
  /// SKY-MR: sample size, leaf capacity, and depth of the sky-quadtree.
  baselines::SkyQuadtree::Options skymr;
  /// Constrained skyline query: when set, the skyline is computed over
  /// only the tuples inside this box. Changes the bitstring fingerprint,
  /// so constrained and unconstrained queries never share a cache entry.
  std::optional<Box> constraint;
  /// Graceful degradation: when a GPMRS (or hybrid-resolved GPMRS) run
  /// fails permanently, retry the skyline phase as a GPSRS
  /// single-reducer merge instead of surfacing the error. The result is
  /// flagged `degraded` and counted under mr.degraded_to_gpsrs.
  bool degrade_to_single_reducer = true;
  /// Query identity: stable id, latency budget, free-form tag. Threaded
  /// through the engine so logs/traces/metrics correlate per query.
  obs::QueryContext query;
  /// Admission lane (two-lane slot layer; kAuto classifies by the
  /// session dataset's size against SessionOptions).
  AdmissionClass admission = AdmissionClass::kAuto;

  /// Rejects per-query contradictions (angle partition count, local
  /// kernel enum out of range). Called by Session::Submit.
  Status Validate() const;
};

}  // namespace skymr

#endif  // SKYMR_SERVE_QUERY_SPEC_H_
