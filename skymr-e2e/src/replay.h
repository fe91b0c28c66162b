// Layer-by-layer replay of one query. The replay calls each layer's
// public function in the order the engine would (bitstring phase, then
// the skyline job's map side, shuffle and reduce side), serially, each
// call inside a benchmark-owned span. It splits the input with the
// engine's rule, so every count it returns is the count the real run
// makes; the agreement check in main.cc holds it to that.

#ifndef SKYMR_E2E_REPLAY_H_
#define SKYMR_E2E_REPLAY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "spans.h"
#include "src/core/independent_groups.h"
#include "src/core/partition_bitstring.h"
#include "src/core/ppd.h"
#include "src/core/runner.h"
#include "src/relation/box.h"
#include "src/relation/dataset.h"

namespace e2e {

struct ReplayConfig {
  int mappers = 8;
  int reducers = 4;
  skymr::Bounds bounds;
  skymr::core::PpdOptions ppd;
  skymr::core::PruneMode prune_mode = skymr::core::PruneMode::kPrefix;
  skymr::core::GroupMergeStrategy merge =
      skymr::core::GroupMergeStrategy::kComputationCost;
};

/// Everything the replay counts. All fields but reducer_seconds are
/// deterministic.
struct ReplayCounts {
  // Bitstring phase (grid algorithms only).
  uint64_t candidates = 0;
  uint32_t ppd = 0;
  uint64_t cells = 0;
  uint64_t nonempty_cells = 0;
  uint64_t pruned_cells = 0;
  uint64_t bitstring_shuffle_bytes = 0;
  // Map side of the skyline job.
  uint64_t tuples_in_box = 0;      // Tuples inside the constraint box.
  uint64_t tuples_routed = 0;      // Of those, tuples the bitstring kept.
  uint64_t local_partitions = 0;   // Non-empty windows over all mappers.
  uint64_t local_comparisons = 0;  // Local kernel dominance tests.
  uint64_t local_survivors = 0;    // Tuples the local kernel kept.
  std::vector<uint64_t> window_sizes;  // Per window, after map-side CP.
  // ComparePartitions (Algorithm 5), map and reduce side.
  uint64_t cp_pairs = 0;
  uint64_t cp_comparisons = 0;
  uint64_t cp_removed = 0;
  // Shuffle and reduce side.
  uint64_t skyline_shuffle_bytes = 0;
  std::vector<uint64_t> reducer_input_bytes;
  uint64_t merge_comparisons = 0;
  // The answer.
  std::vector<skymr::TupleId> skyline_ids;
  // Inclusive wall of each reduce task (the one field that is a time,
  // not a count; zero without a recorder).
  std::vector<double> reducer_seconds;

  uint64_t tuple_comparisons() const {
    return local_comparisons + cp_comparisons + merge_comparisons;
  }
};

/// Replays `algorithm` (MR-GPSRS, MR-GPMRS or MR-BNL, BNL local kernel)
/// over `data`, restricted to `constraint` when set. Spans go to
/// `recorder` (may be null). Returns false on an unsupported algorithm.
bool ReplayQuery(const skymr::Dataset& data, const ReplayConfig& config,
                 skymr::Algorithm algorithm,
                 const std::optional<skymr::Box>& constraint,
                 SpanRecorder* recorder, ReplayCounts* counts);

}  // namespace e2e

#endif  // SKYMR_E2E_REPLAY_H_
