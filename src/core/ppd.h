// Choosing the number of partitions per dimension (Section 3.3).
//
// The mappers build bitstrings for a series of candidate PPDs
// j = 2 .. n_m with n_m = floor(c^(1/d)), and the reducer picks one PPD
// from the observed occupancies rho_j.
//
// Two decision rules are provided:
//  * kCost (the default) — minimize the estimated work of the skyline
//    job on candidate j, in dominance-test units (EstimateGridWork):
//    per-partition overhead, ADR pair enumeration (the Section 6 model
//    scaled by the fill ratio) and tuple tests against windows of the
//    expected per-cell skyline size. DESIGN.md §20 derives the constants.
//  * kPaperLiteral — the rule as printed in the paper: minimize
//    |c/rho_j - c/j^d|, where rho_j is the number of non-empty partitions
//    of candidate j. Ties (within epsilon) break toward the larger j, so
//    on well-spread data this selects the finest grid whose cells are
//    still (almost) all occupied. The figure benches pin it.

#ifndef SKYMR_CORE_PPD_H_
#define SKYMR_CORE_PPD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/grid.h"

namespace skymr::core {

enum class PpdStrategy {
  kPaperLiteral,
  kCost,
};

const char* PpdStrategyName(PpdStrategy strategy);

/// Configuration for grid-resolution selection.
struct PpdOptions {
  /// When > 0, skip selection entirely and use this PPD.
  uint32_t explicit_ppd = 0;
  PpdStrategy strategy = PpdStrategy::kCost;
  /// Largest candidate PPD considered (bounds mapper-side bitstring work).
  uint32_t max_candidate = 64;
  /// Budget for n^d per candidate grid.
  uint64_t max_cells = Grid::kDefaultMaxCells;
};

/// Occupancy of one candidate: (PPD j, non-empty partition count rho_j).
using PpdOccupancy = std::pair<uint32_t, uint64_t>;

/// The candidate series 2 .. n_m, n_m = floor(c^(1/d)), additionally capped
/// by options.max_candidate and by the n^d <= max_cells budget. Always
/// returns at least one candidate (PPD 2) when 2^d fits the budget.
std::vector<uint32_t> CandidatePpds(uint64_t cardinality, size_t dim,
                                    const PpdOptions& options);

/// kCost's score: the estimated skyline-job work of a grid with `ppd`
/// partitions per dimension of which `nonempty` are occupied, in
/// dominance-test units. +infinity when `nonempty` is 0.
double EstimateGridWork(uint64_t cardinality, size_t dim, uint32_t ppd,
                        uint64_t nonempty);

/// Applies the selection rule to the measured occupancies. Precondition:
/// `occupancies` is non-empty. A candidate with rho = 0 is the worst.
uint32_t SelectPpd(const PpdOptions& options, uint64_t cardinality,
                   size_t dim, const std::vector<PpdOccupancy>& occupancies);

}  // namespace skymr::core

#endif  // SKYMR_CORE_PPD_H_
