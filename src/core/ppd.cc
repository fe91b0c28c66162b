#include "src/core/ppd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/common/math_util.h"
#include "src/cost/cost_model.h"

namespace skymr::core {

const char* PpdStrategyName(PpdStrategy strategy) {
  switch (strategy) {
    case PpdStrategy::kPaperLiteral:
      return "paper-literal";
    case PpdStrategy::kCost:
      return "cost";
  }
  return "unknown";
}

std::vector<uint32_t> CandidatePpds(uint64_t cardinality, size_t dim,
                                    const PpdOptions& options) {
  if (options.explicit_ppd > 0) {
    return {options.explicit_ppd};
  }
  // n_m = floor(c^(1/d)): the PPD at which TPP would reach 1 on uniform
  // data (Equation 4 with TPP = 1).
  uint64_t nm = FloorRoot(cardinality, static_cast<uint32_t>(dim));
  nm = std::min<uint64_t>(nm, options.max_candidate);
  std::vector<uint32_t> candidates;
  for (uint32_t j = 2; j <= nm; ++j) {
    const std::optional<uint64_t> cells =
        CheckedPow(j, static_cast<uint32_t>(dim));
    if (!cells.has_value() || *cells > options.max_cells) {
      break;
    }
    candidates.push_back(j);
  }
  if (candidates.empty()) {
    // Tiny datasets (c < 2^d) still need a grid; fall back to PPD 2 when
    // it fits the cell budget.
    const std::optional<uint64_t> cells =
        CheckedPow(2, static_cast<uint32_t>(dim));
    if (cells.has_value() && *cells <= options.max_cells) {
      candidates.push_back(2);
    }
  }
  return candidates;
}

namespace {

// Per-unit costs of the skyline job, in tuple tests (one tuple-vs-tuple
// dominance test). DESIGN.md §20 derives them from the per-layer self
// times and counters of `skymr-e2e --trace 1`; each sits below its
// measured value because the uniform-cell window estimate under-counts
// the tests on anti-correlated data (§20.2).
//
// A non-empty cell becomes a partition on every mapper that holds one of
// its tuples: routing, a window, a shuffle record, a merge slot and a
// slot in ComparePartitions' dense view on each (measured 2,900-4,100).
constexpr double kPartitionCost = 2000.0;
// One enumerated ADR pair: the prefix-bitset AND and the window lookups,
// repeated by the mapper and reducer calls of ComparePartitions
// (measured 11-14).
constexpr double kPairCost = 10.0;
// Window-vs-window tests per ADR pair, as a share of the |W|^2 bound:
// early exits, and tuples already removed by earlier sources, leave
// 0.02 (independent) to 1.4 (anti-correlated, coarse grid) of it.
constexpr double kWindowPairShare = 0.15;

uint32_t SelectPaperLiteral(uint64_t cardinality, size_t dim,
                            const std::vector<PpdOccupancy>& occupancies) {
  const auto c = static_cast<double>(cardinality);
  uint32_t best_ppd = 0;
  double best_diff = 0.0;
  // Ties within epsilon break toward the larger PPD; candidates arrive in
  // ascending order, so `>= diff - eps` keeps the larger.
  constexpr double kEpsilon = 1e-9;
  for (const auto& [ppd, rho] : occupancies) {
    const double tpp_estimate =
        rho > 0 ? c / static_cast<double>(rho)
                : std::numeric_limits<double>::infinity();
    const double tpp_uniform =
        c / std::pow(static_cast<double>(ppd), static_cast<double>(dim));
    const double diff = std::abs(tpp_estimate - tpp_uniform);
    if (best_ppd == 0 || diff < best_diff - kEpsilon ||
        (diff <= best_diff + kEpsilon && ppd > best_ppd)) {
      if (best_ppd == 0 || diff < best_diff) {
        best_diff = diff;
      }
      best_ppd = ppd;
    }
  }
  return best_ppd;
}

uint32_t SelectCheapest(uint64_t cardinality, size_t dim,
                        const std::vector<PpdOccupancy>& occupancies) {
  uint32_t best_ppd = occupancies.front().first;
  double best_work = std::numeric_limits<double>::infinity();
  // Strictly cheaper wins, so equal scores keep the smaller PPD.
  for (const auto& [ppd, rho] : occupancies) {
    const double work = EstimateGridWork(cardinality, dim, ppd, rho);
    if (work < best_work) {
      best_work = work;
      best_ppd = ppd;
    }
  }
  return best_ppd;
}

}  // namespace

double EstimateGridWork(uint64_t cardinality, size_t dim, uint32_t ppd,
                        uint64_t nonempty) {
  if (nonempty == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const auto c = static_cast<double>(cardinality);
  const auto rho = static_cast<double>(nonempty);
  const double cells =
      std::pow(static_cast<double>(ppd), static_cast<double>(dim));
  // Expected window: the skyline of the tuples of an average non-empty
  // cell, if they were uniform within it.
  const double window = cost::ExpectedMaxima(c / rho, dim);
  // ADR pairs of one ComparePartitions call: Equation 8 counts them on a
  // fully occupied grid; an empty cell is neither source nor target.
  const double pairs = cost::MapperCost(ppd, dim) * std::min(1.0, rho / cells);
  // Local skylines: every tuple meets at most its cell's window.
  const double local_tests = c * window;
  const double window_tests = kWindowPairShare * pairs * window * window;
  return kPartitionCost * rho + kPairCost * pairs + local_tests +
         window_tests;
}

uint32_t SelectPpd(const PpdOptions& options, uint64_t cardinality,
                   size_t dim, const std::vector<PpdOccupancy>& occupancies) {
  assert(!occupancies.empty());
  if (cardinality == 0) {
    // Degenerate input: every candidate is equally (un)informative.
    return occupancies.front().first;
  }
  switch (options.strategy) {
    case PpdStrategy::kPaperLiteral:
      return SelectPaperLiteral(cardinality, dim, occupancies);
    case PpdStrategy::kCost:
      return SelectCheapest(cardinality, dim, occupancies);
  }
  return occupancies.front().first;
}

}  // namespace skymr::core
