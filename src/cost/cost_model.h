// Cost estimation for the grid-partitioning skyline algorithms
// (Section 6 of the paper).
//
// The model upper-bounds the number of partition-wise comparisons — the
// executions of ComparePartitions' critical operation (Algorithm 5, line
// 3) — under two worst-case assumptions: every partition a mapper
// generates is non-empty, and comparing partitions never empties one.
//
//   Equation 5: rho_rem(n, d) = n^d - (n-1)^d
//     remaining partitions after bitstring pruning (the d "low" boundary
//     surfaces of the grid survive; the interior is dominated).
//   Equation 6: rho_dom(p) = prod_k coord_k - 1   (1-based coordinates)
//     partition-wise comparisons for one partition = |p.ADR|.
//   Equation 7: kappa(n, d) = sum over cells of (prod coords - 1)
//   Equation 8: kappa_mapper(n, d) = sum_j kappa_j(n, d)
//     comparisons on one mapper: sum over the d surviving surfaces with
//     pairwise overlaps removed (surface j's first j-1 running indexes
//     start at 2 instead of 1).
//   Equation 9: kappa_reducer(n, d) = kappa_1(n, d)
//     the most loaded MR-GPMRS reducer handles the biggest surface, for
//     which no overlap is discounted.
//
// Closed forms (with B = n(n+1)/2, A = B - 1):
//   kappa_j(n, d)       = A^(j-1) * B^(d-j) - (n-1)^(j-1) * n^(d-j)
//   kappa_reducer(n, d) = B^(d-1) - n^(d-1)
// Both the closed forms and the literal nested sums are implemented; tests
// assert they agree.
//
// Results are returned as double: at the paper's scales (n up to ~64,
// d up to 10) the counts exceed 64-bit integers.
//
// ExpectedMaxima is not from the paper: it is the expected skyline size
// of n independent uniform points in d dimensions (Bentley, Kung,
// Schkolnick & Thompson 1978), H(n, d) = sum_{i=1..n} H(i, d-1) / i with
// H(n, 1) = 1. Unrolled, H(n, d) = h_{d-1}(1, 1/2, ..., 1/n), the complete
// homogeneous symmetric polynomial, which Newton's identities evaluate
// from the power sums p_r = sum_{i<=n} i^-r in O(d^2). The PPD cost rule
// (core/ppd.h) uses it as the expected window size of a grid cell.

#ifndef SKYMR_COST_COST_MODEL_H_
#define SKYMR_COST_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace skymr::cost {

/// Equation 5: partitions remaining after bitstring-based pruning.
double RemainingPartitions(uint32_t ppd, size_t dim);

/// Equation 6: partition-wise comparisons for the partition with the given
/// 1-based coordinates.
double PartitionComparisons(const uint32_t* coords_1based, size_t dim);

/// Equation 7: kappa(n, d) summed over the full grid, closed form.
double KappaFullGrid(uint32_t ppd, size_t dim);

/// kappa_j(n, d): comparisons of the j-th surviving surface (1-based j),
/// overlap with surfaces 1..j-1 removed. Closed form.
double KappaSurface(uint32_t ppd, size_t dim, size_t surface);

/// kappa_j(n, d) evaluated by the literal nested sum (test oracle; cost
/// O(n^(d-1)), so keep n^d small in tests).
double KappaSurfaceLiteral(uint32_t ppd, size_t dim, size_t surface);

/// Equation 8: estimated partition-wise comparisons on one mapper.
double MapperCost(uint32_t ppd, size_t dim);

/// Equation 9: estimated partition-wise comparisons on the most loaded
/// MR-GPMRS reducer.
double ReducerCost(uint32_t ppd, size_t dim);

/// Expected skyline size H(n, d) of n independent uniform points in d
/// dimensions; n is rounded to the nearest integer and clamped to >= 1.
/// Exact to double rounding for n <= 64, within 1e-9 relative beyond
/// (Euler-Maclaurin tails of the power sums).
double ExpectedMaxima(double n, size_t dim);

/// The literal recurrence H(n, d) = sum_{i<=n} H(i, d-1) / i (test
/// oracle; O(n d)).
double ExpectedMaximaLiteral(uint64_t n, size_t dim);

}  // namespace skymr::cost

#endif  // SKYMR_COST_COST_MODEL_H_
