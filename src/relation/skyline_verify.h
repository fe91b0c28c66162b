// Helpers for validating skyline results against a reference and comparing
// skylines as tuple-id sets. Used by tests and by the experiment harness's
// self-checks.

#ifndef SKYMR_RELATION_SKYLINE_VERIFY_H_
#define SKYMR_RELATION_SKYLINE_VERIFY_H_

#include <string>
#include <vector>

#include "src/relation/dataset.h"
#include "src/relation/tuple.h"

namespace skymr {

/// Reference skyline over the whole dataset, as ascending tuple ids.
/// Duplicated tuples (equal on every dimension) are all retained, matching
/// Definition 1 where equal tuples do not dominate each other.
///
/// A scalar sort-by-coordinate-sum scan (SFS without the kernels): tuples
/// are visited in ascending sum, and each is tested against the skyline
/// found so far plus the tuples tied with it on the sum. It shares no
/// code with the production dominance kernels and costs O(n log n + n s)
/// for a skyline of s tuples; tests cross-check it against the quadratic
/// definition.
std::vector<TupleId> ReferenceSkyline(const Dataset& data);

/// True iff `candidate` equals `expected` as a set of tuple ids.
bool SameIdSet(std::vector<TupleId> candidate, std::vector<TupleId> expected);

/// Checks that `candidate` is exactly the skyline of `data`:
/// every candidate is non-dominated, no non-dominated tuple is missing, and
/// no id repeats. Returns an empty string on success, else a diagnostic.
std::string ExplainSkylineMismatch(const Dataset& data,
                                   const std::vector<TupleId>& candidate);

}  // namespace skymr

#endif  // SKYMR_RELATION_SKYLINE_VERIFY_H_
