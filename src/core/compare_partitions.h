// ComparePartitions (Algorithm 5): false-positive elimination across
// partition-local skylines. For every partition p, tuples of S_p dominated
// by a tuple of S_pi with p_i in p.ADR are removed. Used by the map step
// (Algorithm 3 lines 9-10, Algorithm 8 lines 9-10) and the reduce step
// (Algorithm 6 lines 7-8, Algorithm 9 lines 9-10).

#ifndef SKYMR_CORE_COMPARE_PARTITIONS_H_
#define SKYMR_CORE_COMPARE_PARTITIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/thread_pool.h"
#include "src/core/grid.h"
#include "src/core/messages.h"

namespace skymr::core {

/// Scratch budget, in bits, for each of CompareAllPartitions' two copies
/// of prefix bitsets. Source ranks are processed in blocks of
/// 64 * max(1, floor(budget / (64 * rows))) ranks, where rows <=
/// d * min(ppd, windows) is the number of distinct (dimension, coordinate)
/// pairs present, so a copy never exceeds max(budget, 64 * rows) bits.
inline constexpr size_t kComparePartitionsScratchBits = size_t{1} << 22;

/// Applies Algorithm 5 to every window in `windows` against all others.
/// Returns the number of partition-wise comparisons performed, i.e. how
/// many times Algorithm 5's line 3 executed — the quantity the paper's
/// cost model (Section 6) estimates and Section 7.5 measures.
/// `tuple_counter` (optional) additionally accrues tuple dominance tests.
/// Each window meets its ADR members in ascending cell-id order, after
/// each of them is final, so results and both counts are those of the
/// all-pairs scan; only the pairs with an empty side are skipped.
/// Targets run level by level; with a `pool`, the targets of one level
/// run in parallel (ParallelChunks). Each still meets its ADR members in
/// ascending order once they are final, and the counts are kept per
/// target, so the result does not depend on the pool (DESIGN.md §19).
uint64_t CompareAllPartitions(const Grid& grid, CellWindowMap* windows,
                              DominanceCounter* tuple_counter,
                              ThreadPool* pool = nullptr);

}  // namespace skymr::core

#endif  // SKYMR_CORE_COMPARE_PARTITIONS_H_
