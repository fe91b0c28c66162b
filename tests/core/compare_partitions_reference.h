// Test-only reference for CompareAllPartitions: Algorithm 5 as the literal
// all-pairs scan. Every ordered pair of held cells is tested for ADR
// membership and every ADR hit calls RemoveDominatedBy, empty windows
// included. The library's enumeration must match it bit for bit: the
// returned pair count, the dominance-test total and every window's id
// sequence. Shared by tests/core/compare_partitions_test.cc and
// fuzz/fuzz_compare_partitions.cc.

#ifndef SKYMR_TESTS_CORE_COMPARE_PARTITIONS_REFERENCE_H_
#define SKYMR_TESTS_CORE_COMPARE_PARTITIONS_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/core/grid.h"
#include "src/core/messages.h"

namespace skymr::core {

inline uint64_t ReferenceCompareAllPartitions(const Grid& grid,
                                              CellWindowMap* windows,
                                              DominanceCounter* tuple_counter) {
  const size_t d = grid.dim();
  std::vector<CellId> cells;
  cells.reserve(windows->size());
  for (const auto& [cell, window] : *windows) {
    cells.push_back(cell);
  }
  std::vector<uint32_t> coords(cells.size() * d);
  for (size_t i = 0; i < cells.size(); ++i) {
    grid.CoordsOf(cells[i], &coords[i * d]);
  }

  uint64_t partition_comparisons = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    SkylineWindow& target = (*windows)[cells[i]];
    for (size_t j = 0; j < cells.size(); ++j) {
      if (i == j) {
        continue;
      }
      if (!grid.InAdrOfCoords(&coords[i * d], &coords[j * d])) {
        continue;
      }
      ++partition_comparisons;
      target.RemoveDominatedBy((*windows)[cells[j]], tuple_counter);
    }
  }
  return partition_comparisons;
}

}  // namespace skymr::core

#endif  // SKYMR_TESTS_CORE_COMPARE_PARTITIONS_REFERENCE_H_
