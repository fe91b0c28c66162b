#include "src/core/compare_partitions.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "src/obs/trace.h"

namespace skymr::core {

// Enumerates each target's ADR as a bitset over cell ranks instead of
// testing every ordered pair (DESIGN.md §18). Rank r is the r-th smallest
// cell id in `windows`. Every ADR member of cell i has a smaller id, so
// p_i.ADR = {j < i : coord_j[a] <= coord_i[a] for all a}, which is the
// AND over dimensions of the prefix bitsets B_a[coord_i[a]] cut at rank i.
uint64_t CompareAllPartitions(const Grid& grid, CellWindowMap* windows,
                              DominanceCounter* tuple_counter) {
  SKYMR_TRACE_SPAN("core.compare_partitions", "partitions",
                   static_cast<int64_t>(windows->size()));
  const size_t d = grid.dim();
  const size_t k = windows->size();
  if (k < 2) {
    return 0;
  }

  // Id-ordered dense view: window pointers and decoded coordinates.
  std::vector<SkylineWindow*> window_at;
  window_at.reserve(k);
  std::vector<uint32_t> row_of(k * d);
  for (auto& [cell, window] : *windows) {
    grid.CoordsOf(cell, &row_of[window_at.size() * d]);
    window_at.push_back(&window);
  }
  // Replace each coordinate by its prefix-bitset row: dimension a owns
  // one row per distinct coordinate present, so the row count is at most
  // d * min(ppd, k) however fine the grid.
  std::vector<size_t> dim_end(d);
  size_t rows = 0;
  std::vector<uint32_t> values(k);
  for (size_t a = 0; a < d; ++a) {
    for (size_t r = 0; r < k; ++r) {
      values[r] = row_of[r * d + a];
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (size_t r = 0; r < k; ++r) {
      uint32_t& coord = row_of[r * d + a];
      coord = static_cast<uint32_t>(
          rows + (std::lower_bound(values.begin(), values.end(), coord) -
                  values.begin()));
    }
    rows += values.size();
    dim_end[a] = rows;
    values.resize(k);
  }

  // Source ranks are processed in blocks of `block` ranks so each bitset
  // copy stays within max(kComparePartitionsScratchBits, 64 * rows) bits.
  const size_t block_words = std::clamp<size_t>(
      kComparePartitionsScratchBits / (64 * rows), 1, (k + 63) / 64);
  const size_t block = block_words * 64;
  // B_a[v] over present cells (the pair count) and over non-empty windows
  // (the removal walk).
  std::vector<uint64_t> present(rows * block_words);
  std::vector<uint64_t> nonempty(rows * block_words);
  std::vector<const uint64_t*> present_rows(d);
  std::vector<uint64_t*> nonempty_rows(d);

  uint64_t partition_comparisons = 0;
  for (size_t b0 = 0; b0 < k; b0 += block) {
    const size_t b1 = std::min(k, b0 + block);
    std::fill(present.begin(), present.end(), 0);
    std::fill(nonempty.begin(), nonempty.end(), 0);
    for (size_t r = b0; r < b1; ++r) {
      const uint64_t bit = uint64_t{1} << ((r - b0) % 64);
      const size_t word = (r - b0) / 64;
      const bool has_tuples = !window_at[r]->empty();
      for (size_t a = 0; a < d; ++a) {
        present[row_of[r * d + a] * block_words + word] |= bit;
        if (has_tuples) {
          nonempty[row_of[r * d + a] * block_words + word] |= bit;
        }
      }
    }
    // Exact-value rows become prefix rows: B_a[v] |= B_a[v - 1].
    for (size_t a = 0; a < d; ++a) {
      const size_t first = a == 0 ? 0 : dim_end[a - 1];
      for (size_t row = first + 1; row < dim_end[a]; ++row) {
        for (size_t w = 0; w < block_words; ++w) {
          present[row * block_words + w] |=
              present[(row - 1) * block_words + w];
          nonempty[row * block_words + w] |=
              nonempty[(row - 1) * block_words + w];
        }
      }
    }

    // Targets meet this block's sources after every earlier block's, in
    // ascending rank, and every source j < i is final by then: the same
    // call sequence per target as the all-pairs scan.
    for (size_t i = b0 + 1; i < k; ++i) {
      const size_t limit = std::min(i, b1) - b0;  // Ranks [b0, b0+limit).
      const size_t words = (limit + 63) / 64;
      const uint64_t last_mask =
          limit % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (limit % 64)) - 1;
      for (size_t a = 0; a < d; ++a) {
        present_rows[a] = &present[row_of[i * d + a] * block_words];
        nonempty_rows[a] = &nonempty[row_of[i * d + a] * block_words];
      }
      // Algorithm 5, line 3 runs once per ADR member held, empty or not.
      for (size_t w = 0; w < words; ++w) {
        uint64_t adr = present_rows[0][w];
        for (size_t a = 1; a < d; ++a) {
          adr &= present_rows[a][w];
        }
        partition_comparisons += static_cast<uint64_t>(
            std::popcount(w + 1 == words ? adr & last_mask : adr));
      }
      // Empty windows on either side make RemoveDominatedBy a no-op, so
      // only non-empty sources are visited, and only while i has tuples.
      SkylineWindow& target = *window_at[i];
      if (target.empty()) {
        continue;
      }
      for (size_t w = 0; w < words && !target.empty(); ++w) {
        uint64_t adr = nonempty_rows[0][w];
        for (size_t a = 1; a < d; ++a) {
          adr &= nonempty_rows[a][w];
        }
        if (w + 1 == words) {
          adr &= last_mask;
        }
        for (; adr != 0 && !target.empty(); adr &= adr - 1) {
          const size_t j = b0 + w * 64 + std::countr_zero(adr);
          target.RemoveDominatedBy(*window_at[j], tuple_counter);
        }
      }
      // A target of this block that just emptied stops being a source.
      if (i < b1 && target.empty()) {
        const uint64_t bit = uint64_t{1} << ((i - b0) % 64);
        for (size_t a = 0; a < d; ++a) {
          for (size_t row = row_of[i * d + a]; row < dim_end[a]; ++row) {
            nonempty[row * block_words + (i - b0) / 64] &= ~bit;
          }
        }
      }
    }
  }
  return partition_comparisons;
}

}  // namespace skymr::core
