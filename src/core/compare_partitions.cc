#include "src/core/compare_partitions.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "src/obs/trace.h"

#if defined(__x86_64__) || defined(__i386__)
#define SKYMR_COMPARE_X86 1
#else
#define SKYMR_COMPARE_X86 0
#endif

namespace skymr::core {
namespace {

// Popcount of the AND of `d` prefix rows over `words` words, the last
// word cut by `last_mask`: one target's pair count. The build does not
// assume POPCNT, so the portable instance calls a software popcount; the
// x86 instance is compiled for POPCNT and chosen once at startup, like
// the AVX2 dominance kernels. Both count the same bits.
[[gnu::always_inline]] inline uint64_t CountAdrWords(
    const uint64_t* const* rows, size_t d, size_t words, uint64_t last_mask) {
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t adr = rows[0][w];
    for (size_t a = 1; a < d; ++a) {
      adr &= rows[a][w];
    }
    count += static_cast<uint64_t>(
        __builtin_popcountll(w + 1 == words ? adr & last_mask : adr));
  }
  return count;
}

uint64_t CountAdrPortable(const uint64_t* const* rows, size_t d,
                          size_t words, uint64_t last_mask) {
  return CountAdrWords(rows, d, words, last_mask);
}

#if SKYMR_COMPARE_X86
__attribute__((target("popcnt"))) uint64_t CountAdrPopcnt(
    const uint64_t* const* rows, size_t d, size_t words,
    uint64_t last_mask) {
  return CountAdrWords(rows, d, words, last_mask);
}
#endif

using CountAdrFn = uint64_t (*)(const uint64_t* const*, size_t, size_t,
                                uint64_t);

CountAdrFn SelectCountAdr() {
#if SKYMR_COMPARE_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) {
    return CountAdrPopcnt;
  }
#endif
  return CountAdrPortable;
}

const CountAdrFn kCountAdr = SelectCountAdr();

// The id-ordered dense view and the current block's prefix bitsets: what
// every target reads (DESIGN.md §18.1).
struct Enumeration {
  size_t d = 0;
  std::vector<SkylineWindow*> window_at;
  // Per rank, per dimension: the prefix-bitset row of its coordinate.
  std::vector<uint32_t> row_of;
  std::vector<size_t> dim_end;
  size_t block_words = 0;
  // B_a[v] over present cells (the pair count) and over non-empty windows
  // (the removal walk), for source ranks [b0, b1).
  std::vector<uint64_t> present;
  std::vector<uint64_t> nonempty;
  size_t b0 = 0;
  size_t b1 = 0;

  // Algorithm 5 for the target of rank i against this block's sources:
  // the pairs counted and the removals, in ascending source rank. Reads
  // only sources j < i and writes only window i.
  uint64_t CompareTarget(size_t i, DominanceCounter* tuple_counter) const {
    thread_local std::vector<const uint64_t*> rows;
    rows.resize(2 * d);
    const uint64_t* const* present_rows = rows.data();
    const uint64_t* const* nonempty_rows = rows.data() + d;
    for (size_t a = 0; a < d; ++a) {
      rows[a] = &present[row_of[i * d + a] * block_words];
      rows[d + a] = &nonempty[row_of[i * d + a] * block_words];
    }
    const size_t limit = std::min(i, b1) - b0;  // Ranks [b0, b0+limit).
    const size_t words = (limit + 63) / 64;
    const uint64_t last_mask =
        limit % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (limit % 64)) - 1;
    // Algorithm 5, line 3 runs once per ADR member held, empty or not.
    const uint64_t pairs = kCountAdr(present_rows, d, words, last_mask);
    // Empty windows on either side make RemoveDominatedBy a no-op, so
    // only non-empty sources are visited, and only while i has tuples.
    SkylineWindow& target = *window_at[i];
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
    return pairs;
  }

  // A target of this block that emptied stops being a source.
  void ClearIfEmptied(size_t i) {
    if (i >= b1 || !window_at[i]->empty()) {
      return;
    }
    const uint64_t bit = uint64_t{1} << ((i - b0) % 64);
    if ((nonempty[row_of[i * d] * block_words + (i - b0) / 64] & bit) == 0) {
      return;  // Empty from the start: never a source.
    }
    for (size_t a = 0; a < d; ++a) {
      for (size_t row = row_of[i * d + a]; row < dim_end[a]; ++row) {
        nonempty[row * block_words + (i - b0) / 64] &= ~bit;
      }
    }
  }
};

}  // namespace

// Enumerates each target's ADR as a bitset over cell ranks instead of
// testing every ordered pair (DESIGN.md §18). Rank r is the r-th smallest
// cell id in `windows`. Every ADR member of cell i has a smaller id, so
// p_i.ADR = {j < i : coord_j[a] <= coord_i[a] for all a}, which is the
// AND over dimensions of the prefix bitsets B_a[coord_i[a]] cut at rank i.
uint64_t CompareAllPartitions(const Grid& grid, CellWindowMap* windows,
                              DominanceCounter* tuple_counter,
                              ThreadPool* pool) {
  SKYMR_TRACE_SPAN("core.compare_partitions", "partitions",
                   static_cast<int64_t>(windows->size()));
  Enumeration e;
  e.d = grid.dim();
  const size_t d = e.d;
  const size_t k = windows->size();
  if (k < 2) {
    return 0;
  }

  // Id-ordered dense view: window pointers and decoded coordinates.
  e.window_at.reserve(k);
  e.row_of.resize(k * d);
  for (auto& [cell, window] : *windows) {
    grid.CoordsOf(cell, &e.row_of[e.window_at.size() * d]);
    e.window_at.push_back(&window);
  }
  // Replace each coordinate by its prefix-bitset row: dimension a owns
  // one row per distinct coordinate present, so the row count is at most
  // d * min(ppd, k) however fine the grid.
  e.dim_end.resize(d);
  size_t rows = 0;
  std::vector<uint32_t> values(k);
  for (size_t a = 0; a < d; ++a) {
    for (size_t r = 0; r < k; ++r) {
      values[r] = e.row_of[r * d + a];
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (size_t r = 0; r < k; ++r) {
      uint32_t& coord = e.row_of[r * d + a];
      coord = static_cast<uint32_t>(
          rows + (std::lower_bound(values.begin(), values.end(), coord) -
                  values.begin()));
    }
    rows += values.size();
    e.dim_end[a] = rows;
    values.resize(k);
  }

  // Targets run in ascending level (the sum of the coordinates' indices
  // among the values present), ascending rank within a level. Every ADR
  // member of a target sits on a strictly lower level, so the targets of
  // one level are independent (DESIGN.md §19).
  std::vector<size_t> level_of(k, 0);
  for (size_t r = 0; r < k; ++r) {
    for (size_t a = 0; a < d; ++a) {
      level_of[r] += e.row_of[r * d + a] - (a == 0 ? 0 : e.dim_end[a - 1]);
    }
  }
  std::vector<size_t> level_begin(rows - d + 2, 0);  // Levels 0..rows-d.
  for (size_t r = 0; r < k; ++r) {
    ++level_begin[level_of[r] + 1];
  }
  for (size_t l = 1; l < level_begin.size(); ++l) {
    level_begin[l] += level_begin[l - 1];
  }
  std::vector<size_t> by_level(k);
  std::vector<size_t> fill(level_begin.begin(), level_begin.end() - 1);
  for (size_t r = 0; r < k; ++r) {
    by_level[fill[level_of[r]]++] = r;
  }
  std::vector<uint64_t> unit_pairs;
  std::vector<uint64_t> unit_tests;

  // Source ranks are processed in blocks of `block` ranks so each bitset
  // copy stays within max(kComparePartitionsScratchBits, 64 * rows) bits.
  e.block_words = std::clamp<size_t>(
      kComparePartitionsScratchBits / (64 * rows), 1, (k + 63) / 64);
  const size_t block_words = e.block_words;
  const size_t block = block_words * 64;
  e.present.resize(rows * block_words);
  e.nonempty.resize(rows * block_words);

  uint64_t partition_comparisons = 0;
  for (e.b0 = 0; e.b0 < k; e.b0 += block) {
    const size_t b0 = e.b0;
    e.b1 = std::min(k, b0 + block);
    std::fill(e.present.begin(), e.present.end(), 0);
    std::fill(e.nonempty.begin(), e.nonempty.end(), 0);
    for (size_t r = b0; r < e.b1; ++r) {
      const uint64_t bit = uint64_t{1} << ((r - b0) % 64);
      const size_t word = (r - b0) / 64;
      const bool has_tuples = !e.window_at[r]->empty();
      for (size_t a = 0; a < d; ++a) {
        e.present[e.row_of[r * d + a] * block_words + word] |= bit;
        if (has_tuples) {
          e.nonempty[e.row_of[r * d + a] * block_words + word] |= bit;
        }
      }
    }
    // Exact-value rows become prefix rows: B_a[v] |= B_a[v - 1].
    for (size_t a = 0; a < d; ++a) {
      const size_t first = a == 0 ? 0 : e.dim_end[a - 1];
      for (size_t row = first + 1; row < e.dim_end[a]; ++row) {
        for (size_t w = 0; w < block_words; ++w) {
          e.present[row * block_words + w] |=
              e.present[(row - 1) * block_words + w];
          e.nonempty[row * block_words + w] |=
              e.nonempty[(row - 1) * block_words + w];
        }
      }
    }

    // Targets meet this block's sources after every earlier block's, in
    // ascending rank, and every source j < i is final by then: the same
    // call sequence per target as the all-pairs scan.
    for (size_t l = 0; l + 1 < level_begin.size(); ++l) {
      const size_t* first = by_level.data() + level_begin[l];
      const size_t* last = by_level.data() + level_begin[l + 1];
      first = std::upper_bound(first, last, b0);  // Targets i > b0.
      const auto units = static_cast<size_t>(last - first);
      // A target costs its tuples plus the prefix words it scans.
      uint64_t work = 0;
      for (const size_t* i = first; i != last; ++i) {
        work += e.window_at[*i]->size() + (std::min(*i, e.b1) - b0 + 63) / 64;
      }
      unit_pairs.assign(units, 0);
      unit_tests.assign(units, 0);
      ParallelChunks(pool, units, work, [&](size_t u) {
        DominanceCounter tests;  // Local: neighbouring slots share a line.
        unit_pairs[u] = e.CompareTarget(first[u], &tests);
        unit_tests[u] = tests.count();
      });
      for (size_t u = 0; u < units; ++u) {
        partition_comparisons += unit_pairs[u];
        if (tuple_counter != nullptr) {
          tuple_counter->Add(unit_tests[u]);
        }
        e.ClearIfEmptied(first[u]);
      }
    }
  }
  return partition_comparisons;
}

}  // namespace skymr::core
