#include "src/core/compare_partitions.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/generator.h"
#include "src/local/bnl.h"
#include "src/relation/skyline_verify.h"
#include "tests/core/compare_partitions_reference.h"

namespace skymr::core {
namespace {

Grid MakeGrid(size_t dim, uint32_t ppd) {
  return std::move(Grid::Create(dim, ppd, Bounds::UnitCube(dim))).value();
}

SkylineWindow OneTuple(TupleId id, std::vector<double> row) {
  SkylineWindow window(row.size());
  window.AppendUnchecked(row.data(), id);
  return window;
}

TEST(CompareAllPartitionsTest, RemovesCrossPartitionFalsePositives) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  // Cells 0 = (0,0) and 1 = (1,0) are not related by partition dominance
  // (cell 0's max corner does not dominate cell 1's min corner), yet the
  // tuple in cell 0 dominates the tuple in cell 1: exactly the false
  // positive Algorithm 5 removes via the ADR check.
  windows.emplace(0, OneTuple(0, {0.2, 0.2}));
  windows.emplace(1, OneTuple(1, {0.4, 0.25}));  // Cell (1,0).
  const uint64_t comparisons = CompareAllPartitions(grid, &windows, nullptr);
  // Cell 1's ADR contains cell 0: one comparison; cell 0's ADR is empty.
  EXPECT_EQ(comparisons, 1u);
  EXPECT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[1].size(), 0u);
}

TEST(CompareAllPartitionsTest, IncomparableTuplesSurvive) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  windows.emplace(0, OneTuple(0, {0.3, 0.1}));
  windows.emplace(3, OneTuple(1, {0.1, 0.5}));  // Cell (0,1).
  CompareAllPartitions(grid, &windows, nullptr);
  EXPECT_EQ(windows[0].size(), 1u);
  EXPECT_EQ(windows[3].size(), 1u);
}

TEST(CompareAllPartitionsTest, ComparisonCountMatchesAdrPairs) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  for (const CellId cell : {0, 1, 3, 4}) {
    windows.emplace(cell, SkylineWindow(2));
  }
  // ADR pairs among {0,1,3,4}: 1->{0}, 3->{0}, 4->{0,1,3}. Total 5.
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 5u);
}

TEST(CompareAllPartitionsTest, EmptyMapZeroComparisons) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 0u);
}

TEST(CompareAllPartitionsTest, SinglePartitionZeroComparisons) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  windows.emplace(4, OneTuple(0, {0.5, 0.5}));
  EXPECT_EQ(CompareAllPartitions(grid, &windows, nullptr), 0u);
  EXPECT_EQ(windows[4].size(), 1u);
}

TEST(CompareAllPartitionsTest, ProducesGlobalSkylineFromCellWindows) {
  // Build per-cell local skylines for the full dataset; after
  // CompareAllPartitions the union must be exactly the global skyline.
  const Dataset dataset = data::GenerateIndependent(1500, 3, 31);
  const Grid grid = MakeGrid(3, 4);
  CellWindowMap windows;
  DominanceCounter counter;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    const CellId cell = grid.CellOf(dataset.RowPtr(id));
    auto [it, inserted] = windows.try_emplace(cell, SkylineWindow(3));
    it->second.Insert(dataset.RowPtr(id), id, &counter);
  }
  CompareAllPartitions(grid, &windows, &counter);
  std::vector<TupleId> ids;
  for (const auto& [cell, window] : windows) {
    ids.insert(ids.end(), window.ids().begin(), window.ids().end());
  }
  EXPECT_EQ(ExplainSkylineMismatch(dataset, ids), "");
  EXPECT_GT(counter.count(), 0u);
}

TEST(CompareAllPartitionsTest, CountsTupleChecksIntoCounter) {
  const Grid grid = MakeGrid(2, 2);
  CellWindowMap windows;
  windows.emplace(0, OneTuple(0, {0.2, 0.2}));
  windows.emplace(1, OneTuple(1, {0.6, 0.4}));
  DominanceCounter counter;
  CompareAllPartitions(grid, &windows, &counter);
  EXPECT_EQ(counter.count(), 1u);
}

// ---------------------------------------------------------------------------
// Bit-identity against the all-pairs reference.

/// Windows over `cells` distinct random cells of `grid` (every cell when
/// `cells` >= the grid's cell count), in the state a reducer holds them
/// before Algorithm 5: some windows empty, duplicates retained, a few
/// crowded windows so that targets empty part-way through their ADR.
CellWindowMap RandomWindows(const Grid& grid, uint64_t cells, uint64_t seed) {
  Rng rng(seed);
  const size_t d = grid.dim();
  std::set<CellId> chosen;
  while (chosen.size() < cells && chosen.size() < grid.num_cells()) {
    chosen.insert(rng.NextBounded(grid.num_cells()));
  }
  CellWindowMap windows;
  TupleId next_id = 0;
  std::vector<uint32_t> coords(d);
  std::vector<double> row(d);
  for (const CellId cell : chosen) {
    SkylineWindow& window = windows.emplace(cell, SkylineWindow(d))
                                .first->second;
    grid.CoordsOf(cell, coords.data());
    const uint64_t tuples =
        rng.NextBounded(8) == 0 ? 8 + rng.NextBounded(16) : rng.NextBounded(4);
    const bool lattice = rng.NextBounded(2) == 0;  // Exact ties.
    for (uint64_t t = 0; t < tuples; ++t) {
      if (t > 0 && rng.NextBounded(4) == 0) {
        // Duplicate of a row already in the window (kept: equal tuples
        // do not dominate each other).
        const size_t src = rng.NextBounded(window.size());
        row.assign(window.RowAt(src), window.RowAt(src) + d);
      } else {
        for (size_t a = 0; a < d; ++a) {
          const double offset = lattice
                                    ? static_cast<double>(rng.NextBounded(3)) / 3.0
                                    : rng.NextDouble();
          row[a] = (coords[a] + offset) / grid.ppd();
        }
      }
      window.Insert(row.data(), next_id++, nullptr);
    }
  }
  return windows;
}

/// No pool, then pools of 1, 2 and 4 threads (level-parallel targets).
std::vector<ThreadPool*> PoolsUnderTest() {
  static ThreadPool one(1);
  static ThreadPool two(2);
  static ThreadPool four(4);
  return {nullptr, &one, &two, &four};
}

void ExpectMatchesReference(const Grid& grid, const CellWindowMap& input) {
  CellWindowMap expected = input;
  DominanceCounter expected_tests;
  const uint64_t expected_pairs =
      ReferenceCompareAllPartitions(grid, &expected, &expected_tests);
  for (ThreadPool* pool : PoolsUnderTest()) {
    SCOPED_TRACE(::testing::Message()
                 << "pool threads "
                 << (pool == nullptr ? 0 : pool->num_threads()));
    CellWindowMap actual = input;
    DominanceCounter actual_tests;
    const uint64_t actual_pairs =
        CompareAllPartitions(grid, &actual, &actual_tests, pool);
    EXPECT_EQ(actual_pairs, expected_pairs);
    EXPECT_EQ(actual_tests.count(), expected_tests.count());
    ASSERT_EQ(actual.size(), expected.size());
    for (auto a = actual.begin(), e = expected.begin(); a != actual.end();
         ++a, ++e) {
      ASSERT_EQ(a->first, e->first);
      EXPECT_EQ(a->second.ids(), e->second.ids()) << "cell " << a->first;
      EXPECT_TRUE(a->second == e->second) << "cell " << a->first;
    }
  }
}

/// Ranks per source block for these windows, per the budget documented
/// beside kComparePartitionsScratchBits.
size_t BlockWidth(const Grid& grid, const CellWindowMap& windows) {
  size_t rows = 0;
  std::vector<uint32_t> coords(grid.dim());
  for (size_t a = 0; a < grid.dim(); ++a) {
    std::set<uint32_t> values;
    for (const auto& [cell, window] : windows) {
      grid.CoordsOf(cell, coords.data());
      values.insert(coords[a]);
    }
    rows += values.size();
  }
  return 64 * std::max<size_t>(1, kComparePartitionsScratchBits / (64 * rows));
}

TEST(CompareAllPartitionsTest, MatchesAllPairsReferenceAcrossGrids) {
  for (size_t dim = 1; dim <= 7; ++dim) {
    for (const uint32_t ppd : {1u, 2u, 3u, 5u, 8u, 64u}) {
      uint64_t num_cells = 1;
      for (size_t a = 0; a < dim; ++a) {
        num_cells *= ppd;
      }
      if (num_cells > Grid::kDefaultMaxCells) {
        continue;
      }
      const Grid grid = MakeGrid(dim, ppd);
      // Sparse occupancy below and above one 64-rank word, then full
      // occupancy where the grid is small enough for the reference.
      for (const uint64_t cells : {uint64_t{7}, uint64_t{150}, uint64_t{4096}}) {
        if (cells == 4096 && num_cells > cells) {
          continue;
        }
        SCOPED_TRACE(::testing::Message() << "d=" << dim << " ppd=" << ppd
                                          << " cells=" << cells);
        ExpectMatchesReference(
            grid, RandomWindows(grid, cells, dim * 1000 + ppd * 10 + cells));
        if (cells >= num_cells) {
          break;  // Every larger occupancy is the same full grid.
        }
      }
    }
  }
}

TEST(CompareAllPartitionsTest, FineGridProcessesSourcesInBlocks) {
  // A forced fine grid: 2^24 cells, thousands held. The prefix bitsets
  // scale with the held cells' distinct coordinates, never with ppd^d.
  const Grid grid = MakeGrid(2, 4096);
  const CellWindowMap blocked = RandomWindows(grid, 3000, 11);
  ASSERT_GT(blocked.size(), BlockWidth(grid, blocked));  // Several blocks.
  ExpectMatchesReference(grid, blocked);

  const Grid coarser = MakeGrid(2, 1024);
  const CellWindowMap single = RandomWindows(coarser, 1500, 12);
  ASSERT_LT(single.size(), BlockWidth(coarser, single));  // One block.
  ExpectMatchesReference(coarser, single);
}

TEST(CompareAllPartitionsTest, PooledMatchesReferenceOnReducerSizedWindows) {
  // Per-cell local skylines of anti-correlated d=5 tuples at ppd 2, the
  // shape a reducer holds: one level carries more tuples than the fan-out
  // floor, so its targets really run on several threads.
  const Dataset dataset = data::GenerateAntiCorrelated(20000, 5, 57);
  const Grid grid = MakeGrid(5, 2);
  CellWindowMap windows;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    auto [it, inserted] = windows.try_emplace(
        grid.CellOf(dataset.RowPtr(id)), SkylineWindow(5));
    it->second.Insert(dataset.RowPtr(id), id, nullptr);
  }
  std::map<uint32_t, uint64_t> level_tuples;
  std::vector<uint32_t> coords(5);
  for (const auto& [cell, window] : windows) {
    grid.CoordsOf(cell, coords.data());
    level_tuples[coords[0] + coords[1] + coords[2] + coords[3] + coords[4]] +=
        window.size();
  }
  uint64_t widest = 0;
  for (const auto& [level, tuples] : level_tuples) {
    widest = std::max(widest, tuples);
  }
  ASSERT_GE(widest, kParallelChunksMinWork);
  ExpectMatchesReference(grid, windows);
}

TEST(CompareAllPartitionsTest, EmptyWindowsCountButCostNoTests) {
  const Grid grid = MakeGrid(2, 3);
  CellWindowMap windows;
  windows.emplace(0, SkylineWindow(2));
  windows.emplace(1, OneTuple(0, {0.4, 0.1}));
  windows.emplace(4, OneTuple(1, {0.35, 0.5}));  // Cell (1,1).
  DominanceCounter counter;
  // Cell 1's ADR {0} and cell 4's ADR {0, 1} are all counted; only the
  // 1 -> 4 pair has tuples on both sides, and they are incomparable.
  EXPECT_EQ(CompareAllPartitions(grid, &windows, &counter), 3u);
  EXPECT_EQ(counter.count(), 1u);
  EXPECT_EQ(windows[4].size(), 1u);
}

}  // namespace
}  // namespace skymr::core
