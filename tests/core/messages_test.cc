#include "src/core/messages.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/data/generator.h"

namespace skymr::core {
namespace {

SkylineWindow MakeWindow(std::vector<std::pair<TupleId, std::vector<double>>>
                             tuples,
                         size_t dim) {
  SkylineWindow window(dim);
  for (const auto& [id, row] : tuples) {
    window.AppendUnchecked(row.data(), id);
  }
  return window;
}

TEST(MessagesSerdeTest, PartitionSkylineRoundTrip) {
  PartitionSkyline part;
  part.cell = 42;
  part.window = MakeWindow({{1, {0.1, 0.9}}, {2, {0.9, 0.1}}}, 2);
  const auto round =
      DeserializeFromBytes<PartitionSkyline>(SerializeToBytes(part));
  EXPECT_EQ(round, part);
}

TEST(MessagesSerdeTest, LocalSkylineSetRoundTrip) {
  LocalSkylineSet set;
  set.parts.push_back({7, MakeWindow({{3, {0.5, 0.5}}}, 2)});
  set.parts.push_back({9, SkylineWindow(2)});
  const auto round =
      DeserializeFromBytes<LocalSkylineSet>(SerializeToBytes(set));
  EXPECT_EQ(round, set);
}

TEST(MessagesSerdeTest, GroupPayloadRoundTrip) {
  GroupPayload payload;
  payload.reducer_group = 3;
  payload.responsible = {1, 5, 9};
  payload.parts.push_back({5, MakeWindow({{0, {0.2, 0.3, 0.4}}}, 3)});
  const auto round =
      DeserializeFromBytes<GroupPayload>(SerializeToBytes(payload));
  EXPECT_EQ(round.reducer_group, 3u);
  EXPECT_EQ(round.responsible, payload.responsible);
  EXPECT_EQ(round.parts, payload.parts);
}

TEST(MergePartsTest, MergesPerCellWithDominance) {
  CellWindowMap windows;
  DominanceCounter counter;
  // Mapper 1: cell 4 holds {0.5, 0.5}.
  MergeParts({{4, MakeWindow({{0, {0.5, 0.5}}}, 2)}}, 2, &windows,
             &counter);
  // Mapper 2: cell 4 holds {0.4, 0.4} (dominates) and cell 7 a tuple.
  MergeParts({{4, MakeWindow({{1, {0.4, 0.4}}}, 2)},
              {7, MakeWindow({{2, {0.1, 0.8}}}, 2)}},
             2, &windows, &counter);
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[4].size(), 1u);
  EXPECT_EQ(windows[4].IdAt(0), 1u);
  EXPECT_EQ(windows[7].size(), 1u);
  EXPECT_GT(counter.count(), 0u);
}

TEST(MergePartsTest, IncomparableTuplesAccumulate) {
  CellWindowMap windows;
  MergeParts({{0, MakeWindow({{0, {0.1, 0.9}}}, 2)}}, 2, &windows, nullptr);
  MergeParts({{0, MakeWindow({{1, {0.9, 0.1}}}, 2)}}, 2, &windows, nullptr);
  EXPECT_EQ(windows[0].size(), 2u);
}

/// What `mappers` GPSRS mappers would ship for `data` on a ppd grid:
/// one set per contiguous split, one part per held cell, ascending.
std::vector<std::vector<PartitionSkyline>> MapperSets(const Dataset& data,
                                                      uint32_t ppd,
                                                      size_t mappers) {
  const Grid grid = std::move(Grid::Create(data.dim(), ppd,
                                           Bounds::UnitCube(data.dim())))
                        .value();
  std::vector<std::vector<PartitionSkyline>> sets;
  for (size_t m = 0; m < mappers; ++m) {
    CellWindowMap windows;
    for (size_t i = data.size() * m / mappers;
         i < data.size() * (m + 1) / mappers; ++i) {
      const auto id = static_cast<TupleId>(i);
      auto [it, inserted] = windows.try_emplace(grid.CellOf(data.RowPtr(id)),
                                                SkylineWindow(data.dim()));
      it->second.Insert(data.RowPtr(id), id, nullptr);
    }
    std::vector<PartitionSkyline>& parts = sets.emplace_back();
    for (auto& [cell, window] : windows) {
      parts.push_back({cell, std::move(window)});
    }
  }
  return sets;
}

void ExpectPooledMergeMatchesSerial(
    const std::vector<std::vector<PartitionSkyline>>& sets, size_t dim) {
  CellWindowMap expected;
  DominanceCounter expected_tests;
  for (const auto& parts : sets) {
    MergeParts(parts, dim, &expected, &expected_tests);
  }
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    CellWindowMap actual;
    DominanceCounter actual_tests;
    for (const auto& parts : sets) {
      MergeParts(parts, dim, &actual, &actual_tests, &pool);
    }
    EXPECT_EQ(actual_tests.count(), expected_tests.count())
        << threads << " threads";
    ASSERT_EQ(actual.size(), expected.size()) << threads << " threads";
    for (auto a = actual.begin(), e = expected.begin(); a != actual.end();
         ++a, ++e) {
      ASSERT_EQ(a->first, e->first);
      EXPECT_TRUE(a->second == e->second)
          << "cell " << a->first << ", " << threads << " threads";
    }
  }
}

TEST(MergePartsTest, PooledMatchesSerialAcrossGrids) {
  for (const size_t dim : {2u, 3u, 4u, 6u}) {
    for (const uint32_t ppd : {2u, 3u, 5u, 64u}) {
      if (ppd == 64 && dim > 2) {
        continue;
      }
      for (const size_t mappers : {1u, 3u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "d=" << dim << " ppd=" << ppd
                                          << " mappers=" << mappers);
        // Anti-correlated sets are large enough to fan out; independent
        // ones mostly stay under the floor.
        ExpectPooledMergeMatchesSerial(
            MapperSets(data::GenerateAntiCorrelated(6000, dim, 7 * dim + ppd),
                       ppd, mappers),
            dim);
        ExpectPooledMergeMatchesSerial(
            MapperSets(data::GenerateIndependent(2000, dim, 5 * dim + ppd),
                       ppd, mappers),
            dim);
      }
    }
  }
}

TEST(MergePartsTest, PartsOutOfCellOrderMergeSerially) {
  // Descending or repeated cells are not the one-part-per-cell shape the
  // parallel merge relies on; the pooled call must still match.
  auto sets = MapperSets(data::GenerateAntiCorrelated(6000, 3, 19), 3, 2);
  std::reverse(sets[0].begin(), sets[0].end());
  sets[1].push_back(sets[1].front());
  ExpectPooledMergeMatchesSerial(sets, 3);
}

TEST(UnionWindowsTest, ConcatenatesInCellOrder) {
  CellWindowMap windows;
  windows.emplace(9, MakeWindow({{5, {0.9, 0.1}}}, 2));
  windows.emplace(2, MakeWindow({{3, {0.1, 0.9}}}, 2));
  const SkylineWindow out = UnionWindows(windows, 2);
  ASSERT_EQ(out.size(), 2u);
  // std::map iterates ascending: cell 2 first.
  EXPECT_EQ(out.IdAt(0), 3u);
  EXPECT_EQ(out.IdAt(1), 5u);
}

TEST(UnionWindowsTest, EmptyMap) {
  EXPECT_TRUE(UnionWindows({}, 3).empty());
}

}  // namespace
}  // namespace skymr::core
