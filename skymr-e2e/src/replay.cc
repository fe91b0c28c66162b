#include "replay.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "src/common/serde.h"
#include "src/core/compare_partitions.h"
#include "src/core/grid.h"
#include "src/core/messages.h"
#include "src/local/bnl.h"

namespace e2e {
namespace {

using skymr::ByteSink;
using skymr::ByteSource;
using skymr::Dataset;
using skymr::DominanceCounter;
using skymr::DynamicBitset;
using skymr::Serde;
using skymr::SkylineWindow;
using skymr::TupleId;
using skymr::core::CellId;
using skymr::core::CellWindowMap;
using skymr::core::Grid;
using Scope = SpanRecorder::Scope;

/// The engine's split rule: contiguous splits, the first n % m of them
/// one record larger.
std::pair<TupleId, TupleId> SplitOf(size_t n, int task, int m) {
  const size_t base = n / static_cast<size_t>(m);
  const size_t extra = n % static_cast<size_t>(m);
  const auto t = static_cast<size_t>(task);
  const size_t begin = t * base + std::min(t, extra);
  const size_t size = base + (t < extra ? 1 : 0);
  return {static_cast<TupleId>(begin), static_cast<TupleId>(begin + size)};
}

uint64_t TotalSize(const CellWindowMap& windows) {
  uint64_t total = 0;
  for (const auto& [cell, window] : windows) {
    total += window.size();
  }
  return total;
}

/// Shuffle arenas: arenas[mapper][reducer], key and value serialized back
/// to back as the engine's MapContext::Emit does.
using Arenas = std::vector<std::vector<ByteSink>>;

uint64_t BucketBytes(const Arenas& arenas, size_t bucket) {
  uint64_t bytes = 0;
  for (const auto& mapper : arenas) {
    bytes += mapper[bucket].size();
  }
  return bytes;
}

/// Bitstring generation job (Algorithms 1-2 + PPD selection).
std::optional<Grid> ReplayBitstring(const Dataset& data,
                                    const ReplayConfig& config,
                                    const std::optional<skymr::Box>& box,
                                    SpanRecorder* rec, ReplayCounts* counts,
                                    DynamicBitset* bits) {
  Scope job(rec, "job.bitstring");
  const size_t n = data.size();
  const size_t d = data.dim();
  std::vector<uint32_t> candidates;
  {
    Scope s(rec, "core.ppd.candidates");
    candidates = skymr::core::CandidatePpds(n, d, config.ppd);
  }
  counts->candidates = candidates.size();
  if (candidates.empty()) {
    return std::nullopt;
  }
  std::vector<Grid> grids;
  {
    Scope s(rec, "core.ppd.grids");
    for (const uint32_t ppd : candidates) {
      auto grid_or =
          Grid::Create(d, ppd, config.bounds, config.ppd.max_cells);
      if (!grid_or.ok()) {
        return std::nullopt;
      }
      grids.push_back(std::move(grid_or).value());
    }
  }

  Arenas arenas(static_cast<size_t>(config.mappers),
                std::vector<ByteSink>(1));
  for (int t = 0; t < config.mappers; ++t) {
    Scope task(rec, "map.task");
    const auto [begin, end] = SplitOf(n, t, config.mappers);
    std::vector<DynamicBitset> locals;
    {
      Scope s(rec, "core.ppd.build");
      if (!box.has_value()) {
        for (const Grid& grid : grids) {
          locals.push_back(
              skymr::core::BuildLocalBitstring(grid, data, begin, end));
        }
      } else {
        std::vector<TupleId> in_box;
        for (TupleId id = begin; id < end; ++id) {
          if (box->Contains(data.RowPtr(id), d)) {
            in_box.push_back(id);
          }
        }
        for (const Grid& grid : grids) {
          DynamicBitset local(grid.num_cells());
          for (const TupleId id : in_box) {
            local.Set(grid.CellOf(data.RowPtr(id)));
          }
          locals.push_back(std::move(local));
        }
      }
    }
    {
      Scope s(rec, "mapreduce.serialize");
      ByteSink& arena = arenas[static_cast<size_t>(t)][0];
      for (size_t i = 0; i < candidates.size(); ++i) {
        Serde<uint32_t>::Write(candidates[i], &arena);
        Serde<DynamicBitset>::Write(locals[i], &arena);
      }
    }
  }
  counts->bitstring_shuffle_bytes = BucketBytes(arenas, 0);

  Scope reduce(rec, "reduce.task");
  std::map<uint32_t, std::vector<DynamicBitset>> by_key;
  {
    Scope s(rec, "mapreduce.deserialize");
    for (const auto& mapper : arenas) {
      ByteSource source(mapper[0].buffer());
      while (!source.AtEnd()) {
        const auto key = Serde<uint32_t>::Read(&source);
        by_key[key].push_back(Serde<DynamicBitset>::Read(&source));
      }
    }
  }
  std::vector<skymr::core::PpdOccupancy> occupancies;
  std::map<uint32_t, DynamicBitset> merged;
  {
    Scope s(rec, "core.ppd.merge");
    for (auto& [ppd, values] : by_key) {
      DynamicBitset acc = std::move(values.front());
      for (size_t i = 1; i < values.size(); ++i) {
        acc |= values[i];
      }
      occupancies.emplace_back(ppd, acc.Count());
      merged.emplace(ppd, std::move(acc));
    }
  }
  {
    Scope s(rec, "core.ppd.select");
    counts->ppd = skymr::core::SelectPpd(config.ppd, n, d, occupancies);
  }
  *bits = std::move(merged.at(counts->ppd));
  counts->nonempty_cells = bits->Count();
  Scope s(rec, "core.bitstring.prune");
  auto grid_or =
      Grid::Create(d, counts->ppd, config.bounds, config.ppd.max_cells);
  if (!grid_or.ok()) {
    return std::nullopt;
  }
  counts->cells = grid_or->num_cells();
  counts->pruned_cells =
      skymr::core::PruneDominated(grid_or.value(), bits, config.prune_mode);
  return std::move(grid_or).value();
}

/// Map side shared by the three skyline jobs: route each tuple of the
/// split to its cell (dropping tuples outside the box and, when `bits` is
/// set, tuples of pruned cells), then run BNL per cell.
CellWindowMap LocalPhase(const Dataset& data, const Grid& grid,
                         const DynamicBitset* bits,
                         const std::optional<skymr::Box>& box,
                         TupleId begin, TupleId end, SpanRecorder* rec,
                         ReplayCounts* counts) {
  std::map<CellId, std::vector<TupleId>> routed;
  {
    Scope s(rec, "local.route");
    for (TupleId id = begin; id < end; ++id) {
      const double* row = data.RowPtr(id);
      if (box.has_value() && !box->Contains(row, data.dim())) {
        continue;
      }
      ++counts->tuples_in_box;
      const CellId cell = grid.CellOf(row);
      if (bits != nullptr && !bits->Test(cell)) {
        continue;
      }
      ++counts->tuples_routed;
      routed[cell].push_back(id);
    }
  }
  CellWindowMap windows;
  DominanceCounter counter;
  {
    Scope s(rec, "local.kernel");
    for (auto& [cell, ids] : routed) {
      windows.emplace(cell, skymr::BnlSkyline({data, std::move(ids)},
                                              &counter));
    }
  }
  counts->local_partitions += windows.size();
  counts->local_comparisons += counter.count();
  counts->local_survivors += TotalSize(windows);
  return windows;
}

/// ComparePartitions over `windows`, accruing pairs, tuple tests and
/// eliminated tuples.
void ComparePartitions(const Grid& grid, CellWindowMap* windows,
                       const char* span, SpanRecorder* rec,
                       ReplayCounts* counts) {
  const uint64_t before = TotalSize(*windows);
  DominanceCounter counter;
  {
    Scope s(rec, span);
    counts->cp_pairs +=
        skymr::core::CompareAllPartitions(grid, windows, &counter);
  }
  counts->cp_comparisons += counter.count();
  counts->cp_removed += before - TotalSize(*windows);
}

void AppendIds(const SkylineWindow& window, std::vector<TupleId>* ids) {
  ids->insert(ids->end(), window.ids().begin(), window.ids().end());
}

/// Single-reducer skyline jobs (MR-GPSRS, MR-BNL): every mapper ships
/// one LocalSkylineSet under key 0.
void SingleReducerJob(const Dataset& data, const ReplayConfig& config,
                      const Grid& grid, const DynamicBitset* bits,
                      const std::optional<skymr::Box>& box,
                      const char* merge_span, SpanRecorder* rec,
                      ReplayCounts* counts) {
  Scope job(rec, "job.skyline");
  const size_t d = data.dim();
  Arenas arenas(static_cast<size_t>(config.mappers),
                std::vector<ByteSink>(1));
  for (int t = 0; t < config.mappers; ++t) {
    Scope task(rec, "map.task");
    const auto [begin, end] = SplitOf(data.size(), t, config.mappers);
    CellWindowMap windows =
        LocalPhase(data, grid, bits, box, begin, end, rec, counts);
    if (bits != nullptr) {  // MR-BNL has no map-side ComparePartitions.
      ComparePartitions(grid, &windows, "core.compare_partitions.map", rec,
                        counts);
      for (const auto& [cell, window] : windows) {
        counts->window_sizes.push_back(window.size());
      }
    }
    Scope s(rec, "mapreduce.serialize");
    skymr::core::LocalSkylineSet set;
    set.parts.reserve(windows.size());
    for (auto& [cell, window] : windows) {
      set.parts.push_back({cell, std::move(window)});
    }
    ByteSink& arena = arenas[static_cast<size_t>(t)][0];
    Serde<uint32_t>::Write(0, &arena);
    Serde<skymr::core::LocalSkylineSet>::Write(set, &arena);
  }
  counts->skyline_shuffle_bytes = BucketBytes(arenas, 0);
  counts->reducer_input_bytes = {counts->skyline_shuffle_bytes};

  Scope reduce(rec, "reduce.task");
  CellWindowMap windows;
  DominanceCounter merge_counter;
  for (const auto& mapper : arenas) {
    skymr::core::LocalSkylineSet set;
    {
      Scope s(rec, "mapreduce.deserialize");
      ByteSource source(mapper[0].buffer());
      Serde<uint32_t>::Read(&source);
      set = Serde<skymr::core::LocalSkylineSet>::Read(&source);
    }
    Scope s(rec, merge_span);
    skymr::core::MergeParts(set.parts, d, &windows, &merge_counter);
  }
  counts->merge_comparisons += merge_counter.count();
  ComparePartitions(grid, &windows, "core.compare_partitions.reduce", rec,
                    counts);
  Scope s(rec, merge_span);
  AppendIds(skymr::core::UnionWindows(windows, d), &counts->skyline_ids);
  counts->reducer_seconds = {reduce.Elapsed()};
}

/// MR-GPMRS: independent groups, one payload per reducer group.
void GpmrsJob(const Dataset& data, const ReplayConfig& config,
              const Grid& grid, const DynamicBitset& bits,
              const std::optional<skymr::Box>& box, SpanRecorder* rec,
              ReplayCounts* counts) {
  Scope job(rec, "job.skyline");
  const size_t d = data.dim();
  const auto r = static_cast<size_t>(config.reducers);
  Arenas arenas(static_cast<size_t>(config.mappers),
                std::vector<ByteSink>(r));
  for (int t = 0; t < config.mappers; ++t) {
    Scope task(rec, "map.task");
    const auto [begin, end] = SplitOf(data.size(), t, config.mappers);
    CellWindowMap windows =
        LocalPhase(data, grid, &bits, box, begin, end, rec, counts);
    ComparePartitions(grid, &windows, "core.compare_partitions.map", rec,
                      counts);
    for (const auto& [cell, window] : windows) {
      counts->window_sizes.push_back(window.size());
    }
    std::vector<skymr::core::ReducerGroup> groups;
    {
      Scope s(rec, "core.merge.gpmrs_group");
      groups = skymr::core::AssignGroupsToReducers(
          grid, skymr::core::GenerateIndependentGroups(grid, bits),
          config.reducers, config.merge);
    }
    Scope s(rec, "mapreduce.serialize");
    for (uint32_t i = 0; i < groups.size(); ++i) {
      skymr::core::GroupPayload payload;
      payload.reducer_group = i;
      payload.responsible = groups[i].responsible;
      for (const CellId cell : groups[i].cells) {
        const auto it = windows.find(cell);
        if (it != windows.end()) {
          payload.parts.push_back({cell, it->second});
        }
      }
      ByteSink& arena = arenas[static_cast<size_t>(t)][i % r];
      Serde<uint32_t>::Write(i, &arena);
      Serde<skymr::core::GroupPayload>::Write(payload, &arena);
    }
  }
  for (size_t b = 0; b < r; ++b) {
    counts->reducer_input_bytes.push_back(BucketBytes(arenas, b));
    counts->skyline_shuffle_bytes += counts->reducer_input_bytes.back();
  }

  for (size_t b = 0; b < r; ++b) {
    Scope reduce(rec, "reduce.task");
    std::vector<std::pair<uint32_t, skymr::core::GroupPayload>> values;
    {
      Scope s(rec, "mapreduce.deserialize");
      for (const auto& mapper : arenas) {
        ByteSource source(mapper[b].buffer());
        while (!source.AtEnd()) {
          const auto key = Serde<uint32_t>::Read(&source);
          values.emplace_back(
              key, Serde<skymr::core::GroupPayload>::Read(&source));
        }
      }
      // Key groups in key order, values in mapper order (stable).
      std::stable_sort(values.begin(), values.end(),
                       [](const auto& a, const auto& b2) {
                         return a.first < b2.first;
                       });
    }
    for (size_t lo = 0; lo < values.size();) {
      size_t hi = lo;
      while (hi < values.size() && values[hi].first == values[lo].first) {
        ++hi;
      }
      CellWindowMap windows;
      DominanceCounter merge_counter;
      {
        Scope s(rec, "core.merge.gpmrs");
        for (size_t i = lo; i < hi; ++i) {
          skymr::core::MergeParts(values[i].second.parts, d, &windows,
                                  &merge_counter);
        }
      }
      counts->merge_comparisons += merge_counter.count();
      ComparePartitions(grid, &windows, "core.compare_partitions.reduce",
                        rec, counts);
      Scope s(rec, "core.merge.gpmrs");
      const std::unordered_set<CellId> responsible(
          values[lo].second.responsible.begin(),
          values[lo].second.responsible.end());
      for (const auto& [cell, window] : windows) {
        if (responsible.count(cell) != 0) {
          AppendIds(window, &counts->skyline_ids);
        }
      }
      lo = hi;
    }
    counts->reducer_seconds.push_back(reduce.Elapsed());
  }
}

}  // namespace

bool ReplayQuery(const Dataset& data, const ReplayConfig& config,
                 skymr::Algorithm algorithm,
                 const std::optional<skymr::Box>& constraint,
                 SpanRecorder* rec, ReplayCounts* counts) {
  *counts = ReplayCounts{};
  Scope query(rec, "query");
  if (algorithm == skymr::Algorithm::kMrBnl) {
    auto grid_or = Grid::Create(data.dim(), 2, config.bounds);
    if (!grid_or.ok()) {
      return false;
    }
    SingleReducerJob(data, config, grid_or.value(), nullptr, constraint,
                     "core.merge.mr_bnl", rec, counts);
    return true;
  }
  if (algorithm != skymr::Algorithm::kMrGpsrs &&
      algorithm != skymr::Algorithm::kMrGpmrs) {
    return false;
  }
  DynamicBitset bits;
  const std::optional<Grid> grid =
      ReplayBitstring(data, config, constraint, rec, counts, &bits);
  if (!grid.has_value()) {
    return false;
  }
  if (algorithm == skymr::Algorithm::kMrGpsrs) {
    SingleReducerJob(data, config, *grid, &bits, constraint,
                     "core.merge.gpsrs", rec, counts);
  } else {
    GpmrsJob(data, config, *grid, bits, constraint, rec, counts);
  }
  return true;
}

}  // namespace e2e
