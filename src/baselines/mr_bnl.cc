#include "src/baselines/mr_bnl.h"

#include <numeric>

namespace skymr::baselines {
namespace {

using core::CellId;
using core::CellWindowMap;
using core::Grid;
using core::kCacheKeyDataset;
using core::LocalSkylineSet;
using core::PartitionSkyline;

inline constexpr const char* kCacheKeyMrBnlGrid = "skymr.mrbnl_grid";
inline constexpr const char* kCacheKeyMrBnlConstraint =
    "skymr.mrbnl_constraint";

/// Map: a BNL local skyline per 2^d block over the split.
class MrBnlMapper : public mr::Mapper<TupleId, uint32_t, LocalSkylineSet> {
 public:
  void Setup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    data_ = ctx.cache().Get<Dataset>(kCacheKeyDataset);
    grid_ = ctx.cache().Get<Grid>(kCacheKeyMrBnlGrid);
    constraint_ = ctx.cache().Get<Box>(kCacheKeyMrBnlConstraint);
    if (data_ == nullptr || grid_ == nullptr) {
      throw mr::TaskFailure("MR-BNL mapper: cache entries missing");
    }
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    (void)ctx;
    const double* row = data_->RowPtr(id);
    if (constraint_ != nullptr && !constraint_->Contains(row, data_->dim())) {
      return;
    }
    const CellId block = grid_->CellOf(row);
    auto [it, inserted] =
        windows_.try_emplace(block, SkylineWindow(data_->dim()));
    it->second.Insert(row, id, &dominance_counter_);
  }

  void Cleanup(mr::MapContext<uint32_t, LocalSkylineSet>& ctx) override {
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter_.count()));
    LocalSkylineSet set;
    set.parts.reserve(windows_.size());
    for (auto& [block, window] : windows_) {
      set.parts.push_back(PartitionSkyline{block, std::move(window)});
    }
    ctx.Emit(0, set);
  }

 private:
  std::shared_ptr<const Dataset> data_;
  std::shared_ptr<const Grid> grid_;
  std::shared_ptr<const Box> constraint_;
  CellWindowMap windows_;
  DominanceCounter dominance_counter_;
};

/// Reduce (single): merge block skylines; filter across comparable blocks.
class MrBnlReducer
    : public mr::Reducer<uint32_t, LocalSkylineSet, SkylineWindow> {
 public:
  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    grid_ = ctx.cache().Get<Grid>(kCacheKeyMrBnlGrid);
    if (grid_ == nullptr) {
      throw mr::TaskFailure("MR-BNL reducer: grid missing");
    }
  }

  void Reduce(const uint32_t& key,
              mr::ValueIterator<LocalSkylineSet>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    (void)key;
    DominanceCounter dominance_counter;
    CellWindowMap windows;
    while (values.HasNext()) {
      const LocalSkylineSet set = values.Next();
      core::MergeParts(set.parts, grid_->dim(), &windows,
                       &dominance_counter, ctx.pool());
    }
    // Cross-block filtering: block a may dominate into block b only when
    // a's half-code is componentwise <= b's — the PPD-2 ADR relation.
    const uint64_t partition_comparisons = core::CompareAllPartitions(
        *grid_, &windows, &dominance_counter, ctx.pool());
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(partition_comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));
    ctx.Emit(core::UnionWindows(windows, grid_->dim()));
  }

 private:
  std::shared_ptr<const Grid> grid_;
};

}  // namespace

StatusOr<core::SkylineJobRun> RunMrBnlJob(
    std::shared_ptr<const Dataset> data, const Bounds& bounds,
    const mr::EngineOptions& engine, ThreadPool* pool,
    const std::optional<Box>& constraint) {
  if (data == nullptr) {
    return Status::InvalidArgument("MR-BNL: dataset is null");
  }
  auto grid_or = Grid::Create(data->dim(), 2, bounds);
  if (!grid_or.ok()) {
    return grid_or.status();
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  SKYMR_RETURN_IF_ERROR(cache.Put(
      kCacheKeyMrBnlGrid, std::shared_ptr<const Grid>(
                              std::make_shared<Grid>(grid_or.value()))));
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(cache.PutValue(kCacheKeyMrBnlConstraint,
                                         *constraint));
  }

  std::vector<TupleId> ids(data->size());
  std::iota(ids.begin(), ids.end(), 0);

  mr::Job<TupleId, uint32_t, LocalSkylineSet, SkylineWindow> job(
      "mr-bnl", [] { return std::make_unique<MrBnlMapper>(); },
      [] { return std::make_unique<MrBnlReducer>(); });

  mr::EngineOptions options = engine;
  options.num_reducers = 1;
  auto result = job.Run(ids, options, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  core::SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  if (result.outputs.empty()) {
    run.skyline = SkylineWindow(data->dim());
  } else {
    run.skyline = std::move(result.outputs[0]);
  }
  return run;
}

}  // namespace skymr::baselines
