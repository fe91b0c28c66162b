#include "src/core/gpmrs.h"

#include <numeric>
#include <unordered_set>

#include "src/obs/trace.h"

namespace skymr::core {
namespace {

/// Algorithm 8: Map of MR-GPMRS.
class GpmrsMapper : public mr::Mapper<TupleId, uint32_t, GroupPayload> {
 public:
  void Setup(mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    phase_.Setup(ctx.cache());
  }

  void Map(const TupleId& id,
           mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    (void)ctx;
    phase_.Add(id);
  }

  void Cleanup(mr::MapContext<uint32_t, GroupPayload>& ctx) override {
    const SkylineJobContext& context = phase_.context();
    CellWindowMap windows =
        phase_.Finish(&ctx.counters(), &ctx.histograms());

    // Line 11: the independent groups depend on the bitstring only, so
    // RunGpmrsJob generates and merges them once and broadcasts them; every
    // mapper then ships against exactly the same grouping (the consistency
    // requirement Section 5.3 states).
    const std::vector<ReducerGroup>& reducer_groups = context.reducer_groups;
    SKYMR_TRACE_SPAN("gpmrs.group_assign", "reducers",
                     static_cast<int64_t>(reducer_groups.size()));

    // Lines 12-19: ship each group's local skylines to its reducer.
    for (uint32_t i = 0; i < reducer_groups.size(); ++i) {
      const ReducerGroup& group = reducer_groups[i];
      GroupPayload payload;
      payload.reducer_group = i;
      payload.responsible = group.responsible;
      for (const CellId cell : group.cells) {
        const auto it = windows.find(cell);
        if (it != windows.end()) {
          payload.parts.push_back(PartitionSkyline{cell, it->second});
        }
      }
      ctx.Emit(i, payload);
    }
  }

 private:
  LocalSkylinePhase phase_;
};

/// Algorithm 9: Reduce of MR-GPMRS. Each key is one (merged) independent
/// group; the reducer finalizes that group's share of the global skyline.
class GpmrsReducer
    : public mr::Reducer<uint32_t, GroupPayload, SkylineWindow> {
 public:
  void Setup(mr::ReduceContext<SkylineWindow>& ctx) override {
    context_ = ctx.cache().Get<SkylineJobContext>(kCacheKeySkylineContext);
    if (context_ == nullptr) {
      throw mr::TaskFailure("GPMRS reducer: job context missing");
    }
  }

  void Reduce(const uint32_t& key, mr::ValueIterator<GroupPayload>& values,
              mr::ReduceContext<SkylineWindow>& ctx) override {
    (void)key;
    if (!values.HasNext()) {
      return;
    }
    SKYMR_TRACE_SPAN("gpmrs.merge", "group", static_cast<int64_t>(key),
                     "values", static_cast<int64_t>(values.remaining()));
    const size_t dim = context_->grid.dim();
    DominanceCounter dominance_counter;
    // Lines 2-8: merge per-partition skylines across mappers, one payload
    // at a time. Every mapper ships the same responsibility list for a
    // group, so remembering the first payload's copy is enough.
    const GroupPayload first = values.Next();
    std::vector<CellId> responsible_cells = first.responsible;
    CellWindowMap windows;
    MergeParts(first.parts, dim, &windows, &dominance_counter, ctx.pool());
    while (values.HasNext()) {
      const GroupPayload payload = values.Next();
      MergeParts(payload.parts, dim, &windows, &dominance_counter,
                 ctx.pool());
    }
    // Lines 9-10: false-positive elimination within the group. The group
    // is independent (Definition 5), so every partition's full
    // anti-dominating region is present.
    const uint64_t partition_comparisons = CompareAllPartitions(
        context_->grid, &windows, &dominance_counter, ctx.pool());
    ctx.counters().Add(mr::kCounterPartitionComparisons,
                       static_cast<int64_t>(partition_comparisons));
    ctx.counters().Add(mr::kCounterTupleComparisons,
                       static_cast<int64_t>(dominance_counter.count()));

    // Line 11 + Section 5.4.2: output only the partitions this group is
    // responsible for, eliminating duplicates across replicated cells.
    const std::unordered_set<CellId> responsible(responsible_cells.begin(),
                                                 responsible_cells.end());
    SkylineWindow out(dim);
    for (const auto& [cell, window] : windows) {
      if (responsible.count(cell) == 0) {
        continue;
      }
      for (size_t i = 0; i < window.size(); ++i) {
        out.AppendUnchecked(window.RowAt(i), window.IdAt(i));
      }
    }
    ctx.Emit(std::move(out));
  }

 private:
  std::shared_ptr<const SkylineJobContext> context_;
};

}  // namespace

StatusOr<SkylineJobRun> RunGpmrsJob(
    std::shared_ptr<const Dataset> data, const Grid& grid,
    const DynamicBitset& bits, GroupMergeStrategy merge,
    const mr::EngineOptions& engine, ThreadPool* pool,
    const std::optional<Box>& constraint, LocalAlgorithm local_algorithm) {
  if (data == nullptr) {
    return Status::InvalidArgument("GPMRS: dataset is null");
  }
  if (bits.size() != grid.num_cells()) {
    return Status::InvalidArgument("GPMRS: bitstring/grid size mismatch");
  }
  if (constraint.has_value()) {
    SKYMR_RETURN_IF_ERROR(constraint->Validate(data->dim()));
  }

  mr::DistributedCache cache;
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeyDataset, data));
  auto context = std::make_shared<SkylineJobContext>(grid, bits);
  {
    // Algorithm 7 + Section 5.4, once for the whole job.
    SKYMR_TRACE_SPAN("gpmrs.group_generate", "reducers",
                     engine.num_reducers);
    context->reducer_groups = AssignGroupsToReducers(
        grid, GenerateIndependentGroups(grid, bits), engine.num_reducers,
        merge);
  }
  context->constraint = constraint;
  context->local_algorithm = local_algorithm;
  const std::shared_ptr<const SkylineJobContext> shared_context =
      std::move(context);
  SKYMR_RETURN_IF_ERROR(cache.Put(kCacheKeySkylineContext, shared_context));

  std::vector<TupleId> ids(data->size());
  std::iota(ids.begin(), ids.end(), 0);

  mr::Job<TupleId, uint32_t, GroupPayload, SkylineWindow> job(
      "mr-gpmrs", [] { return std::make_unique<GpmrsMapper>(); },
      [] { return std::make_unique<GpmrsReducer>(); });
  // Reducer-group i is pinned to reducer i (group count never exceeds the
  // reducer count after merging).
  job.UseModuloPartitioner();

  auto result = job.Run(ids, engine, cache, pool);
  if (!result.ok()) {
    return result.status;
  }

  SkylineJobRun run;
  run.metrics = std::move(result.metrics);
  // Per-reducer group load (Section 5.4.1's balancing target), from the
  // same groups every mapper shipped against.
  for (const ReducerGroup& group : shared_context->reducer_groups) {
    run.metrics.histograms.Add("skymr.reducer_group_cells",
                               group.cells.size());
    run.metrics.histograms.Add("skymr.reducer_group_cost", group.cost);
  }
  run.skyline = SkylineWindow(data->dim());
  for (const SkylineWindow& window : result.outputs) {
    for (size_t i = 0; i < window.size(); ++i) {
      run.skyline.AppendUnchecked(window.RowAt(i), window.IdAt(i));
    }
  }
  DebugVerifySkyline("MR-GPMRS", *data, run.skyline, constraint);
  return run;
}

}  // namespace skymr::core
