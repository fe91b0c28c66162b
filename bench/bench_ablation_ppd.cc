// Ablation B: sensitivity to the grid resolution (PPD), validating the
// Section 3.3 trade-off — too few tuples per partition makes partition
// checks overhead, too many makes the grid too coarse to prune.
//
// Runs MR-GPMRS with explicit PPD values and reports the modeled runtime,
// comparison counts, and shuffle traffic per resolution, plus one row for
// each selection rule: the paper's (`heuristic:paper-literal`) and the
// cost rule (`heuristic:cost`, the library default). The 4-d shapes are
// the original sweep; the others (8-d, 3-d, correlated) check the cost
// rule on shapes beyond the two the skymr-e2e benchmark gates.
//
// Every row reports `skyline_phase_min_s`: the fastest repetition's wall
// time after the bitstring phase. It leaves out the candidate sweep, which
// a heuristic row pays and an explicit row does not, so it compares the
// grids themselves.

#include "bench/bench_common.h"

namespace {

constexpr size_t kPaperCard = 1000000;

struct Shape {
  const char* label;  // Row-name segment.
  skymr::data::Distribution distribution;
  size_t dim;
  double scale;  // Of kPaperCard, before SKYMR_SCALE.
  std::vector<uint32_t> ppds;
};

const std::vector<Shape>& Shapes() {
  using skymr::data::Distribution;
  static const std::vector<Shape> shapes = {
      {"independent", Distribution::kIndependent, 4, 0.02,
       {2, 3, 4, 6, 8, 12}},
      {"anti-correlated", Distribution::kAntiCorrelated, 4, 0.02,
       {2, 3, 4, 6, 8, 12}},
      {"anti-correlated-d8", Distribution::kAntiCorrelated, 8, 0.2,
       {2, 3, 4}},
      {"independent-d8", Distribution::kIndependent, 8, 0.2, {2, 3, 4}},
      {"anti-correlated-d3", Distribution::kAntiCorrelated, 3, 0.3,
       {2, 3, 4, 6, 8, 12, 16, 24}},
      {"correlated-d4", Distribution::kCorrelated, 4, 0.2,
       {2, 3, 4, 6, 8, 12}},
  };
  return shapes;
}

void Annotate(const skymr::SkylineResult& result,
              std::map<std::string, double>* metrics) {
  int64_t partition_cmps = 0;
  int64_t tuple_cmps = 0;
  for (const auto& job : result.jobs) {
    partition_cmps +=
        job.counters.Get(skymr::mr::kCounterPartitionComparisons);
    tuple_cmps += job.counters.Get(skymr::mr::kCounterTupleComparisons);
  }
  (*metrics)["partition_cmps"] = static_cast<double>(partition_cmps);
  (*metrics)["tuple_cmps"] = static_cast<double>(tuple_cmps);
  (*metrics)["nonempty"] = static_cast<double>(result.nonempty_partitions);
  // Grid algorithms run the bitstring job first.
  const double skyline_phase =
      result.wall_seconds - result.jobs.front().wall_seconds;
  const auto [it, fresh] =
      metrics->try_emplace("skyline_phase_min_s", skyline_phase);
  if (!fresh) {
    it->second = std::min(it->second, skyline_phase);
  }
}

/// range(0): shape index; range(1): explicit PPD, or -1 - PpdStrategy
/// for a heuristic row.
void PpdRow(benchmark::State& state) {
  const Shape& shape = Shapes()[static_cast<size_t>(state.range(0))];
  const size_t card =
      skymr::bench::ScaledCardinality(kPaperCard, shape.scale);
  const skymr::Dataset& data =
      skymr::bench::CachedDataset(shape.distribution, card, shape.dim);
  skymr::SessionOptions options = skymr::bench::PaperOptions();
  if (state.range(1) >= 0) {
    options.ppd.explicit_ppd = static_cast<uint32_t>(state.range(1));
  } else {
    options.ppd.strategy =
        static_cast<skymr::core::PpdStrategy>(-1 - state.range(1));
  }
  skymr::bench::RunAndReport(
      state, data, options,
      skymr::bench::PaperQuery(skymr::Algorithm::kMrGpmrs), Annotate);
}

void RegisterAll() {
  for (size_t s = 0; s < Shapes().size(); ++s) {
    const Shape& shape = Shapes()[s];
    const std::string prefix = std::string("AblationPpd/") + shape.label;
    for (const uint32_t ppd : shape.ppds) {
      skymr::bench::RegisterRow(prefix + "/ppd:" + std::to_string(ppd),
                                PpdRow)
          ->Args({static_cast<long>(s), static_cast<long>(ppd)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    for (const auto strategy : {skymr::core::PpdStrategy::kPaperLiteral,
                                skymr::core::PpdStrategy::kCost}) {
      skymr::bench::RegisterRow(
          prefix + "/heuristic:" + skymr::core::PpdStrategyName(strategy),
          PpdRow)
          ->Args({static_cast<long>(s), -1 - static_cast<long>(strategy)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return skymr::bench::BenchMain(argc, argv, "bench_ablation_ppd");
}
