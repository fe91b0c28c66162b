// Reducers that fan their merge and ComparePartitions out over the job's
// pool (DESIGN.md §19) must give the same answer as one thread: the same
// skyline rows in the same order and every deterministic counter equal,
// with and without injected crashes.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/centralized.h"
#include "src/data/generator.h"
#include "src/mapreduce/chaos.h"
#include "src/serve/session.h"

namespace skymr {
namespace {

const Dataset& AntiCorrelated6d() {
  static const Dataset data = [] {
    data::GeneratorConfig gen;
    gen.distribution = data::Distribution::kAntiCorrelated;
    gen.cardinality = 20000;
    gen.dim = 6;
    gen.seed = 2014;
    return std::move(data::Generate(gen)).value();
  }();
  return data;
}

/// The single-node SFS skyline of the dataset, sorted.
const std::vector<TupleId>& ReferenceIds() {
  static const std::vector<TupleId> ids = [] {
    std::vector<TupleId> out =
        baselines::RunCentralized(AntiCorrelated6d(),
                                  baselines::CentralizedAlgorithm::kSfs)
            .skyline.ids();
    std::sort(out.begin(), out.end());
    return out;
  }();
  return ids;
}

struct Outcome {
  std::vector<TupleId> rows;  // In output order, not sorted.
  std::vector<std::map<std::string, int64_t>> counters;  // Per job.
};

Outcome RunQuery(Algorithm algorithm, ThreadPool* pool, bool chaos) {
  SessionOptions options;
  options.engine.num_map_tasks = 8;
  options.engine.num_reducers = 4;
  options.engine.retry_backoff_base_ms = 0.0;
  options.pool = pool;
  options.cache = false;
  if (chaos) {
    options.engine.chaos = mr::ChaosProfile("crash20").value();
    options.engine.chaos.seed = 99;
    options.engine.max_task_attempts = 8;
  }
  QuerySpec spec;
  spec.algorithm = algorithm;
  auto result = ComputeSkyline(AntiCorrelated6d(), options, spec);
  EXPECT_TRUE(result.ok()) << result.status();
  Outcome out;
  if (!result.ok()) {
    return out;
  }
  out.rows = result->skyline.ids();
  for (const mr::JobMetrics& job : result->jobs) {
    out.counters.push_back(job.counters.values());
  }
  return out;
}

class ReduceParallelismTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, bool>> {};

TEST_P(ReduceParallelismTest, FourThreadsMatchOneThread) {
  const auto [algorithm, chaos] = GetParam();
  ThreadPool one(1);
  ThreadPool four(4);
  const Outcome serial = RunQuery(algorithm, &one, chaos);
  const Outcome pooled = RunQuery(algorithm, &four, chaos);
  std::vector<TupleId> sorted = serial.rows;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, ReferenceIds());
  EXPECT_EQ(pooled.rows, serial.rows);
  ASSERT_EQ(pooled.counters.size(), serial.counters.size());
  for (size_t j = 0; j < serial.counters.size(); ++j) {
    EXPECT_EQ(pooled.counters[j], serial.counters[j]) << "job " << j;
  }
  if (chaos) {
    int64_t crashes = 0;
    for (const auto& job : serial.counters) {
      const auto it = job.find("mr.chaos_crashes_injected");
      crashes += it == job.end() ? 0 : it->second;
    }
    EXPECT_GT(crashes, 0) << "crash20 injected nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Reducers, ReduceParallelismTest,
    ::testing::Combine(::testing::Values(Algorithm::kMrGpsrs,
                                         Algorithm::kMrGpmrs,
                                         Algorithm::kMrBnl,
                                         Algorithm::kSkyMr),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + (std::get<1>(info.param) ? "_crash20" : "");
    });

}  // namespace
}  // namespace skymr
