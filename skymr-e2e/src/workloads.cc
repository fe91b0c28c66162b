#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <thread>

#include "src/baselines/centralized.h"
#include "src/mapreduce/counters.h"
#include "src/relation/skyline_verify.h"

namespace e2e {
namespace {

using skymr::Algorithm;
using Clock = std::chrono::steady_clock;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = {
      {"indep6-batch", skymr::data::Distribution::kIndependent, 300000, 6,
       false},
      {"anti6-batch", skymr::data::Distribution::kAntiCorrelated, 100000, 6,
       false},
      {"corr4-serve", skymr::data::Distribution::kCorrelated, 200000, 4,
       true},
  };
  return workloads;
}

/// splitmix64: a portable seeded stream, so a seed gives the same plan
/// with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

 private:
  uint64_t state_;
};

/// A box around a stretch of the main diagonal, where correlated data
/// lives. Centre and widths vary little, so every box holds a similar
/// share of the tuples and every miss costs about the same.
skymr::Box DiagonalBox(Rng* rng, size_t dim) {
  const double center = rng->Uniform(0.4, 0.6);
  skymr::Box box;
  for (size_t k = 0; k < dim; ++k) {
    box.lo.push_back(center - rng->Uniform(0.18, 0.22));
    box.hi.push_back(center + rng->Uniform(0.18, 0.22));
  }
  return box;
}

double Since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

Plan MakePlan(const WorkloadDef& workload, uint64_t seed, double seconds) {
  Plan plan;
  const std::vector<Query> fixed = {{Algorithm::kMrGpsrs, -1},
                                    {Algorithm::kMrGpmrs, -1},
                                    {Algorithm::kMrBnl, -1}};
  if (!workload.serve) {
    plan.distinct = fixed;
    return plan;
  }
  Rng rng(seed ^ 0x73657276652d6d78ULL);
  for (int i = 0; i < kPoolBoxes; ++i) {
    plan.boxes.push_back(DiagonalBox(&rng, workload.dim));
  }
  std::map<Query, int> index;
  const auto intern = [&](const Query& query) {
    auto [it, inserted] =
        index.emplace(query, static_cast<int>(plan.distinct.size()));
    if (inserted) {
      plan.distinct.push_back(query);
    }
    return it->second;
  };
  // A Poisson process of rate r conditioned on N = round(r * seconds)
  // arrivals in [0, seconds) is N sorted uniform times. The mix is
  // stratified: exact class counts in a seeded shuffle. Fixing both keeps
  // the miss share and the percentiles' sample counts the same in every
  // run, so only the order, the times and the boxes change with the seed.
  const auto n = static_cast<size_t>(std::llround(kServeRateQps * seconds));
  for (size_t i = 0; i < n; ++i) {
    plan.due.push_back(rng.Uniform() * seconds);
  }
  std::sort(plan.due.begin(), plan.due.end());
  enum Class { kUnconstrained, kBnl, kPool, kFresh };
  std::vector<Class> classes;
  const auto add = [&](Class c, double share) {
    const auto count = static_cast<size_t>(std::llround(share * n));
    classes.insert(classes.end(), count, c);
  };
  add(kBnl, kShareBnl);
  add(kPool, kSharePool);
  add(kFresh, kShareFresh);
  classes.resize(n, kUnconstrained);
  for (size_t i = n; i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.Next() % i]);
  }
  // Grid queries alternate MR-GPSRS / MR-GPMRS within each class.
  size_t grid_turn[4] = {0, 0, 0, 0};
  for (const Class c : classes) {
    const Algorithm grid = grid_turn[c]++ % 2 == 0 ? Algorithm::kMrGpsrs
                                                   : Algorithm::kMrGpmrs;
    Query query;
    switch (c) {
      case kUnconstrained:
        query = {grid, -1};
        break;
      case kBnl:
        query = {Algorithm::kMrBnl, -1};
        break;
      case kPool:
        query = {grid, static_cast<int>(rng.Next() % kPoolBoxes)};
        break;
      case kFresh:
        plan.boxes.push_back(DiagonalBox(&rng, workload.dim));
        query = {grid, static_cast<int>(plan.boxes.size() - 1)};
        break;
    }
    plan.arrivals.push_back(intern(query));
  }
  return plan;
}

skymr::Dataset MakeDataset(const WorkloadDef& workload, uint64_t seed) {
  skymr::data::GeneratorConfig config;
  config.distribution = workload.distribution;
  config.cardinality = workload.cardinality;
  config.dim = workload.dim;
  config.seed = seed;
  return std::move(skymr::data::Generate(config)).value();
}

skymr::SessionOptions MakeSessionOptions(const WorkloadDef& workload,
                                         skymr::ThreadPool* pool) {
  skymr::SessionOptions options;
  options.engine.num_map_tasks = kMappers;
  options.engine.num_reducers = kReducers;
  options.pool = pool;
  options.cache = workload.serve;
  return options;
}

ThreadBudget Budget(const WorkloadDef& workload) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadBudget budget;
  // The serving workload runs two clients (the calling thread and one
  // more) so a miss does not stall every hit behind it; the batch loop
  // has one. The pool gets the rest, at least one worker.
  budget.clients = workload.serve && nproc >= 3 ? 2 : 1;
  budget.pool = std::max(1, nproc - budget.clients);
  return budget;
}

std::vector<skymr::TupleId> ReferenceIds(const skymr::Dataset& data,
                                         const std::optional<skymr::Box>& box,
                                         uint64_t* comparisons) {
  std::vector<skymr::TupleId> ids;
  skymr::baselines::CentralizedRun run;
  if (!box.has_value()) {
    run = skymr::baselines::RunCentralized(
        data, skymr::baselines::CentralizedAlgorithm::kSfs);
    ids = run.skyline.ids();
  } else {
    skymr::Dataset inside(data.dim());
    std::vector<skymr::TupleId> original;
    for (size_t id = 0; id < data.size(); ++id) {
      const auto tid = static_cast<skymr::TupleId>(id);
      if (box->Contains(data.RowPtr(tid), data.dim())) {
        inside.Append(std::span<const double>(data.RowPtr(tid), data.dim()));
        original.push_back(tid);
      }
    }
    run = skymr::baselines::RunCentralized(
        inside, skymr::baselines::CentralizedAlgorithm::kSfs);
    for (const skymr::TupleId id : run.skyline.ids()) {
      ids.push_back(original[id]);
    }
  }
  if (comparisons != nullptr) {
    *comparisons = run.tuple_comparisons;
  }
  return ids;
}

namespace {

/// The value of one "Key:   N kB"-style line of /proc/self/status.
long StatusField(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stol(line.substr(key.size()));
    }
  }
  return 0;
}

}  // namespace

int LiveThreads() { return static_cast<int>(StatusField("Threads:")); }

double PeakRssMb() {
  return static_cast<double>(StatusField("VmHWM:")) / 1024.0;  // KiB -> MiB
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // Resets VmHWM to VmRSS.
}

skymr::QuerySpec SpecFor(const Plan& plan, int query) {
  const Query& q = plan.distinct[static_cast<size_t>(query)];
  skymr::QuerySpec spec;
  spec.algorithm = q.algorithm;
  if (q.box >= 0) {
    spec.constraint = plan.boxes[static_cast<size_t>(q.box)];
  }
  spec.query.id = static_cast<uint64_t>(query) + 1;
  return spec;
}

void Record(const skymr::StatusOr<skymr::SkylineResult>& result,
            Sample* sample) {
  sample->ok = result.ok();
  if (!result.ok()) {
    sample->error = result.status().ToString();
    return;
  }
  sample->ppd = result->ppd;
  sample->nonempty = result->nonempty_partitions;
  sample->pruned = result->pruned_partitions;
  for (const skymr::mr::JobMetrics& job : result->jobs) {
    JobCounts counts;
    counts.partition_pairs = static_cast<uint64_t>(
        job.counters.Get(skymr::mr::kCounterPartitionComparisons));
    counts.tuple_comparisons = static_cast<uint64_t>(
        job.counters.Get(skymr::mr::kCounterTupleComparisons));
    counts.shuffle_bytes = job.shuffle_bytes;
    counts.retries =
        static_cast<uint64_t>(job.counters.Get("mr.task_retries"));
    counts.wall_seconds = job.wall_seconds;
    sample->jobs.push_back(std::move(counts));
  }
  sample->ids = result->skyline.ids();
}

std::vector<Sample> RunClosedLoop(skymr::Session* session, const Plan& plan,
                                  double seconds,
                                  const std::function<void()>& after_cycle) {
  std::vector<skymr::QuerySpec> specs;
  for (size_t q = 0; q < plan.distinct.size(); ++q) {
    specs.push_back(SpecFor(plan, static_cast<int>(q)));
  }
  std::vector<Sample> samples;
  const Clock::time_point origin = Clock::now();
  do {
    for (size_t q = 0; q < specs.size(); ++q) {
      Sample sample;
      sample.query = static_cast<int>(q);
      sample.ready = true;
      sample.start = Since(origin);
      // A query is due when the one before it in the cycle returned.
      sample.due = q == 0 ? sample.start : samples.back().end;
      const auto result = session->Submit(specs[q], &sample.info);
      sample.end = Since(origin);
      sample.threads = LiveThreads();
      Record(result, &sample);
      samples.push_back(std::move(sample));
    }
    after_cycle();
  } while (Since(origin) < seconds);
  return samples;
}

std::vector<Sample> RunOpenLoop(skymr::Session* session, const Plan& plan,
                                int clients, int segments,
                                const std::function<void()>& after_segment) {
  std::vector<skymr::QuerySpec> specs;
  for (size_t q = 0; q < plan.distinct.size(); ++q) {
    specs.push_back(SpecFor(plan, static_cast<int>(q)));
  }
  std::vector<Sample> samples(plan.arrivals.size());
  const size_t n = samples.size();
  const auto parts = static_cast<size_t>(std::max(1, segments));
  for (size_t part = 0; part < parts; ++part) {
    const size_t lo = n * part / parts;
    const size_t hi = n * (part + 1) / parts;
    if (lo == hi) {
      continue;
    }
    // The segment's clock is the schedule's, shifted so that its first
    // arrival is due now: time spent between segments is cut out.
    const Clock::time_point origin =
        Clock::now() - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(plan.due[lo]));
    std::atomic<size_t> next{lo};
    const auto client = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= hi) {
          return;
        }
        Sample& sample = samples[i];
        sample.query = plan.arrivals[i];
        sample.due = plan.due[i];
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(sample.due));
        if (Clock::now() < due) {
          sample.ready = true;
          std::this_thread::sleep_until(due);
        }
        sample.start = Since(origin);
        const auto result =
            session->Submit(specs[static_cast<size_t>(sample.query)],
                            &sample.info);
        sample.end = Since(origin);
        sample.threads = LiveThreads();
        Record(result, &sample);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c) {
      threads.emplace_back(client);
    }
    client();
    for (std::thread& thread : threads) {
      thread.join();
    }
    after_segment();
  }
  return samples;
}

std::string Disagreement(const Sample& real, const ReplayCounts& replay,
                         bool grid) {
  std::ostringstream os;
  if (!real.ok) {
    return "submit failed: " + real.error;
  }
  if (!skymr::SameIdSet(real.ids, replay.skyline_ids)) {
    os << "skyline ids differ (" << real.ids.size() << " vs "
       << replay.skyline_ids.size() << ")";
    return os.str();
  }
  uint64_t tuple_cmp = 0;
  uint64_t shuffle = 0;
  for (const JobCounts& job : real.jobs) {
    tuple_cmp += job.tuple_comparisons;
    shuffle += job.shuffle_bytes;
  }
  const JobCounts& skyline_job = real.jobs.back();
  if (skyline_job.partition_pairs != replay.cp_pairs) {
    os << "partition pairs " << skyline_job.partition_pairs << " vs "
       << replay.cp_pairs;
  } else if (tuple_cmp != replay.tuple_comparisons()) {
    os << "tuple comparisons " << tuple_cmp << " vs "
       << replay.tuple_comparisons();
  } else if (skyline_job.shuffle_bytes != replay.skyline_shuffle_bytes ||
             shuffle != replay.bitstring_shuffle_bytes +
                            replay.skyline_shuffle_bytes) {
    os << "shuffle bytes " << shuffle << " vs "
       << replay.bitstring_shuffle_bytes + replay.skyline_shuffle_bytes;
  } else if (grid && (real.jobs.size() != 2 || real.ppd != replay.ppd ||
                      real.nonempty != replay.nonempty_cells ||
                      real.pruned != replay.pruned_cells)) {
    os << "bitstring phase: ppd " << real.ppd << " vs " << replay.ppd
       << ", nonempty " << real.nonempty << " vs " << replay.nonempty_cells
       << ", pruned " << real.pruned << " vs " << replay.pruned_cells;
  }
  return os.str();
}

}  // namespace e2e
