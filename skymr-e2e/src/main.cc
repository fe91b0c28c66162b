// skymr-e2e: end-to-end and per-layer benchmark of the skymr pipeline.
//
//   skymr_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-sha SHA] [--plant-wrong-answer 1]
//   skymr_e2e --selftest
//
// --trace 0 measures the end-to-end metrics: set-up, the single-node SFS
// floor, and every Session::Submit of the workload's loop, timed from
// outside and checked against the SFS reference after the clock stops.
// --trace 1 is the separate traced run: it replays each distinct query
// layer by layer (replay.h) inside benchmark-owned spans, holds the
// replay to the real Submit's answer and counters, and reports per-layer
// metrics. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong answer, failed
// query or replay disagreement exits 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "replay.h"
#include "spans.h"
#include "src/common/stopwatch.h"
#include "src/relation/skyline_verify.h"
#include "workloads.h"

namespace e2e {
namespace {

using skymr::Algorithm;
using skymr::TupleId;

/// The serving workload runs its open loop in this many segments and,
/// after each one, runs the floor and a throw-away set-up this many
/// times, so that both are sampled across the whole run as the batch
/// workloads' once-per-cycle runs are.
constexpr int kServeSegments = 10;
constexpr int kServeRepsPerSegment = 2;
/// Fresh boxes the traced serving run replays (each one is a distinct
/// query; the first ones in schedule order are taken).
constexpr size_t kReplayFreshBoxes = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/skymr-e2e/out";
  std::string git_sha = "unknown";
  bool plant_wrong_answer = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--seed") {
        args->seed = std::stoull(value);
        continue;
      }
      if (flag == "--seconds") {
        args->seconds = std::stod(value);
        continue;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << flag << ": " << value << "\n";
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--plant-wrong-answer") {
      args->plant_wrong_answer = value == "1";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

const char* AlgorithmTag(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMrGpsrs:
      return "gpsrs";
    case Algorithm::kMrGpmrs:
      return "gpmrs";
    case Algorithm::kMrBnl:
      return "bnl";
    default:
      return "other";
  }
}

std::string QueryKey(const Query& query) {
  std::string key = AlgorithmTag(query.algorithm);
  if (query.box >= 0) {
    key += ":box" + std::to_string(query.box);
  }
  return key;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

/// Metrics of one run, printed in order, each with its unit and the
/// number of samples behind it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    entries_.push_back({name, value, unit, samples});
  }

  void PrintLines() const {
    for (const Entry& e : entries_) {
      std::printf("metric %-42s %.9g %s (n=%zu)\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.samples);
    }
  }

  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
         << "\": {\"value\": " << entries_[i].value << ", \"unit\": \""
         << entries_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Entry> entries_;
};

/// Reference answers for every query of a plan: the unconstrained one
/// (the floor's answer) and one per constraint box, computed up front.
class References {
 public:
  References(const skymr::Dataset& data, const Plan& plan,
             std::vector<TupleId> unconstrained, skymr::ThreadPool* pool)
      : plan_(plan), by_box_(plan.boxes.size() + 1) {
    by_box_[0] = std::move(unconstrained);
    skymr::ParallelFor(pool, static_cast<int>(plan.boxes.size()), [&](int b) {
      by_box_[static_cast<size_t>(b) + 1] =
          ReferenceIds(data, plan.boxes[static_cast<size_t>(b)]);
    });
  }

  const std::vector<TupleId>& For(int query) const {
    return by_box_[static_cast<size_t>(
        plan_.distinct[static_cast<size_t>(query)].box + 1)];
  }

 private:
  const Plan& plan_;
  std::vector<std::vector<TupleId>> by_box_;  // Box b at b + 1.
};

/// Checks every sample's answer; returns the number that failed or were
/// wrong and marks them in `wrong`.
size_t VerifySamples(const std::vector<Sample>& samples,
                     const References& refs, std::vector<bool>* wrong) {
  size_t failed = 0;
  wrong->assign(samples.size(), false);
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    bool bad = !s.ok;
    if (s.ok && !skymr::SameIdSet(s.ids, refs.For(s.query))) {
      bad = true;
      std::fprintf(stderr, "WRONG ANSWER: sample %zu (query %d): %zu ids, "
                   "reference has %zu\n", i, s.query, s.ids.size(),
                   refs.For(s.query).size());
    }
    if (!s.ok) {
      std::fprintf(stderr, "FAILED: sample %zu (query %d): %s\n", i, s.query,
                   s.error.c_str());
    }
    (*wrong)[i] = bad;
    failed += bad ? 1 : 0;
  }
  return failed;
}

/// The deterministic count block of an untraced run: per distinct query,
/// the skyline job's counts (a cache hit carries only that job), plus the
/// bitstring job per constraint box, whichever query ran it.
std::string DeterministicFromSamples(const Plan& plan, size_t dim,
                                     const std::vector<Sample>& samples,
                                     const skymr::SessionStats& stats,
                                     bool serve, uint64_t floor_cmp) {
  std::map<std::string, std::string> per_query;
  std::map<int, uint64_t> bitstring_bytes;
  for (const Sample& s : samples) {
    if (!s.ok || s.jobs.empty()) {
      continue;
    }
    const Query& q = plan.distinct[static_cast<size_t>(s.query)];
    if (s.jobs.size() == 2) {
      bitstring_bytes[q.box] = s.jobs.front().shuffle_bytes;
    }
    const std::string key = QueryKey(q);
    if (per_query.count(key) != 0) {
      continue;
    }
    const JobCounts& job = s.jobs.back();
    const double cells =
        s.ppd > 0 ? std::pow(static_cast<double>(s.ppd), dim) : 0.0;
    std::ostringstream os;
    os << "{\"ppd\": " << s.ppd << ", \"cells\": " << cells
       << ", \"nonempty\": " << s.nonempty << ", \"pruned\": " << s.pruned
       << ", \"pairs\": " << job.partition_pairs
       << ", \"tuple_comparisons\": " << job.tuple_comparisons
       << ", \"shuffle_bytes\": " << job.shuffle_bytes
       << ", \"skyline\": " << s.ids.size() << "}";
    per_query[key] = os.str();
  }
  std::ostringstream os;
  os << "{\"queries\": {";
  bool first = true;
  for (const auto& [key, value] : per_query) {
    os << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  }
  os << "}, \"bitstring_shuffle_bytes\": {";
  first = true;
  for (const auto& [box, bytes] : bitstring_bytes) {
    os << (first ? "" : ", ") << "\"" << (box < 0 ? "all" : "box" +
                                                  std::to_string(box))
       << "\": " << bytes;
    first = false;
  }
  os << "}, \"floor_tuple_comparisons\": " << floor_cmp;
  if (serve) {
    os << ", \"queries_scheduled\": " << samples.size()
       << ", \"cache_hits\": " << stats.cache_hits
       << ", \"cache_misses\": " << stats.cache_misses;
  }
  os << "}";
  return os.str();
}

void PrintDeterministic(const std::string& block) {
  std::printf("deterministic %s\n", block.c_str());
  std::printf("deterministic_digest %016llx\n",
              static_cast<unsigned long long>(Fnv1a(block)));
}

void PrintEnvironment(const Args& args, const WorkloadDef& workload,
                      const ThreadBudget& budget) {
  std::printf("environment nproc=%u threads=%d (pool %d + clients %d) "
              "build=%s skymr_tracing=%d compiler=\"%s\" git_sha=%s\n",
              std::thread::hardware_concurrency(), budget.total(),
              budget.pool, budget.clients, SKYMR_E2E_BUILD_TYPE,
              SKYMR_E2E_TRACING, __VERSION__, args.git_sha.c_str());
  std::printf("workload %s: %zu %s tuples, d=%zu, %d mappers, %d reducers, "
              "seed %llu, %g s\n",
              workload.name.c_str(), workload.cardinality,
              skymr::data::DistributionName(workload.distribution),
              workload.dim, kMappers, kReducers,
              static_cast<unsigned long long>(args.seed), args.seconds);
}

/// The benchmark runs at most nproc threads, the calling one included.
bool WithinThreadBudget(int threads) {
  const auto nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= nproc) {
    return true;
  }
  std::fprintf(stderr, "THREAD BUDGET: %d live threads, nproc %d\n", threads,
               nproc);
  return false;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              report.Json().c_str());
  std::fflush(stdout);
}

/// The single-thread SFS floor. Its answer doubles as the unconstrained
/// reference. It runs once before the loop and again after every batch
/// cycle or open-loop segment, and reports its best time: memory-bound
/// work on a shared host runs in fast and slow phases lasting seconds,
/// and the best of many runs spread over the run is what repeats from
/// run to run.
struct Floor {
  std::vector<double> seconds;
  std::vector<TupleId> ids;
  uint64_t comparisons = 0;

  void Run(const skymr::Dataset& data) {
    skymr::Stopwatch clock;
    ids = ReferenceIds(data, std::nullopt, &comparisons);
    seconds.push_back(clock.ElapsedSeconds());
  }

  /// The floor is the fastest the single node answered.
  double Best() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
};

/// Set-up: generate the dataset and open the session (and warm the cache
/// when serving). The run sets up several times, spread over the run,
/// and reports the median; only the kept set-up serves queries.
struct Setup {
  std::unique_ptr<skymr::Dataset> data;
  std::unique_ptr<skymr::Session> session;
  std::vector<double> seconds;  // Every set-up of the run.

  /// Sets up once more; `keep` replaces the kept dataset and session,
  /// otherwise the new ones are timed and dropped.
  bool Run(const WorkloadDef& workload, uint64_t seed,
           skymr::ThreadPool* pool, bool keep) {
    if (keep) {
      session.reset();
      data.reset();
    }
    skymr::Stopwatch clock;
    auto new_data =
        std::make_unique<skymr::Dataset>(MakeDataset(workload, seed));
    auto session_or =
        skymr::Session::Open(*new_data, MakeSessionOptions(workload, pool));
    if (!session_or.ok()) {
      std::fprintf(stderr, "session open failed: %s\n",
                   session_or.status().ToString().c_str());
      return false;
    }
    if (workload.serve) {
      if (const skymr::Status warm = (*session_or)->Warmup(); !warm.ok()) {
        std::fprintf(stderr, "warmup failed: %s\n", warm.ToString().c_str());
        return false;
      }
    }
    seconds.push_back(clock.ElapsedSeconds());
    if (keep) {
      data = std::move(new_data);
      session = std::move(session_or).value();
    } else {
      session_or.value().reset();  // The session before its dataset.
    }
    return true;
  }
};

ReplayConfig MakeReplayConfig(const skymr::Session& session) {
  ReplayConfig config;
  config.mappers = kMappers;
  config.reducers = kReducers;
  config.bounds = skymr::Bounds::UnitCube(session.data().dim());
  config.ppd = session.options().ppd;
  config.prune_mode = session.options().prune_mode;
  return config;
}

/// Per-span cost of the recorder, measured on a throw-away recorder.
double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  SpanRecorder calibration;
  skymr::Stopwatch clock;
  for (int i = 0; i < kSpans; ++i) {
    SpanRecorder::Scope span(&calibration, "calibrate");
  }
  return clock.ElapsedSeconds() / kSpans;
}

/// Layer of a span name: the benchmark's layer prefixes; anything else
/// (query, job.*, map.task, reduce.task) is harness structure.
std::string LayerOf(const std::string& span) {
  static const char* const kLayers[] = {
      "core.compare_partitions", "core.bitstring", "core.merge", "core.ppd",
      "local", "mapreduce", "baselines"};
  for (const char* layer : kLayers) {
    const std::string prefix = layer;
    if (span.compare(0, prefix.size(), prefix) == 0 &&
        (span.size() == prefix.size() || span[prefix.size()] == '.')) {
      return prefix;
    }
  }
  return "harness";
}

int RunTraced(const Args& args, const WorkloadDef& workload,
              const ThreadBudget& budget, skymr::ThreadPool* pool,
              Setup* setup, const Plan& plan, const Floor& floor) {
  const skymr::Dataset& data = *setup->data;
  const References refs(data, plan, floor.ids, pool);
  size_t attempted = 0;
  size_t failed = 0;

  // Serving layer, untraced. Serving: the open loop, as in the timed
  // run. Batch: two closed-loop cycles on a session with the cache on,
  // so each grid query misses once and then hits.
  std::unique_ptr<skymr::Session> cached;
  skymr::Session* serve_session = setup->session.get();
  std::vector<Sample> loop;
  if (workload.serve) {
    loop = RunOpenLoop(serve_session, plan, budget.clients, kServeSegments,
                       [] {});
  } else {
    skymr::SessionOptions options = MakeSessionOptions(workload, pool);
    options.cache = true;
    auto session_or = skymr::Session::Open(data, options);
    if (!session_or.ok()) {
      std::fprintf(stderr, "session open failed: %s\n",
                   session_or.status().ToString().c_str());
      return 1;
    }
    cached = std::move(session_or).value();
    serve_session = cached.get();
    for (int cycle = 0; cycle < 2; ++cycle) {
      std::vector<Sample> pass =
          RunClosedLoop(serve_session, plan, 0.0, [] {});
      loop.insert(loop.end(), std::make_move_iterator(pass.begin()),
                  std::make_move_iterator(pass.end()));
    }
  }
  {
    std::vector<bool> wrong;
    failed += VerifySamples(loop, refs, &wrong);
    attempted += loop.size();
  }

  // The replay set: every distinct query of a batch workload; for the
  // serving workload the unconstrained queries, each pool box once and
  // the first fresh boxes.
  std::vector<int> replay_set;
  std::set<int> boxes_seen;
  size_t fresh = 0;
  for (size_t q = 0; q < plan.distinct.size(); ++q) {
    const int box = plan.distinct[q].box;
    if (box >= kPoolBoxes && fresh >= kReplayFreshBoxes) {
      continue;
    }
    if (box >= 0 && !boxes_seen.insert(box).second) {
      continue;
    }
    fresh += box >= kPoolBoxes ? 1 : 0;
    replay_set.push_back(static_cast<int>(q));
  }

  // The agreement Submits run on a session with the cache off, so each
  // carries both of its jobs.
  std::unique_ptr<skymr::Session> uncached;
  skymr::Session* agree_session = setup->session.get();
  if (workload.serve) {
    skymr::SessionOptions options = MakeSessionOptions(workload, pool);
    options.cache = false;
    auto session_or = skymr::Session::Open(data, options);
    if (!session_or.ok()) {
      std::fprintf(stderr, "session open failed: %s\n",
                   session_or.status().ToString().c_str());
      return 1;
    }
    uncached = std::move(session_or).value();
    agree_session = uncached.get();
  }

  const ReplayConfig config = MakeReplayConfig(*setup->session);
  SpanRecorder recorder;
  std::vector<Sample> agree;
  std::vector<ReplayCounts> replays;
  bool agreement = true;
  for (const int q : replay_set) {
    const Query& query = plan.distinct[static_cast<size_t>(q)];
    Sample real;
    real.query = q;
    skymr::Stopwatch clock;
    const auto result = agree_session->Submit(SpecFor(plan, q), &real.info);
    real.end = clock.ElapsedSeconds();
    real.threads = LiveThreads();
    Record(result, &real);
    ++attempted;
    std::vector<bool> wrong;
    failed += VerifySamples({real}, refs, &wrong);

    recorder.set_query(q);
    std::optional<skymr::Box> box;
    if (query.box >= 0) {
      box = plan.boxes[static_cast<size_t>(query.box)];
    }
    ReplayCounts counts;
    if (!ReplayQuery(data, config, query.algorithm, box, &recorder,
                     &counts)) {
      std::fprintf(stderr, "replay failed for %s\n", QueryKey(query).c_str());
      agreement = false;
    }
    const std::string diff =
        Disagreement(real, counts, query.algorithm != Algorithm::kMrBnl);
    std::printf("replay %-14s %s\n", QueryKey(query).c_str(),
                diff.empty() ? "agrees with Submit" : diff.c_str());
    if (!diff.empty()) {
      agreement = false;
    }
    agree.push_back(std::move(real));
    replays.push_back(std::move(counts));
  }
  uint64_t floor_replay_cmp = 0;
  {
    recorder.set_query(-2);  // Outside the per-query layer shares.
    SpanRecorder::Scope span(&recorder, "baselines.floor");
    ReferenceIds(data, std::nullopt, &floor_replay_cmp);
  }

  // ---- Per-layer metrics ----
  std::map<std::string, double> self;  // Self seconds, replayed queries.
  std::map<std::string, double> layer_self;
  double replay_total = 0.0;
  for (const int q : replay_set) {
    for (const auto& [name, seconds] : recorder.SelfSeconds(q)) {
      self[name] += seconds;
      layer_self[LayerOf(name)] += seconds;
      replay_total += seconds;
    }
  }
  const auto share = [&](const char* layer) {
    return replay_total > 0 ? layer_self[layer] / replay_total : 0.0;
  };

  ReplayCounts total;
  uint64_t grid_queries = 0;
  uint64_t candidates = 0;
  uint32_t selected = 0;
  double reducer_max_sum = 0.0;
  double skew_max = 0.0;
  double skew_mean = 0.0;
  std::vector<double> window_sizes;
  uint64_t shuffle_bytes = 0;
  uint64_t grid_in_box = 0;
  uint64_t grid_routed = 0;
  for (size_t i = 0; i < replay_set.size(); ++i) {
    const Query& query = plan.distinct[static_cast<size_t>(replay_set[i])];
    const ReplayCounts& c = replays[i];
    shuffle_bytes += c.bitstring_shuffle_bytes + c.skyline_shuffle_bytes;
    total.local_partitions += c.local_partitions;
    total.local_comparisons += c.local_comparisons;
    total.local_survivors += c.local_survivors;
    total.tuples_routed += c.tuples_routed;
    total.cp_pairs += c.cp_pairs;
    total.cp_comparisons += c.cp_comparisons;
    total.cp_removed += c.cp_removed;
    total.merge_comparisons += c.merge_comparisons;
    if (query.algorithm == Algorithm::kMrBnl) {
      continue;
    }
    ++grid_queries;
    candidates = std::max<uint64_t>(candidates, c.candidates);
    if (query.box < 0 && selected == 0) {
      selected = c.ppd;
    }
    total.nonempty_cells += c.nonempty_cells;
    total.pruned_cells += c.pruned_cells;
    grid_in_box += c.tuples_in_box;
    grid_routed += c.tuples_routed;
    for (const uint64_t size : c.window_sizes) {
      window_sizes.push_back(static_cast<double>(size));
    }
    if (query.algorithm == Algorithm::kMrGpmrs) {
      reducer_max_sum += *std::max_element(c.reducer_seconds.begin(),
                                           c.reducer_seconds.end());
      uint64_t max_bytes = 0;
      uint64_t sum_bytes = 0;
      for (const uint64_t bytes : c.reducer_input_bytes) {
        max_bytes = std::max(max_bytes, bytes);
        sum_bytes += bytes;
      }
      skew_max += static_cast<double>(max_bytes);
      skew_mean += static_cast<double>(sum_bytes) /
                   static_cast<double>(c.reducer_input_bytes.size());
    }
  }

  std::vector<double> waits;
  std::vector<double> hit_service;
  std::vector<double> miss_service;
  double gen_late_max = 0.0;
  uint64_t retries = 0;
  int threads = 0;
  for (const std::vector<Sample>* samples : {&loop, &agree}) {
    for (const Sample& s : *samples) {
      threads = std::max(threads, s.threads);
    }
  }
  for (const Sample& s : loop) {
    waits.push_back(s.start - s.due + s.info.queue_wait_seconds);
    const Query& query = plan.distinct[static_cast<size_t>(s.query)];
    if (query.algorithm != Algorithm::kMrBnl) {
      (s.info.cache_hit ? hit_service : miss_service)
          .push_back(s.end - s.start);
    }
    if (s.ready) {
      gen_late_max = std::max(gen_late_max, s.start - s.due);
    }
  }
  double bitstring_job_s = 0.0;
  for (const Sample& s : agree) {
    for (const JobCounts& job : s.jobs) {
      retries += job.retries;
    }
    if (s.jobs.size() == 2) {
      bitstring_job_s += s.jobs.front().wall_seconds;
    }
  }
  for (const Sample& s : loop) {
    for (const JobCounts& job : s.jobs) {
      retries += job.retries;
    }
  }
  const size_t grid_served = hit_service.size() + miss_service.size();
  const size_t spans = recorder.spans().size();
  const double overhead =
      replay_total > 0
          ? SpanCostSeconds() * static_cast<double>(spans) / replay_total
          : 0.0;
  const auto frac = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  Report r;
  const size_t nq = replay_set.size();
  r.Add("serve.admission_wait_s.p50", Quantile(waits, 0.5), "s",
        waits.size());
  r.Add("serve.admission_wait_s.p95", Quantile(waits, 0.95), "s",
        waits.size());
  r.Add("serve.cache_hit_frac",
        frac(static_cast<double>(hit_service.size()),
             static_cast<double>(grid_served)),
        "ratio", grid_served);
  r.Add("serve.hit_submit_s.p50", Median(hit_service), "s",
        hit_service.size());
  r.Add("serve.miss_submit_s.p50", Median(miss_service), "s",
        miss_service.size());
  r.Add("serve.cache_entries",
        static_cast<double>(serve_session->stats().cache_misses), "count",
        1);
  r.Add("core.ppd.candidates", static_cast<double>(candidates), "count",
        grid_queries);
  r.Add("core.ppd.selected", selected, "count", 1);
  r.Add("core.ppd.bitstring_build_s", self["core.ppd.build"], "s", nq);
  r.Add("core.ppd.bitstring_job_s", bitstring_job_s, "s", grid_queries);
  r.Add("core.ppd.self_share", share("core.ppd"), "ratio", nq);
  r.Add("core.bitstring.prune_s", self["core.bitstring.prune"], "s", nq);
  r.Add("core.bitstring.nonempty_cells",
        static_cast<double>(total.nonempty_cells), "count", grid_queries);
  r.Add("core.bitstring.pruned_cells",
        static_cast<double>(total.pruned_cells), "count", grid_queries);
  r.Add("core.bitstring.tuples_kept_frac",
        frac(static_cast<double>(grid_routed),
             static_cast<double>(grid_in_box)),
        "ratio", grid_queries);
  r.Add("core.bitstring.self_share", share("core.bitstring"), "ratio", nq);
  r.Add("local.route_s", self["local.route"], "s", nq);
  r.Add("local.kernel_s", self["local.kernel"], "s", nq);
  r.Add("local.tuple_comparisons",
        static_cast<double>(total.local_comparisons), "count", nq);
  r.Add("local.partitions", static_cast<double>(total.local_partitions),
        "count", nq);
  r.Add("local.window_p95", Quantile(window_sizes, 0.95), "count",
        window_sizes.size());
  r.Add("local.survivor_frac",
        frac(static_cast<double>(total.local_survivors),
             static_cast<double>(total.tuples_routed)),
        "ratio", nq);
  r.Add("local.self_share", share("local"), "ratio", nq);
  r.Add("core.compare_partitions.map_s", self["core.compare_partitions.map"],
        "s", nq);
  r.Add("core.compare_partitions.reduce_s",
        self["core.compare_partitions.reduce"], "s", nq);
  r.Add("core.compare_partitions.pairs", static_cast<double>(total.cp_pairs),
        "count", nq);
  r.Add("core.compare_partitions.tuple_comparisons",
        static_cast<double>(total.cp_comparisons), "count", nq);
  r.Add("core.compare_partitions.removed_per_kpair",
        1000.0 * frac(static_cast<double>(total.cp_removed),
                      static_cast<double>(total.cp_pairs)),
        "count", nq);
  r.Add("core.compare_partitions.self_share",
        share("core.compare_partitions"), "ratio", nq);
  r.Add("mapreduce.shuffle_bytes", static_cast<double>(shuffle_bytes),
        "bytes", nq);
  r.Add("mapreduce.serialize_s", self["mapreduce.serialize"], "s", nq);
  r.Add("mapreduce.deserialize_s", self["mapreduce.deserialize"], "s", nq);
  r.Add("mapreduce.task_attempts_failed", static_cast<double>(retries),
        "count", agree.size() + loop.size());
  r.Add("mapreduce.self_share", share("mapreduce"), "ratio", nq);
  r.Add("core.merge.gpsrs_s", self["core.merge.gpsrs"], "s", nq);
  r.Add("core.merge.tuple_comparisons",
        static_cast<double>(total.merge_comparisons), "count", nq);
  r.Add("core.merge.gpmrs_group_s", self["core.merge.gpmrs_group"], "s", nq);
  r.Add("core.merge.gpmrs_reducer_max_s", reducer_max_sum, "s", nq);
  r.Add("core.merge.reducer_skew", frac(skew_max, skew_mean), "ratio", nq);
  r.Add("core.merge.self_share", share("core.merge"), "ratio", nq);
  r.Add("baselines.floor_tuple_comparisons",
        static_cast<double>(floor_replay_cmp), "count", 1);
  r.Add("harness.gen_late_max_s", gen_late_max, "s", loop.size());
  r.Add("harness.threads", threads, "count", agree.size() + loop.size());
  r.Add("harness.trace_overhead_frac", overhead, "ratio", spans);

  // Deterministic block: the replay's counts per replayed query.
  std::ostringstream det;
  det << "{\"queries\": {";
  for (size_t i = 0; i < replay_set.size(); ++i) {
    const ReplayCounts& c = replays[i];
    det << (i == 0 ? "" : ", ") << "\""
        << QueryKey(plan.distinct[static_cast<size_t>(replay_set[i])])
        << "\": {\"candidates\": " << c.candidates << ", \"ppd\": " << c.ppd
        << ", \"cells\": " << c.cells << ", \"nonempty\": "
        << c.nonempty_cells << ", \"pruned\": " << c.pruned_cells
        << ", \"pairs\": " << c.cp_pairs << ", \"tuple_comparisons\": "
        << c.tuple_comparisons() << ", \"shuffle_bytes\": "
        << c.bitstring_shuffle_bytes + c.skyline_shuffle_bytes
        << ", \"skyline\": " << c.skyline_ids.size() << "}";
  }
  const skymr::SessionStats stats = serve_session->stats();
  det << "}, \"floor_tuple_comparisons\": " << floor.comparisons
      << ", \"queries_scheduled\": " << loop.size()
      << ", \"cache_hits\": " << stats.cache_hits
      << ", \"cache_misses\": " << stats.cache_misses << "}";
  PrintDeterministic(det.str());

  std::printf("layer self time over %zu replayed queries (%.3f s):\n", nq,
              replay_total);
  for (const auto& [layer, seconds] : layer_self) {
    std::printf("  %-26s %8.4f s  %5.1f%%\n", layer.c_str(), seconds,
                100.0 * frac(seconds, replay_total));
  }

  std::filesystem::create_directories(args.out_dir);
  const std::string trace_path = args.out_dir + "/spans-" + workload.name +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
  std::ofstream trace_out(trace_path);
  recorder.WriteJson(trace_out);
  std::printf("spans written to %s (%zu spans)\n", trace_path.c_str(),
              spans);

  r.PrintLines();
  const bool correct = failed == 0 && agreement && WithinThreadBudget(threads);
  PrintResult(correct, attempted, failed, r);
  return correct ? 0 : 1;
}

int RunTimed(const Args& args, const WorkloadDef& workload,
             const ThreadBudget& budget, skymr::ThreadPool* pool,
             Setup* setup, const Plan& plan, Floor* floor) {
  const skymr::Dataset& data = *setup->data;
  std::vector<Sample> samples;
  bool ok = true;
  // Peak RSS covers the Submits only: the resident dataset and session
  // plus each Submit's transient memory. The floor, the extra set-ups and
  // the answer checks run outside the windows it is taken over.
  double peak_rss_mb = 0.0;
  size_t rss_windows = 0;
  const auto between = [&] {
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    ++rss_windows;
    for (int rep = 0; rep < (workload.serve ? kServeRepsPerSegment : 1);
         ++rep) {
      floor->Run(data);
      ok = setup->Run(workload, args.seed, pool, /*keep=*/false) && ok;
    }
    ResetPeakRss();
  };
  ResetPeakRss();
  if (workload.serve) {
    samples = RunOpenLoop(setup->session.get(), plan, budget.clients,
                          kServeSegments, between);
  } else {
    samples = RunClosedLoop(setup->session.get(), plan, args.seconds, between);
  }
  if (!ok) {
    return 1;
  }
  // The clock has stopped: check every answer.
  if (args.plant_wrong_answer && !samples.empty() &&
      !samples.front().ids.empty()) {
    samples.front().ids.pop_back();
  }
  const References refs(data, plan, floor->ids, pool);
  std::vector<bool> wrong;
  const size_t wrong_or_errored = VerifySamples(samples, refs, &wrong);

  std::map<Algorithm, std::vector<double>> service;  // Unconstrained only.
  std::vector<double> latency;
  size_t over_limit = 0;
  double gen_late_max = 0.0;
  int threads = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const Query& query = plan.distinct[static_cast<size_t>(s.query)];
    latency.push_back(s.end - s.due);
    if (s.ok && query.box < 0) {
      service[query.algorithm].push_back(s.end - s.start);
    }
    if (workload.serve && !wrong[i] && s.end - s.due > kLatencyLimitS) {
      ++over_limit;
      std::fprintf(stderr, "OVER LIMIT: sample %zu (query %d): %.3f s\n", i,
                   s.query, s.end - s.due);
    }
    if (s.ready) {
      gen_late_max = std::max(gen_late_max, s.start - s.due);
    }
    threads = std::max(threads, s.threads);
  }
  // A query that errored, was wrong or (serving) went over the latency
  // limit failed; any failure fails the run.
  const size_t failed = wrong_or_errored + over_limit;

  Report r;
  r.Add("setup_s", Median(setup->seconds), "s", setup->seconds.size());
  r.Add("gpsrs_s", Median(service[Algorithm::kMrGpsrs]), "s",
        service[Algorithm::kMrGpsrs].size());
  r.Add("gpmrs_s", Median(service[Algorithm::kMrGpmrs]), "s",
        service[Algorithm::kMrGpmrs].size());
  r.Add("bnl_s", Median(service[Algorithm::kMrBnl]), "s",
        service[Algorithm::kMrBnl].size());
  r.Add("floor_s", floor->Best(), "s", floor->seconds.size());
  r.Add("latency_p50_s", Quantile(latency, 0.5), "s", latency.size());
  r.Add("latency_p95_s", Quantile(latency, 0.95), "s", latency.size());
  r.Add("peak_rss_mb", peak_rss_mb, "MiB", rss_windows);

  const double n = std::max<double>(1.0, static_cast<double>(samples.size()));
  std::printf("check failed_frac %.6f (%zu of %zu queries)\n",
              static_cast<double>(wrong_or_errored) / n, wrong_or_errored,
              samples.size());
  if (workload.serve) {
    std::printf("check slo_miss_frac %.6f (limit %.3f s, %zu of %zu, worst "
                "latency %.3f s)\n",
                static_cast<double>(failed) / n, kLatencyLimitS, failed,
                samples.size(), Quantile(latency, 1.0));
    std::printf("check gen_late_max_s %.6f\n", gen_late_max);
  }
  std::printf("check threads %d (nproc %u)\n", threads,
              std::thread::hardware_concurrency());
  PrintDeterministic(DeterministicFromSamples(plan, workload.dim, samples,
                                              setup->session->stats(),
                                              workload.serve,
                                              floor->comparisons));
  r.PrintLines();
  const bool correct = failed == 0 && WithinThreadBudget(threads);
  PrintResult(correct, samples.size(), failed, r);
  return correct ? 0 : 1;
}

int RunWorkload(const Args& args) {
  const WorkloadDef* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const ThreadBudget budget = Budget(*workload);
  PrintEnvironment(args, *workload, budget);
  skymr::ThreadPool pool(budget.pool);

  Setup setup;
  Floor floor;
  if (!setup.Run(*workload, args.seed, &pool, /*keep=*/true)) {
    return 1;
  }
  floor.Run(*setup.data);
  const Plan plan = MakePlan(*workload, args.seed, args.seconds);
  if (args.trace) {
    return RunTraced(args, *workload, budget, &pool, &setup, plan, floor);
  }
  return RunTimed(args, *workload, budget, &pool, &setup, plan, &floor);
}

}  // namespace

int SelfTest();

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: skymr_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n"
                 "       skymr_e2e --selftest\n";
    return 2;
  }
  if (args.selftest) {
    return e2e::SelfTest();
  }
  return e2e::RunWorkload(args);
}
