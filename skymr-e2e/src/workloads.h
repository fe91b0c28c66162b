// The three skymr-e2e workloads, their seeded inputs, and the two load
// loops: a closed loop with one client for the batch workloads and a
// bounded open loop (precomputed Poisson arrivals, a fixed set of client
// threads) for the serving workload.

#ifndef SKYMR_E2E_WORKLOADS_H_
#define SKYMR_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "replay.h"
#include "src/common/thread_pool.h"
#include "src/core/runner.h"
#include "src/data/generator.h"
#include "src/relation/box.h"
#include "src/relation/dataset.h"
#include "src/serve/session.h"

namespace e2e {

/// Engine shape every workload uses (--mappers=8 --reducers=4).
inline constexpr int kMappers = 8;
inline constexpr int kReducers = 4;

struct WorkloadDef {
  std::string name;
  skymr::data::Distribution distribution;
  size_t cardinality;
  size_t dim;
  /// Resident serving: session cache on and warmed in set-up, open-loop
  /// Poisson arrivals. Otherwise a closed batch loop with the cache off.
  bool serve;
};

/// The workload named `name`, or null.
const WorkloadDef* FindWorkload(const std::string& name);

/// Serving workload (corr4-serve): Poisson arrival rate, below
/// saturation, and the latency limit every query must meet.
inline constexpr double kServeRateQps = 24.0;
inline constexpr double kLatencyLimitS = 0.5;
/// Fixed pool of reused constraint boxes.
inline constexpr int kPoolBoxes = 8;
/// Mix shares; the unconstrained GPSRS/GPMRS hits take the remaining
/// 0.30. With the pool boxes' first uses, about a quarter of the queries
/// miss the cache.
inline constexpr double kShareBnl = 0.10;    // MR-BNL, bypasses the cache.
inline constexpr double kSharePool = 0.40;   // Pool boxes, hits after first use.
inline constexpr double kShareFresh = 0.20;  // Fresh boxes, misses.

/// A distinct query: algorithm plus constraint box (-1 = unconstrained,
/// else an index into the plan's boxes).
struct Query {
  skymr::Algorithm algorithm = skymr::Algorithm::kMrGpsrs;
  int box = -1;
  bool operator<(const Query& o) const {
    return algorithm != o.algorithm ? algorithm < o.algorithm : box < o.box;
  }
};

/// What a workload asks: its distinct queries and, for the serving
/// workload, the arrival schedule over them.
struct Plan {
  std::vector<skymr::Box> boxes;  // Pool boxes first, then fresh boxes.
  std::vector<Query> distinct;    // Distinct queries, in first-use order.
  std::vector<int> arrivals;      // Open loop: index into `distinct`.
  std::vector<double> due;        // Open loop: seconds after the start.
};

/// The batch cycle (MR-GPSRS, MR-GPMRS, MR-BNL, unconstrained) or the
/// seeded open-loop schedule covering `seconds`.
Plan MakePlan(const WorkloadDef& workload, uint64_t seed, double seconds);

skymr::Dataset MakeDataset(const WorkloadDef& workload, uint64_t seed);

skymr::SessionOptions MakeSessionOptions(const WorkloadDef& workload,
                                         skymr::ThreadPool* pool);

/// Threads the workload runs on, the calling thread included: pool
/// workers plus client threads, at most `nproc`.
struct ThreadBudget {
  int pool = 1;
  int clients = 1;
  int total() const { return pool + clients; }
};
ThreadBudget Budget(const WorkloadDef& workload);

/// The single-node reference: RunCentralized(kSfs) over the tuples inside
/// `box` (all tuples when unset), ids mapped back to `data`.
std::vector<skymr::TupleId> ReferenceIds(const skymr::Dataset& data,
                                         const std::optional<skymr::Box>& box,
                                         uint64_t* comparisons = nullptr);

/// The parts of one job's metrics the benchmark checks and reports.
struct JobCounts {
  uint64_t partition_pairs = 0;
  uint64_t tuple_comparisons = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t retries = 0;
  double wall_seconds = 0.0;
};

/// One timed Submit. Times are seconds since the loop started.
struct Sample {
  int query = 0;          // Index into Plan::distinct.
  double due = 0.0;       // Scheduled arrival (closed loop: when the
                          // query before it in the cycle returned).
  double start = 0.0;     // Submit called.
  double end = 0.0;       // Submit returned.
  bool ready = false;     // Client was free by `due`, so start - due is
                          // the generator's own lateness.
  int threads = 0;        // Live threads in the process after Submit.
  bool ok = false;
  std::string error;
  skymr::SubmitInfo info;
  // Taken from the SkylineResult after the clock stopped.
  uint32_t ppd = 0;
  uint64_t nonempty = 0;
  uint64_t pruned = 0;
  std::vector<JobCounts> jobs;
  std::vector<skymr::TupleId> ids;
};

/// Live threads of this process (the Threads: line of /proc/self/status),
/// or 0 when it cannot be read.
int LiveThreads();

/// Peak resident set of this process since the last ResetPeakRss(), in
/// MiB (VmHWM). ResetPeakRss() first hands freed heap pages back to the
/// system, so memory the harness has released does not count.
double PeakRssMb();
void ResetPeakRss();

/// Fills the result fields of `sample` from a Submit outcome.
void Record(const skymr::StatusOr<skymr::SkylineResult>& result,
            Sample* sample);

skymr::QuerySpec SpecFor(const Plan& plan, int query);

/// Closed loop, one client: cycles the plan's distinct queries until
/// `seconds` have passed, finishing the cycle in progress (at least one
/// cycle). `after_cycle` runs between cycles, outside every Submit's
/// timing.
std::vector<Sample> RunClosedLoop(skymr::Session* session, const Plan& plan,
                                  double seconds,
                                  const std::function<void()>& after_cycle);

/// Open loop: clients take arrivals in schedule order, wait for each
/// one's due time when idle, and Submit. Latency counts from `due`. The
/// schedule runs in `segments` consecutive parts of equal query count;
/// after each part has drained, `after_segment` runs, and its time is
/// cut out of the schedule.
std::vector<Sample> RunOpenLoop(skymr::Session* session, const Plan& plan,
                                int clients, int segments,
                                const std::function<void()>& after_segment);

/// Holds the replay of one query to the real Submit of the same query
/// (run with the session cache off, so it carries both jobs): skyline
/// ids, partition pairs, tuple comparisons, shuffle bytes and, for grid
/// algorithms, the bitstring phase. Returns "" or the first difference.
std::string Disagreement(const Sample& real, const ReplayCounts& replay,
                         bool grid);

}  // namespace e2e

#endif  // SKYMR_E2E_WORKLOADS_H_
