// The benchmark's own tests (skymr_e2e --selftest), on small inputs of
// each workload's distribution:
//  * the SFS reference the benchmark verifies against equals the O(n^2)
//    ReferenceSkyline, with and without a constraint box;
//  * the layer replay agrees with a real Session::Submit on ids, partition
//    pairs, tuple comparisons, shuffle bytes and the bitstring phase;
//  * a wrong answer is caught by the same id-set check the runs use.

#include <cstdio>
#include <optional>
#include <span>
#include <string>

#include "replay.h"
#include "src/relation/skyline_verify.h"
#include "workloads.h"

namespace e2e {
namespace {

/// O(n^2) reference over the tuples inside `box`, ids mapped back.
std::vector<skymr::TupleId> BruteForce(const skymr::Dataset& data,
                                       const std::optional<skymr::Box>& box) {
  skymr::Dataset inside(data.dim());
  std::vector<skymr::TupleId> original;
  for (size_t id = 0; id < data.size(); ++id) {
    const auto tid = static_cast<skymr::TupleId>(id);
    if (!box.has_value() || box->Contains(data.RowPtr(tid), data.dim())) {
      inside.Append(std::span<const double>(data.RowPtr(tid), data.dim()));
      original.push_back(tid);
    }
  }
  std::vector<skymr::TupleId> ids;
  for (const skymr::TupleId id : skymr::ReferenceSkyline(inside)) {
    ids.push_back(original[id]);
  }
  return ids;
}

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

}  // namespace

int SelfTest() {
  skymr::ThreadPool pool(2);
  for (const char* name : {"indep6-batch", "anti6-batch", "corr4-serve"}) {
    WorkloadDef small = *FindWorkload(name);
    small.cardinality = 3001;  // Uneven splits: the n % m rule matters.
    const skymr::Dataset data = MakeDataset(small, 7);
    skymr::Box box;
    box.lo.assign(small.dim, 0.15);
    box.hi.assign(small.dim, 0.85);

    for (const std::optional<skymr::Box>& constraint :
         {std::optional<skymr::Box>(), std::optional<skymr::Box>(box)}) {
      const std::string tag =
          std::string(name) + (constraint ? " boxed" : " unconstrained");
      const auto reference = ReferenceIds(data, constraint);
      Expect(skymr::SameIdSet(reference, BruteForce(data, constraint)),
             tag + ": SFS reference equals the O(n^2) reference (" +
                 std::to_string(reference.size()) + " tuples)");

      skymr::SessionOptions options = MakeSessionOptions(small, &pool);
      options.cache = false;
      auto session = std::move(skymr::Session::Open(data, options)).value();
      ReplayConfig config;
      config.mappers = kMappers;
      config.reducers = kReducers;
      config.bounds = skymr::Bounds::UnitCube(small.dim);
      for (const skymr::Algorithm algorithm :
           {skymr::Algorithm::kMrGpsrs, skymr::Algorithm::kMrGpmrs,
            skymr::Algorithm::kMrBnl}) {
        skymr::QuerySpec spec;
        spec.algorithm = algorithm;
        spec.constraint = constraint;
        Sample real;
        Record(session->Submit(spec, &real.info), &real);
        ReplayCounts counts;
        const bool replayed =
            ReplayQuery(data, config, algorithm, constraint, nullptr, &counts);
        const std::string diff = Disagreement(
            real, counts, algorithm != skymr::Algorithm::kMrBnl);
        Expect(replayed && diff.empty(),
               tag + " " + skymr::AlgorithmName(algorithm) +
                   ": replay agrees with Submit" +
                   (diff.empty() ? "" : " (" + diff + ")"));
        Expect(real.ok && skymr::SameIdSet(real.ids, reference),
               tag + " " + skymr::AlgorithmName(algorithm) +
                   ": Submit answer equals the reference");
        if (!real.ids.empty()) {
          real.ids.pop_back();
          Expect(!skymr::SameIdSet(real.ids, reference),
                 tag + ": a planted wrong answer is detected");
        }
      }
    }
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
