#include "src/relation/skyline_verify.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace skymr {

namespace {

// Definition 1, written out here so the reference shares no code with the
// production kernels it checks (relation/dominance, the block kernels).
// A NaN coordinate compares neither better nor worse, as there.
bool RefDominates(const double* a, const double* b, size_t dim) {
  bool strictly_better = false;
  for (size_t k = 0; k < dim; ++k) {
    if (a[k] > b[k]) {
      return false;
    }
    if (a[k] < b[k]) {
      strictly_better = true;
    }
  }
  return strictly_better;
}

bool DominatedByAny(const Dataset& data, const std::vector<TupleId>& by,
                    TupleId id) {
  const double* row = data.RowPtr(id);
  for (const TupleId other : by) {
    if (other != id && RefDominates(data.RowPtr(other), row, data.dim())) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<TupleId> ReferenceSkyline(const Dataset& data) {
  const size_t n = data.size();
  const size_t d = data.dim();
  // Coordinate sums, added left to right. Rounding is monotone, so a
  // tuple's dominators never have a larger sum; they can have an equal
  // one, when rounding absorbs the difference. Rows whose sum is NaN (a
  // NaN coordinate, or +inf next to -inf) have no such order and are
  // checked by brute force below.
  std::vector<double> sum(n, 0.0);
  std::vector<TupleId> order;
  std::vector<TupleId> irregular;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TupleId>(i);
    const double* row = data.RowPtr(id);
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) {
      s += row[k];
    }
    sum[i] = s;
    (std::isnan(s) ? irregular : order).push_back(id);
  }
  std::sort(order.begin(), order.end(), [&sum](TupleId a, TupleId b) {
    return sum[a] != sum[b] ? sum[a] < sum[b] : a < b;
  });

  // Scan groups of equal sum in ascending order. Among these rows
  // dominance is transitive, so a tuple is dominated iff a skyline member
  // of a smaller sum dominates it, or a member of its own group that no
  // smaller-sum member dominates does.
  std::vector<TupleId> skyline;
  std::vector<double> skyline_rows;  // Row-major copies, for locality.
  std::vector<TupleId> survivors;
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin;
    while (end < order.size() && sum[order[end]] == sum[order[begin]]) {
      ++end;
    }
    survivors.clear();
    for (size_t p = begin; p < end; ++p) {
      const double* row = data.RowPtr(order[p]);
      bool dominated = false;
      for (size_t m = 0; m < skyline.size() && !dominated; ++m) {
        dominated = RefDominates(&skyline_rows[m * d], row, d);
      }
      if (!dominated) {
        survivors.push_back(order[p]);
      }
    }
    for (const TupleId id : survivors) {
      if (!DominatedByAny(data, survivors, id)) {
        skyline.push_back(id);
        const double* row = data.RowPtr(id);
        skyline_rows.insert(skyline_rows.end(), row, row + d);
      }
    }
    begin = end;
  }

  // The irregular rows: dominance through a NaN is not transitive, so
  // compare them against every row in both directions.
  std::vector<TupleId> result;
  for (const TupleId id : skyline) {
    if (!DominatedByAny(data, irregular, id)) {
      result.push_back(id);
    }
  }
  for (const TupleId id : irregular) {
    bool dominated = false;
    for (size_t i = 0; i < n && !dominated; ++i) {
      const auto other = static_cast<TupleId>(i);
      dominated =
          other != id && RefDominates(data.RowPtr(other), data.RowPtr(id), d);
    }
    if (!dominated) {
      result.push_back(id);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool SameIdSet(std::vector<TupleId> candidate, std::vector<TupleId> expected) {
  std::sort(candidate.begin(), candidate.end());
  std::sort(expected.begin(), expected.end());
  return candidate == expected;
}

std::string ExplainSkylineMismatch(const Dataset& data,
                                   const std::vector<TupleId>& candidate) {
  std::unordered_set<TupleId> seen;
  for (const TupleId id : candidate) {
    if (!seen.insert(id).second) {
      std::ostringstream os;
      os << "duplicate tuple id " << id << " in skyline output";
      return os.str();
    }
    if (id >= data.size()) {
      std::ostringstream os;
      os << "tuple id " << id << " out of range (dataset size "
         << data.size() << ")";
      return os.str();
    }
  }
  const std::vector<TupleId> expected = ReferenceSkyline(data);
  std::unordered_set<TupleId> expected_set(expected.begin(), expected.end());
  for (const TupleId id : candidate) {
    if (expected_set.find(id) == expected_set.end()) {
      std::ostringstream os;
      os << "tuple id " << id << " is dominated but reported in skyline";
      return os.str();
    }
  }
  if (candidate.size() != expected.size()) {
    std::ostringstream os;
    os << "skyline size mismatch: got " << candidate.size() << ", expected "
       << expected.size();
    return os.str();
  }
  return "";
}

}  // namespace skymr
