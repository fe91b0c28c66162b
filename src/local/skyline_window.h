// SkylineWindow: the materialized local-skyline container shared by mappers
// and reducers, together with the paper's InsertTuple routine (Algorithm 4).
//
// A window owns its tuple values (flat row-major) plus the original tuple
// ids, so it can be serialized and shipped through the shuffle like the
// local skylines in the paper's Figures 4 and 5.
//
// Insert and RemoveDominatedBy run on the block dominance kernels
// (src/relation/dominance_kernel.h): one flat scan over the row-major
// storage classifies every window tuple against the candidate, and evicted
// rows are then removed in a replay of the original swap-remove sequence —
// the resulting row order and the reported comparison counts are identical
// to the scalar tuple-at-a-time implementation. Each row also carries its
// monotone coordinate-sum key (sums()), which lets RemoveDominatedBy and
// the reducer-side merges skip rows that provably cannot dominate.

#ifndef SKYMR_LOCAL_SKYLINE_WINDOW_H_
#define SKYMR_LOCAL_SKYLINE_WINDOW_H_

#include <cstddef>
#include <vector>

#include "src/common/serde.h"
#include "src/relation/dominance.h"
#include "src/relation/tuple.h"

namespace skymr {

/// A self-contained set of mutually non-dominated tuples.
class SkylineWindow {
 public:
  SkylineWindow() = default;
  explicit SkylineWindow(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  const double* RowAt(size_t i) const { return &values_[i * dim_]; }
  TupleId IdAt(size_t i) const { return ids_[i]; }

  /// Algorithm 4 (InsertTuple): adds `row` unless it is dominated by a
  /// window tuple; removes window tuples dominated by `row`. Equal tuples
  /// do not dominate each other, so duplicates are retained.
  /// Returns true when the tuple was added. `counter` (optional) accrues
  /// one unit per tuple-dominance test performed.
  bool Insert(const double* row, TupleId id, DominanceCounter* counter);

  /// Reserves room for `rows` tuples.
  void Reserve(size_t rows) {
    ids_.reserve(rows);
    values_.reserve(rows * dim_);
    sums_.reserve(rows);
  }

  /// Appends a tuple without any dominance check (caller guarantees the
  /// window invariant, e.g. when deserializing a valid window).
  void AppendUnchecked(const double* row, TupleId id);

  /// Removes every tuple of this window that is dominated by some tuple of
  /// `other` (the critical operation of Algorithm 5, line 3).
  void RemoveDominatedBy(const SkylineWindow& other, DominanceCounter* counter);

  /// Removes tuples at positions where `keep` is false.
  void Filter(const std::vector<bool>& keep);

  const std::vector<TupleId>& ids() const { return ids_; }
  const std::vector<double>& values() const { return values_; }

  /// Per-row monotone dominance keys (CoordinateSum of each row), kept in
  /// step with the rows. Not serialized: recomputed on deserialization.
  const std::vector<double>& sums() const { return sums_; }

  /// Exact wire size when shipped through the shuffle.
  size_t ByteSize() const {
    return sizeof(uint64_t) * 3 + values_.size() * sizeof(double) +
           ids_.size() * sizeof(TupleId);
  }

  bool operator==(const SkylineWindow& other) const {
    return dim_ == other.dim_ && ids_ == other.ids_ &&
           values_ == other.values_;
  }

 private:
  friend struct Serde<SkylineWindow>;

  /// Removes the rows at the given ascending positions, replaying the
  /// swap-remove-with-recheck order of the scalar eviction loop so the
  /// surviving rows end up in exactly the same positions.
  void EvictAscending(const std::vector<uint32_t>& evicted);

  /// Rebuilds sums_ from values_ (after deserialization).
  void RecomputeSums();

  size_t dim_ = 0;
  std::vector<TupleId> ids_;
  std::vector<double> values_;  // Row-major, ids_.size() * dim_.
  std::vector<double> sums_;    // Per-row CoordinateSum, ids_.size().
};

template <>
struct Serde<SkylineWindow> {
  static void Write(const SkylineWindow& window, ByteSink* sink) {
    sink->AppendRaw<uint64_t>(window.dim_);
    Serde<std::vector<TupleId>>::Write(window.ids_, sink);
    Serde<std::vector<double>>::Write(window.values_, sink);
  }
  static SkylineWindow Read(ByteSource* source) {
    SkylineWindow out;
    out.dim_ = static_cast<size_t>(source->ReadRaw<uint64_t>());
    out.ids_ = Serde<std::vector<TupleId>>::Read(source);
    out.values_ = Serde<std::vector<double>>::Read(source);
    // Shape invariant: values_ is row-major ids_.size() x dim_. A payload
    // that decodes but violates it (corrupt or adversarial bytes) would
    // turn every later RowAt into an out-of-bounds read, so reject it
    // here like any other truncation.
    const uint64_t rows = out.ids_.size();
    if ((out.dim_ == 0 && !out.values_.empty()) ||
        (out.dim_ != 0 && (rows > out.values_.size() / out.dim_ ||
                           out.values_.size() != rows * out.dim_))) {
      throw SerdeUnderflow(
          "serde underflow: window shape mismatch: " +
          std::to_string(rows) + " ids x dim " + std::to_string(out.dim_) +
          " vs " + std::to_string(out.values_.size()) + " values");
    }
    out.RecomputeSums();
    return out;
  }
};

}  // namespace skymr

#endif  // SKYMR_LOCAL_SKYLINE_WINDOW_H_
