// Harness: differential testing of CompareAllPartitions (Algorithm 5)
// against the all-pairs reference scan.
//
// The fuzz input is byte-sliced into a grid (dimension, partitions per
// dimension up to a fine 1-d or 2-d grid) and a reducer-side window map:
// cells drawn by index (repeats merge into one window), windows that stay
// empty, exact duplicates, and an optional coarse value lattice forcing
// ties. The prefix-bitset enumeration must return the reference's pair
// count and dominance-test total and leave every window with the
// reference's id sequence, both serially and in level order on a
// 2-thread pool. Any divergence aborts.
//
// Field consumption order is load-bearing: fuzz/gen_seed_corpus.cc
// writes seed inputs by appending fields in exactly the order consumed
// here. Keep the two in sync.

#include <cstdint>
#include <vector>

#include "fuzz/fuzz_common.h"
#include "src/common/thread_pool.h"
#include "src/core/compare_partitions.h"
#include "tests/core/compare_partitions_reference.h"

namespace {

using skymr::fuzz::FuzzInput;

// Largest ppd per dimension (index = dim): fine grids for d <= 2, and at
// most 4096 cells beyond.
constexpr uint64_t kMaxPpd[] = {0, 4096, 1024, 16, 8, 5};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 4096) {
    return 0;  // A few dozen windows already cover the enumeration.
  }
  FuzzInput input(data, size);

  const size_t dim = static_cast<size_t>(input.ConsumeIntegralInRange(1, 5));
  const auto ppd =
      static_cast<uint32_t>(input.ConsumeIntegralInRange(1, kMaxPpd[dim]));
  // lattice > 0 snaps in-cell offsets to lattice levels: exact ties.
  const uint64_t lattice = input.ConsumeIntegralInRange(0, 4);
  const size_t draws = static_cast<size_t>(input.ConsumeIntegralInRange(0, 48));

  auto grid = skymr::core::Grid::Create(dim, ppd,
                                        skymr::Bounds::UnitCube(dim));
  SKYMR_FUZZ_ASSERT(grid.ok());
  skymr::core::CellWindowMap windows;
  std::vector<uint32_t> coords(dim);
  std::vector<double> row(dim);
  skymr::TupleId next_id = 0;
  for (size_t w = 0; w < draws; ++w) {
    const skymr::core::CellId cell =
        input.ConsumeIntegralInRange(0, grid->num_cells() - 1);
    skymr::SkylineWindow& window =
        windows.try_emplace(cell, skymr::SkylineWindow(dim)).first->second;
    grid->CoordsOf(cell, coords.data());
    const uint64_t tuples = input.ConsumeIntegralInRange(0, 6);  // 0: empty.
    for (uint64_t t = 0; t < tuples; ++t) {
      if (input.ConsumeBool() && !window.empty()) {
        const size_t src = static_cast<size_t>(
            input.ConsumeIntegralInRange(0, window.size() - 1));
        row.assign(window.RowAt(src), window.RowAt(src) + dim);
      } else {
        for (size_t a = 0; a < dim; ++a) {
          const double offset =
              lattice > 0
                  ? static_cast<double>(input.ConsumeRaw<uint8_t>() %
                                        lattice) /
                        static_cast<double>(lattice)
                  : input.ConsumeUnitDouble();
          row[a] = (coords[a] + offset) / ppd;
        }
      }
      window.Insert(row.data(), next_id++, nullptr);
    }
  }

  skymr::core::CellWindowMap expected = windows;
  skymr::DominanceCounter expected_tests;
  const uint64_t expected_pairs = skymr::core::ReferenceCompareAllPartitions(
      *grid, &expected, &expected_tests);

  static skymr::ThreadPool pool(2);
  for (skymr::ThreadPool* with : {static_cast<skymr::ThreadPool*>(nullptr),
                                  &pool}) {
    skymr::core::CellWindowMap actual = windows;
    skymr::DominanceCounter actual_tests;
    const uint64_t actual_pairs = skymr::core::CompareAllPartitions(
        *grid, &actual, &actual_tests, with);

    SKYMR_FUZZ_ASSERT(actual_pairs == expected_pairs);
    SKYMR_FUZZ_ASSERT(actual_tests.count() == expected_tests.count());
    SKYMR_FUZZ_ASSERT(actual.size() == expected.size());
    for (auto a = actual.begin(), e = expected.begin(); a != actual.end();
         ++a, ++e) {
      SKYMR_FUZZ_ASSERT(a->first == e->first);
      SKYMR_FUZZ_ASSERT(a->second.ids() == e->second.ids());
      SKYMR_FUZZ_ASSERT(a->second == e->second);
    }
  }
  return 0;
}
