#include "src/cost/cost_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/math_util.h"

namespace skymr::cost {
namespace {

TEST(RemainingPartitionsTest, Equation5WorkedExample) {
  // Section 6: "the number of remaining partitions after pruning for the
  // 3x3 grid is 3^2 - 2^2 = 5".
  EXPECT_DOUBLE_EQ(RemainingPartitions(3, 2), 5.0);
  EXPECT_DOUBLE_EQ(RemainingPartitions(4, 3), 64.0 - 27.0);
  EXPECT_DOUBLE_EQ(RemainingPartitions(2, 10), 1024.0 - 1.0);
  EXPECT_DOUBLE_EQ(RemainingPartitions(1, 4), 1.0);
}

TEST(PartitionComparisonsTest, Equation6WorkedExample) {
  // Section 6: partition p2 has coordinates (1, 3) -> 1*3 - 1 = 2.
  const uint32_t p2[] = {1, 3};
  EXPECT_DOUBLE_EQ(PartitionComparisons(p2, 2), 2.0);
  const uint32_t origin[] = {1, 1, 1};
  EXPECT_DOUBLE_EQ(PartitionComparisons(origin, 3), 0.0);
  const uint32_t corner[] = {3, 3};
  EXPECT_DOUBLE_EQ(PartitionComparisons(corner, 2), 8.0);
}

TEST(KappaFullGridTest, ClosedFormMatchesDirectSum) {
  // kappa(n, d) = sum over all cells of (prod coords - 1) = B^d - n^d.
  for (const uint32_t n : {2u, 3u, 5u}) {
    for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
      double direct = 0.0;
      const uint64_t cells = PowU64(n, static_cast<uint32_t>(d));
      for (uint64_t cell = 0; cell < cells; ++cell) {
        uint64_t rest = cell;
        double product = 1.0;
        for (size_t k = 0; k < d; ++k) {
          product *= static_cast<double>(rest % n + 1);
          rest /= n;
        }
        direct += product - 1.0;
      }
      EXPECT_DOUBLE_EQ(KappaFullGrid(n, d), direct)
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(KappaSurfaceTest, ClosedFormMatchesLiteralSum) {
  for (const uint32_t n : {2u, 3u, 4u, 6u}) {
    for (const size_t d : {size_t{2}, size_t{3}, size_t{4}}) {
      for (size_t j = 1; j <= d; ++j) {
        EXPECT_DOUBLE_EQ(KappaSurface(n, d, j),
                         KappaSurfaceLiteral(n, d, j))
            << "n=" << n << " d=" << d << " j=" << j;
      }
    }
  }
}

TEST(KappaSurfaceTest, FirstSurfaceSimpleCase) {
  // 3x3, d=2, surface 1: cells (1,1), (2,1), (3,1) -> 0 + 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(KappaSurface(3, 2, 1), 3.0);
  // Surface 2 removes the overlap cell (1,1): cells (1,2), (1,3) -> 1 + 2.
  EXPECT_DOUBLE_EQ(KappaSurface(3, 2, 2), 3.0);
}

TEST(KappaSurfaceTest, OneDimensionalGridHasNoComparisons) {
  EXPECT_DOUBLE_EQ(KappaSurface(5, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(MapperCost(5, 1), 0.0);
  EXPECT_DOUBLE_EQ(ReducerCost(5, 1), 0.0);
}

TEST(MapperCostTest, Equation8SumsSurfaces) {
  for (const uint32_t n : {3u, 4u}) {
    for (const size_t d : {size_t{2}, size_t{3}}) {
      double total = 0.0;
      for (size_t j = 1; j <= d; ++j) {
        total += KappaSurface(n, d, j);
      }
      EXPECT_DOUBLE_EQ(MapperCost(n, d), total);
    }
  }
}

TEST(ReducerCostTest, Equation9IsBiggestSurface) {
  // The most loaded reducer handles the largest surface (no overlap
  // discount), which is kappa_1.
  EXPECT_DOUBLE_EQ(ReducerCost(3, 2), KappaSurface(3, 2, 1));
  for (const uint32_t n : {2u, 3u, 5u}) {
    for (const size_t d : {size_t{2}, size_t{3}, size_t{4}}) {
      for (size_t j = 1; j <= d; ++j) {
        EXPECT_GE(ReducerCost(n, d) + 1e-9, KappaSurface(n, d, j))
            << "surface " << j << " exceeds kappa_1";
      }
    }
  }
}

TEST(CostModelTest, MapperCostGrowsWithPpdAndDim) {
  EXPECT_LT(MapperCost(3, 3), MapperCost(4, 3));
  EXPECT_LT(MapperCost(3, 3), MapperCost(3, 4));
  EXPECT_LT(ReducerCost(3, 3), ReducerCost(4, 3));
}

TEST(CostModelTest, ReducerCostBelowMapperCostForMultiDim) {
  // A mapper covers all d surfaces; a GPMRS reducer only one.
  for (const size_t d : {size_t{2}, size_t{3}, size_t{5}}) {
    EXPECT_LT(ReducerCost(4, d), MapperCost(4, d));
  }
}

TEST(CostModelTest, LargeValuesFinite) {
  // Paper-scale n and d must not overflow (returned as double).
  const double v = MapperCost(64, 10);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(v, 0.0);
}

TEST(ExpectedMaximaTest, MatchesTheLiteralRecurrence) {
  // Newton's identities plus Euler-Maclaurin tails against the O(n d)
  // recurrence, across the direct-sum boundary (n = 64).
  for (const uint64_t n : {1u, 2u, 3u, 10u, 63u, 64u, 65u, 100u, 1000u,
                           20000u}) {
    for (size_t d = 1; d <= 10; ++d) {
      const double literal = ExpectedMaximaLiteral(n, d);
      EXPECT_NEAR(ExpectedMaxima(static_cast<double>(n), d), literal,
                  1e-9 * literal)
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(ExpectedMaximaTest, KnownValues) {
  // One point is its own skyline; in 1-d only the minimum survives; in
  // 2-d the expected skyline is the harmonic number H_n.
  EXPECT_DOUBLE_EQ(ExpectedMaxima(1.0, 6), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedMaxima(500.0, 1), 1.0);
  EXPECT_NEAR(ExpectedMaxima(4.0, 2), 1.0 + 0.5 + 1.0 / 3.0 + 0.25, 1e-12);
  // H(2, d) = 2 - 2^-(d-1): the second point is a maximum unless the
  // first dominates it.
  EXPECT_NEAR(ExpectedMaxima(2.0, 4), 2.0 - 0.125, 1e-12);
}

TEST(ExpectedMaximaTest, RoundsAndClamps) {
  EXPECT_DOUBLE_EQ(ExpectedMaxima(0.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedMaxima(0.3, 5), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedMaxima(9.6, 5), ExpectedMaxima(10.0, 5));
  // Never more maxima than points, and monotone in both n and d.
  for (size_t d = 2; d <= 12; ++d) {
    double previous = 0.0;
    for (const double n : {1.0, 2.0, 5.0, 50.0, 500.0, 5e4, 5e6}) {
      const double h = ExpectedMaxima(n, d);
      EXPECT_LE(h, n);
      EXPECT_GE(h, previous);
      EXPECT_GE(h, ExpectedMaxima(n, d - 1));
      previous = h;
    }
  }
}

}  // namespace
}  // namespace skymr::cost
