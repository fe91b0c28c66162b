#include "src/core/ppd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/math_util.h"

namespace skymr::core {
namespace {

TEST(CandidatePpdsTest, SeriesRunsFrom2ToNm) {
  PpdOptions options;
  // c = 10^6, d = 2 -> n_m = 1000, capped at max_candidate = 64.
  const std::vector<uint32_t> candidates =
      CandidatePpds(1000000, 2, options);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates.front(), 2u);
  EXPECT_EQ(candidates.back(), 64u);
  EXPECT_EQ(candidates.size(), 63u);
}

TEST(CandidatePpdsTest, NmBoundsSeriesForHighDim) {
  PpdOptions options;
  // c = 2*10^6, d = 10 -> n_m = floor(c^0.1) = 4.
  const std::vector<uint32_t> candidates =
      CandidatePpds(2000000, 10, options);
  EXPECT_EQ(candidates, (std::vector<uint32_t>{2, 3, 4}));
}

TEST(CandidatePpdsTest, CellBudgetTruncates) {
  PpdOptions options;
  options.max_cells = 1000;  // 2^10 = 1024 > 1000 for d = 10...
  const std::vector<uint32_t> candidates =
      CandidatePpds(2000000, 10, options);
  EXPECT_TRUE(candidates.empty());  // Even PPD 2 busts the budget.

  options.max_cells = 100000;  // 3^10 = 59049 fits, 4^10 doesn't.
  const std::vector<uint32_t> c2 = CandidatePpds(2000000, 10, options);
  EXPECT_EQ(c2, (std::vector<uint32_t>{2, 3}));
}

TEST(CandidatePpdsTest, TinyCardinalityFallsBackToPpd2) {
  PpdOptions options;
  // c = 3 < 2^2: n_m = 1, so the series would be empty.
  const std::vector<uint32_t> candidates = CandidatePpds(3, 2, options);
  EXPECT_EQ(candidates, (std::vector<uint32_t>{2}));
}

TEST(CandidatePpdsTest, ExplicitPpdShortCircuits) {
  PpdOptions options;
  options.explicit_ppd = 7;
  EXPECT_EQ(CandidatePpds(1000000, 2, options),
            (std::vector<uint32_t>{7}));
}

TEST(SelectPpdTest, PaperLiteralPicksFinestFullyOccupiedGrid) {
  PpdOptions options;
  options.strategy = PpdStrategy::kPaperLiteral;
  // Occupancies: PPD 2 and 3 fully occupied (diff 0), PPD 4 has empties.
  const std::vector<PpdOccupancy> occupancies = {
      {2, 4}, {3, 9}, {4, 12}};
  EXPECT_EQ(SelectPpd(options, 1000, 2, occupancies), 3u);
}

TEST(SelectPpdTest, PaperLiteralArgminWhenNoExactTie) {
  PpdOptions options;
  options.strategy = PpdStrategy::kPaperLiteral;
  // c=1000, d=2. PPD 2: rho=3 -> |333.3-250|=83.3.
  // PPD 3: rho=8 -> |125-111.1|=13.9. PPD 4: rho=10 -> |100-62.5|=37.5.
  const std::vector<PpdOccupancy> occupancies = {{2, 3}, {3, 8}, {4, 10}};
  EXPECT_EQ(SelectPpd(options, 1000, 2, occupancies), 3u);
}

TEST(SelectPpdTest, ZeroCardinalityPicksFirst) {
  for (const PpdStrategy strategy :
       {PpdStrategy::kPaperLiteral, PpdStrategy::kCost}) {
    PpdOptions options;
    options.strategy = strategy;
    const std::vector<PpdOccupancy> occupancies = {{2, 0}, {3, 0}};
    EXPECT_EQ(SelectPpd(options, 0, 2, occupancies), 2u);
  }
}

TEST(SelectPpdTest, EmptyOccupancyRhoTreatedAsWorst) {
  PpdOptions options;
  options.strategy = PpdStrategy::kCost;
  const std::vector<PpdOccupancy> occupancies = {{2, 0}, {3, 20}};
  EXPECT_EQ(SelectPpd(options, 1000, 2, occupancies), 3u);
  EXPECT_EQ(EstimateGridWork(1000, 2, 2, 0),
            std::numeric_limits<double>::infinity());
}

TEST(SelectPpdTest, SingleCandidateAlwaysWins) {
  for (const PpdStrategy strategy :
       {PpdStrategy::kPaperLiteral, PpdStrategy::kCost}) {
    PpdOptions options;
    options.strategy = strategy;
    const std::vector<PpdOccupancy> occupancies = {{5, 100}};
    EXPECT_EQ(SelectPpd(options, 12345, 3, occupancies), 5u);
  }
}

TEST(PpdStrategyTest, Names) {
  EXPECT_STREQ(PpdStrategyName(PpdStrategy::kPaperLiteral),
               "paper-literal");
  EXPECT_STREQ(PpdStrategyName(PpdStrategy::kCost), "cost");
}

TEST(PpdStrategyTest, CostIsTheDefault) {
  EXPECT_EQ(PpdOptions{}.strategy, PpdStrategy::kCost);
}

// Occupancy vectors measured by the bitstring job on the skymr-e2e
// workloads' data (seed 42): 300k independent and 100k anti-correlated
// tuples in 6 dimensions, and 100k anti-correlated tuples in 8.
const std::vector<PpdOccupancy> kIndep6 = {
    {2, 64},     {3, 729},     {4, 4096},  {5, 15625},
    {6, 46598},  {7, 108494},  {8, 178490}};
const std::vector<PpdOccupancy> kAnti6 = {
    {2, 64}, {3, 708}, {4, 3596}, {5, 11810}, {6, 28736}};
const std::vector<PpdOccupancy> kAnti8 = {{2, 256}, {3, 5878}, {4, 37173}};

TEST(SelectPpdTest, CostRulePicksThreeOnTheE2eWorkloads) {
  const PpdOptions options;  // kCost
  EXPECT_EQ(SelectPpd(options, 300000, 6, kIndep6), 3u);
  EXPECT_EQ(SelectPpd(options, 100000, 6, kAnti6), 3u);
  EXPECT_EQ(SelectPpd(options, 100000, 8, kAnti8), 3u);
}

TEST(SelectPpdTest, PaperRuleStillPicksItsOwnGrids) {
  // The same vectors under the paper's rule: the finest fully occupied
  // grid on independent data, PPD 2 where occupancy falls short.
  PpdOptions options;
  options.strategy = PpdStrategy::kPaperLiteral;
  EXPECT_EQ(SelectPpd(options, 300000, 6, kIndep6), 5u);
  EXPECT_EQ(SelectPpd(options, 100000, 6, kAnti6), 2u);
  EXPECT_EQ(SelectPpd(options, 100000, 8, kAnti8), 2u);
}

TEST(SelectPpdTest, CostRuleIsAPureFunction) {
  const PpdOptions options;
  const uint32_t first = SelectPpd(options, 300000, 6, kIndep6);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(SelectPpd(options, 300000, 6, kIndep6), first);
  }
  EXPECT_EQ(EstimateGridWork(300000, 6, 3, 729),
            EstimateGridWork(300000, 6, 3, 729));
}

TEST(SelectPpdTest, CostRuleHandlesOneTuplePerCell) {
  // rho = c: every non-empty cell holds a single tuple, whose window is
  // itself. The score stays finite and the selection well defined.
  const std::vector<PpdOccupancy> occupancies = {{2, 4}, {3, 9}, {4, 16}};
  const double work = EstimateGridWork(16, 2, 4, 16);
  EXPECT_TRUE(std::isfinite(work));
  EXPECT_GT(work, 0.0);
  const uint32_t ppd = SelectPpd(PpdOptions{}, 16, 2, occupancies);
  EXPECT_GE(ppd, 2u);
  EXPECT_LE(ppd, 4u);
}

TEST(SelectPpdTest, CostRuleHandlesASingleOccupiedCell) {
  // rho = 1 on every candidate: all tuples share one cell, so the extra
  // cells of a finer grid buy nothing and the coarsest grid wins.
  const std::vector<PpdOccupancy> occupancies = {{2, 1}, {3, 1}, {4, 1}};
  EXPECT_EQ(SelectPpd(PpdOptions{}, 5000, 3, occupancies), 2u);
}

TEST(SelectPpdTest, CostRulePrefersFinerGridsForLargerCells) {
  // Same dimensionality, 10x the tuples and a fully occupied series: the
  // expected window grows with the tuples per cell, so the selected grid
  // can only get finer.
  const std::vector<PpdOccupancy> full = {
      {2, 16}, {3, 81}, {4, 256}, {5, 625}, {6, 1296}, {7, 2401}};
  const PpdOptions options;
  EXPECT_LE(SelectPpd(options, 20000, 4, full),
            SelectPpd(options, 200000, 4, full));
}

TEST(CandidatePpdsTest, Equation4Consistency) {
  // Equation 4: n = (c / TPP)^(1/d). With TPP = 1 the candidate ceiling
  // n_m = floor(c^(1/d)) must satisfy n_m^d <= c.
  PpdOptions options;
  options.max_candidate = 1000000;
  options.max_cells = uint64_t{1} << 40;
  for (const uint64_t c : {100u, 5000u, 250000u}) {
    for (const size_t d : {size_t{2}, size_t{3}, size_t{5}}) {
      const auto candidates = CandidatePpds(c, d, options);
      ASSERT_FALSE(candidates.empty());
      const uint64_t nm = candidates.back();
      if (nm > 2) {
        EXPECT_LE(PowU64(nm, static_cast<uint32_t>(d)), c);
        EXPECT_GT(PowU64(nm + 1, static_cast<uint32_t>(d)), c);
      }
    }
  }
}

}  // namespace
}  // namespace skymr::core
