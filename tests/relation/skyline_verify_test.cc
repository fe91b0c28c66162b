#include "src/relation/skyline_verify.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"

namespace skymr {
namespace {

// The quadratic definition, kept here as the oracle ReferenceSkyline is
// checked against: a tuple is in the skyline iff no other tuple dominates
// it (min is better; a NaN coordinate compares neither way).
std::vector<TupleId> QuadraticSkyline(const Dataset& data) {
  const auto dominates = [&data](TupleId a, TupleId b) {
    bool strictly_better = false;
    for (size_t k = 0; k < data.dim(); ++k) {
      const double x = data.RowPtr(a)[k];
      const double y = data.RowPtr(b)[k];
      if (x > y) {
        return false;
      }
      strictly_better = strictly_better || x < y;
    }
    return strictly_better;
  };
  std::vector<TupleId> result;
  for (TupleId i = 0; i < data.size(); ++i) {
    bool dominated = false;
    for (TupleId j = 0; j < data.size() && !dominated; ++j) {
      dominated = i != j && dominates(j, i);
    }
    if (!dominated) {
      result.push_back(i);
    }
  }
  return result;
}

Dataset TwoDimExample() {
  // Skyline of these (min is better): ids 0 and 2.
  Dataset data(2);
  data.Append({0.1, 0.8});  // 0: skyline
  data.Append({0.5, 0.9});  // 1: dominated by 0 and 2
  data.Append({0.4, 0.2});  // 2: skyline
  data.Append({0.6, 0.3});  // 3: dominated by 2
  return data;
}

TEST(ReferenceSkylineTest, SimpleCase) {
  const Dataset data = TwoDimExample();
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0, 2}));
}

TEST(ReferenceSkylineTest, EmptyDataset) {
  Dataset data(2);
  EXPECT_TRUE(ReferenceSkyline(data).empty());
}

TEST(ReferenceSkylineTest, SingleTuple) {
  Dataset data(3);
  data.Append({0.5, 0.5, 0.5});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0}));
}

TEST(ReferenceSkylineTest, DuplicateTuplesAllKept) {
  Dataset data(2);
  data.Append({0.1, 0.1});
  data.Append({0.1, 0.1});
  data.Append({0.5, 0.5});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{0, 1}));
}

TEST(ReferenceSkylineTest, TotallyOrderedChainKeepsOnlyBest) {
  Dataset data(2);
  data.Append({0.3, 0.3});
  data.Append({0.2, 0.2});
  data.Append({0.1, 0.1});
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{2}));
}

TEST(ReferenceSkylineTest, MatchesQuadraticOracleOnGeneratedData) {
  for (const data::Distribution dist :
       {data::Distribution::kIndependent, data::Distribution::kCorrelated,
        data::Distribution::kAntiCorrelated,
        data::Distribution::kClustered}) {
    for (const size_t dim : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
      data::GeneratorConfig config;
      config.distribution = dist;
      config.cardinality = 700;
      config.dim = dim;
      config.seed = 11 + dim;
      const Dataset data = std::move(data::Generate(config)).value();
      EXPECT_EQ(ReferenceSkyline(data), QuadraticSkyline(data))
          << data::DistributionName(dist) << " d=" << dim;
    }
  }
}

TEST(ReferenceSkylineTest, MatchesQuadraticOracleWithDuplicates) {
  // Coordinates on four levels, so rows repeat and sums tie often.
  Rng rng(5);
  for (const size_t dim : {size_t{2}, size_t{3}, size_t{5}}) {
    Dataset data(dim);
    std::vector<double> row(dim);
    for (int i = 0; i < 600; ++i) {
      for (double& v : row) {
        v = static_cast<double>(rng.NextBounded(4)) * 0.25;
      }
      data.Append(row);
    }
    EXPECT_EQ(ReferenceSkyline(data), QuadraticSkyline(data)) << "d=" << dim;
  }
}

TEST(ReferenceSkylineTest, MatchesQuadraticOracleOnTieLattice) {
  // Every point of the {0..4}^3 lattice, twice, with the ids interleaved
  // so tied sums meet in both id orders.
  Dataset data(3);
  for (int copy = 0; copy < 2; ++copy) {
    for (int x = 4; x >= 0; --x) {
      for (int y = 0; y <= 4; ++y) {
        for (int z = 4; z >= 0; --z) {
          data.Append({static_cast<double>(x), static_cast<double>(y),
                       static_cast<double>(z)});
        }
      }
    }
  }
  EXPECT_EQ(ReferenceSkyline(data), QuadraticSkyline(data));
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{104, 229}));
}

TEST(ReferenceSkylineTest, DominatorWithAnEqualRoundedSum) {
  // 1e16 + 1.0 and 1e16 + 0.5 both round to 1e16: the sums tie, yet
  // tuple 1 dominates tuple 0. The dominator comes later in id order.
  Dataset data(2);
  data.Append({1e16, 1.0});
  data.Append({1e16, 0.5});
  ASSERT_EQ(1e16 + 1.0, 1e16 + 0.5);
  EXPECT_EQ(ReferenceSkyline(data), (std::vector<TupleId>{1}));
  EXPECT_EQ(QuadraticSkyline(data), (std::vector<TupleId>{1}));
}

TEST(ReferenceSkylineTest, MatchesQuadraticOracleWithNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Dataset data(2);
  data.Append({5.0, 0.0});
  data.Append({nan, 1.0});  // Dominates (1, 2) through dimension 1 only.
  data.Append({1.0, 2.0});
  data.Append({inf, -inf});  // NaN sum.
  data.Append({0.5, inf});
  data.Append({0.2, 3.0});
  data.Append({nan, nan});
  EXPECT_EQ(ReferenceSkyline(data), QuadraticSkyline(data));
}

TEST(SameIdSetTest, OrderInsensitive) {
  EXPECT_TRUE(SameIdSet({3, 1, 2}, {1, 2, 3}));
  EXPECT_FALSE(SameIdSet({1, 2}, {1, 2, 3}));
  EXPECT_FALSE(SameIdSet({1, 2, 4}, {1, 2, 3}));
  EXPECT_TRUE(SameIdSet({}, {}));
}

TEST(ExplainSkylineMismatchTest, AcceptsCorrectSkyline) {
  const Dataset data = TwoDimExample();
  EXPECT_EQ(ExplainSkylineMismatch(data, {2, 0}), "");
}

TEST(ExplainSkylineMismatchTest, RejectsDominatedTuple) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 1, 2});
  EXPECT_NE(msg.find("dominated"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsMissingTuple) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0});
  EXPECT_NE(msg.find("size mismatch"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsDuplicateIds) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 0});
  EXPECT_NE(msg.find("duplicate"), std::string::npos);
}

TEST(ExplainSkylineMismatchTest, RejectsOutOfRangeIds) {
  const Dataset data = TwoDimExample();
  const std::string msg = ExplainSkylineMismatch(data, {0, 99});
  EXPECT_NE(msg.find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace skymr
