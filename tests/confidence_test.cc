// Tests for the completion-confidence machinery (Section 6) and the
// completion cache (Section 4.5).

#include <gtest/gtest.h>

#include "restore/cache.h"
#include "restore/confidence.h"
#include "storage/table.h"

namespace restore {
namespace {

TEST(ConfidenceTest, CertaintyZeroWhenModelEqualsMarginal) {
  std::vector<float> p_model{0.3f, 0.7f};
  std::vector<double> p_incomplete{0.3, 0.7};
  EXPECT_NEAR(PredictionCertainty(p_model, p_incomplete), 0.0, 1e-6);
}

TEST(ConfidenceTest, CertaintyGrowsWithDivergence) {
  std::vector<double> marginal{0.5, 0.5};
  const double weak = PredictionCertainty({0.6f, 0.4f}, marginal);
  const double strong = PredictionCertainty({0.99f, 0.01f}, marginal);
  EXPECT_GT(strong, weak);
  EXPECT_GT(weak, 0.0);
  EXPECT_LT(strong, 1.0);
}

TEST(ConfidenceTest, CountIntervalContainsPointAndTheoreticalBounds) {
  // 10 existing tuples, 4 with the value; 6 synthesized with varying
  // confidence.
  std::vector<std::vector<float>> probs(6, {0.8f, 0.2f});
  std::vector<double> marginal{0.4, 0.6};
  ConfidenceInterval ci =
      CountFractionInterval(probs, marginal, 0, 4, 10, 0.95);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_GE(ci.lower, ci.theoretical_min - 1e-9);
  EXPECT_LE(ci.upper, ci.theoretical_max + 1e-9);
  // theoretical bounds: (4+0)/16 and (4+6)/16.
  EXPECT_NEAR(ci.theoretical_min, 4.0 / 16.0, 1e-12);
  EXPECT_NEAR(ci.theoretical_max, 10.0 / 16.0, 1e-12);
}

TEST(ConfidenceTest, CertainModelGivesTighterCountInterval) {
  std::vector<double> marginal{0.5, 0.5};
  std::vector<std::vector<float>> uncertain(8, {0.5f, 0.5f});
  std::vector<std::vector<float>> certain(8, {0.97f, 0.03f});
  ConfidenceInterval wide =
      CountFractionInterval(uncertain, marginal, 0, 5, 10, 0.95);
  ConfidenceInterval tight =
      CountFractionInterval(certain, marginal, 0, 5, 10, 0.95);
  EXPECT_LT(tight.upper - tight.lower, wide.upper - wide.lower);
}

TEST(ConfidenceTest, NoSynthesizedTuplesCollapsesInterval) {
  ConfidenceInterval ci = CountFractionInterval({}, {0.5, 0.5}, 0, 5, 10);
  EXPECT_DOUBLE_EQ(ci.lower, ci.upper);
  EXPECT_DOUBLE_EQ(ci.point, 0.5);
}

TEST(ConfidenceTest, AvgIntervalBoundsScaleWithCertainty) {
  std::vector<double> code_means{10.0, 20.0, 30.0};
  std::vector<double> marginal{0.33, 0.34, 0.33};
  std::vector<std::vector<float>> uncertain(5, {0.33f, 0.34f, 0.33f});
  std::vector<std::vector<float>> certain(5, {0.02f, 0.96f, 0.02f});
  ConfidenceInterval wide =
      AvgInterval(uncertain, marginal, code_means, 100.0, 5, 0.95);
  ConfidenceInterval tight =
      AvgInterval(certain, marginal, code_means, 100.0, 5, 0.95);
  EXPECT_LT(tight.upper - tight.lower, wide.upper - wide.lower);
  EXPECT_LE(wide.lower, wide.point);
  EXPECT_GE(wide.upper, wide.point);
  EXPECT_GE(wide.lower, wide.theoretical_min - 1e-9);
  EXPECT_LE(wide.upper, wide.theoretical_max + 1e-9);
}

Table MakeJoined(const std::string& name, int rows) {
  Table t(name, {{"x", ColumnType::kInt64}});
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int64(i)}).ok());
  }
  return t;
}

TEST(CompletionCacheTest, ExactHitAndMiss) {
  CompletionCache cache;
  cache.Put({"a", "b"}, MakeJoined("ab", 3));
  EXPECT_NE(cache.GetExact({"a", "b"}), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CompletionCacheTest, PutOverwritesSameKey) {
  CompletionCache cache;
  cache.Put({"a"}, MakeJoined("v1", 1));
  cache.Put({"a"}, MakeJoined("v2", 2));
  std::shared_ptr<const Table> hit = cache.GetExact({"a"});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->NumRows(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace restore
