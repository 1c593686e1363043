#include "db/aggregates.h"

#include <gtest/gtest.h>

#include <vector>

namespace seedb::db {
namespace {

TEST(AggStateTest, AccumulatesAllStatistics) {
  AggState s;
  for (double v : {4.0, 1.0, 7.0}) s.Add(v);
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount), 3.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kSum), 12.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kAvg), 4.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kMin), 1.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kMax), 7.0);
}

TEST(AggStateTest, EmptyFinalizesSafely) {
  AggState s;
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount), 0.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kSum), 0.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kAvg), 0.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kMin), 0.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kMax), 0.0);
}

TEST(AggStateTest, CountOnlyIgnoresValueStats) {
  AggState s;
  s.AddCountOnly();
  s.AddCountOnly();
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount), 2.0);
  EXPECT_EQ(s.Finalize(AggregateFunction::kSum), 0.0);
}

TEST(AggStateTest, MergeCombines) {
  AggState a, b;
  a.Add(1.0);
  a.Add(5.0);
  b.Add(3.0);
  b.Add(-2.0);
  a.Merge(b);
  EXPECT_EQ(a.Finalize(AggregateFunction::kCount), 4.0);
  EXPECT_EQ(a.Finalize(AggregateFunction::kSum), 7.0);
  EXPECT_EQ(a.Finalize(AggregateFunction::kMin), -2.0);
  EXPECT_EQ(a.Finalize(AggregateFunction::kMax), 5.0);
}

TEST(AggregateFunctionTest, SqlNamesRoundTrip) {
  for (AggregateFunction f : AllAggregateFunctions()) {
    auto parsed = ParseAggregateFunction(AggregateFunctionToSql(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), f);
  }
}

TEST(AggregateFunctionTest, ParseIsCaseInsensitive) {
  EXPECT_EQ(ParseAggregateFunction("sum").ValueOrDie(),
            AggregateFunction::kSum);
  EXPECT_EQ(ParseAggregateFunction("Avg").ValueOrDie(),
            AggregateFunction::kAvg);
  EXPECT_EQ(ParseAggregateFunction("mean").ValueOrDie(),
            AggregateFunction::kAvg);
  EXPECT_FALSE(ParseAggregateFunction("median").ok());
}

TEST(AggregateSpecTest, EffectiveNameDerivation) {
  EXPECT_EQ(AggregateSpec::Make(AggregateFunction::kSum, "amount")
                .EffectiveName(),
            "SUM(amount)");
  EXPECT_EQ(AggregateSpec::Count().EffectiveName(), "COUNT(*)");
  EXPECT_EQ(
      AggregateSpec::Make(AggregateFunction::kAvg, "x", "my_avg")
          .EffectiveName(),
      "my_avg");
}

TEST(AggregateSpecTest, ToSqlWithFilterAndAlias) {
  PredicatePtr filter(Eq("product", Value("Laserwave")));
  AggregateSpec spec = AggregateSpec::Make(AggregateFunction::kSum, "amount",
                                           "target", filter);
  EXPECT_EQ(spec.ToSql(),
            "SUM(amount) FILTER (WHERE product = 'Laserwave') AS target");
}

TEST(AggregateSpecTest, ToSqlPlain) {
  EXPECT_EQ(AggregateSpec::Make(AggregateFunction::kMax, "m").ToSql(),
            "MAX(m)");
  EXPECT_EQ(AggregateSpec::Count("n").ToSql(), "COUNT(*) AS n");
}

// Payload planning: full payloads in first-use order, then count-only ones;
// a COUNT rides on a full payload of its input under the same FILTER object
// wherever it sits in the list; FILTERs match by object, not by text.
TEST(AggPayloadPlanTest, CountsRideOnFullPayloadsOfTheSameInputAndFilter) {
  PredicatePtr target(Eq("product", Value("Laserwave")));
  PredicatePtr same_text(Eq("product", Value("Laserwave")));
  const std::vector<AggregateSpec> aggs = {
      AggregateSpec::Make(AggregateFunction::kCount, "m", "c_m_t", target),
      AggregateSpec::Make(AggregateFunction::kSum, "m", "s_m_t", target),
      AggregateSpec::Make(AggregateFunction::kAvg, "m", "a_m"),
      AggregateSpec::Make(AggregateFunction::kMax, "m", "x_m_t", target),
      AggregateSpec::Count("n"),
      AggregateSpec::Make(AggregateFunction::kCount, "k", "c_k"),
      AggregateSpec::Make(AggregateFunction::kMin, "m", "i_m_o", same_text),
      AggregateSpec::Make(AggregateFunction::kCount, "m", "c_m"),
  };
  const AggPayloadPlan plan = PlanAggPayloads(aggs);
  ASSERT_EQ(plan.payloads.size(), 5u);
  // Full: (m, target) from spec 1, (m, none) from 2, (m, same_text) from 6.
  EXPECT_EQ(plan.payloads[0].spec, 1u);
  EXPECT_EQ(plan.payloads[1].spec, 2u);
  EXPECT_EQ(plan.payloads[2].spec, 6u);
  // Count-only: COUNT(*) and COUNT(k), which have no full payload.
  EXPECT_EQ(plan.payloads[3].spec, 4u);
  EXPECT_EQ(plan.payloads[4].spec, 5u);
  for (size_t p = 0; p < plan.payloads.size(); ++p) {
    EXPECT_EQ(plan.payloads[p].count_only, p >= 3) << p;
  }
  EXPECT_EQ(plan.payload_of,
            (std::vector<size_t>{0, 0, 1, 0, 3, 4, 2, 1}));
}

}  // namespace
}  // namespace seedb::db
