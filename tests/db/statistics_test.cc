#include "db/statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "../test_util.h"
#include "util/random.h"

namespace seedb::db {
namespace {

TEST(ColumnStatsTest, NumericProfile) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.row_count, 4u);
  EXPECT_EQ(cs.distinct_count, 4u);
  EXPECT_EQ(cs.min, 1.0);
  EXPECT_EQ(cs.max, 4.0);
  EXPECT_DOUBLE_EQ(cs.mean, 2.5);
  EXPECT_DOUBLE_EQ(cs.variance, 1.25);
}

TEST(ColumnStatsTest, DiversityOfUniformColumn) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i % 4 == 0   ? "a"
                           : i % 4 == 1 ? "b"
                           : i % 4 == 2 ? "c"
                                        : "d")})
            .ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  // Uniform over 4 values: diversity = 1 - 4*(1/4)^2 = 0.75, entropy = 1.
  EXPECT_NEAR(cs.diversity, 0.75, 1e-9);
  EXPECT_NEAR(cs.normalized_entropy, 1.0, 1e-9);
}

TEST(ColumnStatsTest, DiversityOfConstantColumnIsZero) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.diversity, 0.0);
  EXPECT_EQ(cs.normalized_entropy, 0.0);
  EXPECT_EQ(cs.distinct_count, 1u);
}

TEST(ColumnStatsTest, NearConstantHasLowDiversity) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i < 97 ? "no" : "yes")}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_LT(cs.diversity, 0.06);
  EXPECT_GT(cs.diversity, 0.0);
}

TEST(ColumnStatsTest, NullsExcluded) {
  Schema schema({ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(4.0)}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.null_count, 1u);
  EXPECT_EQ(cs.distinct_count, 2u);
  EXPECT_DOUBLE_EQ(cs.mean, 3.0);
}

TEST(ColumnStatsTest, TopValuesSortedByCount) {
  Schema schema({ColumnDef::Dimension("d")});
  Table t(schema);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(t.AppendRow({Value("big")}).ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(t.AppendRow({Value("mid")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("small")}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  ASSERT_EQ(cs.top_values.size(), 3u);
  EXPECT_EQ(cs.top_values[0].first, Value("big"));
  EXPECT_EQ(cs.top_values[0].second, 5u);
  EXPECT_EQ(cs.top_values[1].first, Value("mid"));
  EXPECT_EQ(cs.top_values[2].first, Value("small"));
}

TEST(TableStatsTest, CoversAllColumnsAndFind) {
  Table t = ::seedb::testing::MakeTinyTable();
  TableStats stats = ComputeTableStats(t, "tiny");
  EXPECT_EQ(stats.table_name, "tiny");
  EXPECT_EQ(stats.num_rows, 6u);
  EXPECT_EQ(stats.columns.size(), 4u);
  EXPECT_TRUE(stats.Find("m1").ok());
  EXPECT_EQ((*stats.Find("m1"))->role, ColumnRole::kMeasure);
  EXPECT_FALSE(stats.Find("zzz").ok());
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(CramersVTest, PerfectlyCorrelatedColumns) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(3);
  const char* va[] = {"x", "y", "z"};
  const char* vb[] = {"X", "Y", "Z"};
  for (int i = 0; i < 300; ++i) {
    size_t k = rng.Uniform(3);
    ASSERT_TRUE(t.AppendRow({Value(va[k]), Value(vb[k])}).ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(CramersVTest, IndependentColumnsNearZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  Random rng(5);
  const char* vals[] = {"p", "q", "r", "s"};
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(vals[rng.Uniform(4)]),
                             Value(vals[rng.Uniform(4)])})
                    .ok());
  }
  double v = CramersV(t, "a", "b").ValueOrDie();
  EXPECT_LT(v, 0.05);
}

TEST(CramersVTest, DegenerateSingleValueColumnsGiveZero) {
  Schema schema(
      {ColumnDef::Dimension("a"), ColumnDef::Dimension("b")});
  Table t(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("only"), Value(i % 2 ? "u" : "v")}).ok());
  }
  EXPECT_EQ(CramersV(t, "a", "b").ValueOrDie(), 0.0);
}

TEST(CramersVTest, RejectsNumericDoubleColumns) {
  Table t = ::seedb::testing::MakeTinyTable();
  EXPECT_FALSE(CramersV(t, "d", "m1").ok());
}

TEST(CramersVTest, SymmetricInArguments) {
  Table t = ::seedb::testing::MakeTinyTable();
  double ab = CramersV(t, "d", "e").ValueOrDie();
  double ba = CramersV(t, "e", "d").ValueOrDie();
  EXPECT_NEAR(ab, ba, 1e-12);
}

// --- Linear ComputeColumnStats vs the original value-map algorithm. ---

// The algorithm ComputeColumnStats replaced, kept as the reference: distinct
// count and diversity/entropy from a raw-value frequency table, top values
// from a std::map<Value, size_t> over every boxed row.
ColumnStats ReferenceColumnStats(const Table& table, size_t col_index) {
  const Column& col = table.column(col_index);
  ColumnStats stats = ComputeColumnStats(table, col_index);  // numeric part
  std::vector<size_t> freqs;
  if (col.type() == ValueType::kString) {
    freqs.assign(col.dict_size(), 0);
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) ++freqs[col.codes()[i]];
    }
  } else if (col.type() == ValueType::kInt64) {
    std::unordered_map<int64_t, size_t> m;
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) ++m[col.int64_data()[i]];
    }
    for (const auto& [_, c] : m) freqs.push_back(c);
  } else {
    std::unordered_map<double, size_t> m;
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) ++m[col.double_data()[i]];
    }
    for (const auto& [_, c] : m) freqs.push_back(c);
  }
  freqs.erase(std::remove(freqs.begin(), freqs.end(), size_t{0}), freqs.end());
  stats.distinct_count = freqs.size();
  size_t total = 0;
  for (size_t f : freqs) total += f;
  stats.diversity = 0.0;
  stats.normalized_entropy = 0.0;
  if (total > 0) {
    double sum_p2 = 0.0;
    double entropy = 0.0;
    for (size_t f : freqs) {
      double p = static_cast<double>(f) / static_cast<double>(total);
      sum_p2 += p * p;
      entropy -= p * std::log(p);
    }
    stats.diversity = 1.0 - sum_p2;
    stats.normalized_entropy =
        freqs.size() > 1 ? entropy / std::log(static_cast<double>(freqs.size()))
                         : 0.0;
  }
  std::map<Value, size_t> counts;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) ++counts[col.GetValue(i)];
  }
  std::vector<std::pair<Value, size_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (sorted.size() > ColumnStats::kTopValues) {
    sorted.resize(ColumnStats::kTopValues);
  }
  stats.top_values = std::move(sorted);
  return stats;
}

// Seeded columns with nulls, many count ties, and +/-0.0 in both orders of
// first appearance; plus a wide double column past kTopValues distinct.
Table MakeStatsTable(uint64_t seed, size_t rows) {
  Schema schema({
      ColumnDef::Dimension("s"),
      ColumnDef::Dimension("i", ValueType::kInt64),
      ColumnDef::Measure("zeros"),
      ColumnDef::Measure("wide"),
      ColumnDef::Measure("ints", ValueType::kInt64),
  });
  Table t(schema);
  Random rng(seed);
  const bool neg_first = seed % 2 == 0;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value("v" + std::to_string(rng.UniformInt(0, 14))));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value(rng.UniformInt(-6, 6)));
    double z = static_cast<double>(rng.UniformInt(-2, 2));
    if (z == 0.0 && (r == 0 ? neg_first : rng.Bernoulli(0.5))) z = -0.0;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null() : Value(z));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value(std::round(rng.UniformDouble(-50, 50)) / 4.0));
    row.push_back(Value(rng.UniformInt(0, 3)));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

TEST(ColumnStatsTest, LinearProfileEqualsValueMapReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Table t = MakeStatsTable(seed, 200 + 97 * seed);
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const ColumnStats got = ComputeColumnStats(t, c);
      const ColumnStats want = ReferenceColumnStats(t, c);
      const std::string label =
          "seed " + std::to_string(seed) + " column " + got.name;
      EXPECT_EQ(got.distinct_count, want.distinct_count) << label;
      // Bitwise: the distribution sums run in the reference's order.
      EXPECT_EQ(got.diversity, want.diversity) << label;
      EXPECT_EQ(got.normalized_entropy, want.normalized_entropy) << label;
      ASSERT_EQ(got.top_values.size(), want.top_values.size()) << label;
      for (size_t k = 0; k < got.top_values.size(); ++k) {
        const Value& g = got.top_values[k].first;
        const Value& w = want.top_values[k].first;
        EXPECT_EQ(g.type(), w.type()) << label << " top " << k;
        EXPECT_EQ(g, w) << label << " top " << k;
        if (g.type() == ValueType::kDouble && w.type() == ValueType::kDouble) {
          // +0.0 and -0.0 count as one value, boxed as the first seen.
          EXPECT_EQ(std::signbit(g.AsDouble()), std::signbit(w.AsDouble()))
              << label << " top " << k;
        }
        EXPECT_EQ(got.top_values[k].second, want.top_values[k].second)
            << label << " top " << k;
      }
    }
  }
}

TEST(ColumnStatsTest, SignedZerosCountAsOneValueBoxedAsTheFirstSeen) {
  Schema schema({ColumnDef::Measure("z")});
  Table t(schema);
  for (double v : {-0.0, 0.0, 0.0, 1.0}) ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.distinct_count, 2u);
  ASSERT_EQ(cs.top_values.size(), 2u);
  EXPECT_TRUE(std::signbit(cs.top_values[0].first.AsDouble()));
  EXPECT_EQ(cs.top_values[0].second, 3u);
}

}  // namespace
}  // namespace seedb::db
