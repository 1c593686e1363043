#include "db/predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/random.h"

#include "../test_util.h"

namespace seedb::db {
namespace {

using ::seedb::testing::MakeTinyTable;

size_t CountMask(const std::vector<uint8_t>& mask) {
  return static_cast<size_t>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));
}

TEST(PredicateTest, StringEquality) {
  Table t = MakeTinyTable();
  auto p = Eq("d", Value("a"));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 3u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(mask[r] == 1, t.ValueAt(r, 0) == Value("a"));
  }
}

TEST(PredicateTest, NumericComparisons) {
  Table t = MakeTinyTable();
  struct Case {
    std::unique_ptr<Predicate> pred;
    size_t expected;
  };
  EXPECT_EQ([&] {
    std::vector<uint8_t> m;
    (void)Gt("m1", Value(3.0))->EvaluateMask(t, &m);
    return CountMask(m);
  }(), 3u);  // 4, 5, 6
  EXPECT_EQ([&] {
    std::vector<uint8_t> m;
    (void)Le("m1", Value(2.0))->EvaluateMask(t, &m);
    return CountMask(m);
  }(), 2u);  // 1, 2
  EXPECT_EQ([&] {
    std::vector<uint8_t> m;
    (void)Ne("m1", Value(1.0))->EvaluateMask(t, &m);
    return CountMask(m);
  }(), 5u);
}

TEST(PredicateTest, RowMatchesAgreesWithMask) {
  Table t = MakeTinyTable();
  auto p = And(Eq("d", Value("a")), Gt("m1", Value(1.5)));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(p->Matches(t, r), mask[r] == 1) << "row " << r;
  }
}

TEST(PredicateTest, InPredicate) {
  Table t = MakeTinyTable();
  auto p = In("e", {Value("x"), Value("zzz")});
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 3u);  // rows with e == "x"
}

TEST(PredicateTest, InRejectsEmptyList) {
  Table t = MakeTinyTable();
  auto p = In("e", {});
  EXPECT_EQ(p->Validate(t.schema()).code(), StatusCode::kInvalidArgument);
}

TEST(PredicateTest, BetweenInclusive) {
  Table t = MakeTinyTable();
  auto p = Between("m1", Value(2.0), Value(4.0));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 3u);  // 2, 3, 4
}

TEST(PredicateTest, AndOrNot) {
  Table t = MakeTinyTable();
  std::vector<uint8_t> mask;

  auto both = And(Eq("d", Value("a")), Eq("e", Value("x")));
  ASSERT_TRUE(both->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 2u);

  auto either = Or(Eq("d", Value("a")), Eq("e", Value("x")));
  ASSERT_TRUE(either->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 4u);

  auto negated = Not(Eq("d", Value("a")));
  ASSERT_TRUE(negated->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), 3u);
}

TEST(PredicateTest, TrueMatchesEverything) {
  Table t = MakeTinyTable();
  std::vector<uint8_t> mask;
  ASSERT_TRUE(True()->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(CountMask(mask), t.num_rows());
}

TEST(PredicateTest, NullCellsNeverMatchComparisons) {
  Schema schema({ColumnDef::Dimension("d"), ColumnDef::Measure("m")});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("a"), Value::Null()}).ok());
  std::vector<uint8_t> mask;

  ASSERT_TRUE(Eq("d", Value("a"))->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 1}));

  ASSERT_TRUE(Ne("d", Value("a"))->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(mask[0], 0);  // null != 'a' is still false (2VL)

  ASSERT_TRUE(Gt("m", Value(0.0))->EvaluateMask(t, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 0}));
}

TEST(PredicateTest, ValidateCatchesMissingColumn) {
  Table t = MakeTinyTable();
  EXPECT_EQ(Eq("nope", Value(1))->Validate(t.schema()).code(),
            StatusCode::kNotFound);
}

TEST(PredicateTest, ValidateCatchesTypeMismatch) {
  Table t = MakeTinyTable();
  EXPECT_FALSE(Eq("d", Value(1))->Validate(t.schema()).ok());
  EXPECT_FALSE(Gt("m1", Value("x"))->Validate(t.schema()).ok());
  EXPECT_FALSE(Eq("d", Value::Null())->Validate(t.schema()).ok());
}

TEST(PredicateTest, ToSqlForms) {
  EXPECT_EQ(Eq("a", Value("x"))->ToSql(), "a = 'x'");
  EXPECT_EQ(Lt("m", Value(5))->ToSql(), "m < 5");
  EXPECT_EQ(In("a", {Value(1), Value(2)})->ToSql(), "a IN (1, 2)");
  EXPECT_EQ(Between("m", Value(1), Value(2))->ToSql(), "m BETWEEN 1 AND 2");
  EXPECT_EQ(And(Eq("a", Value("x")), Gt("m", Value(1)))->ToSql(),
            "(a = 'x' AND m > 1)");
  EXPECT_EQ(Not(True())->ToSql(), "NOT (TRUE)");
}

TEST(PredicateTest, CloneIsDeepAndEquivalent) {
  Table t = MakeTinyTable();
  auto p = Or(And(Eq("d", Value("a")), Gt("m1", Value(2.0))),
              Between("m2", Value(30.0), Value(50.0)));
  auto clone = p->Clone();
  std::vector<uint8_t> m1, m2;
  ASSERT_TRUE(p->EvaluateMask(t, &m1).ok());
  ASSERT_TRUE(clone->EvaluateMask(t, &m2).ok());
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(p->ToSql(), clone->ToSql());
}

TEST(PredicateTest, CollectColumns) {
  auto p = And(Eq("a", Value("x")), Or(Gt("m", Value(1)), Eq("a", Value("y"))));
  std::vector<std::string> cols;
  p->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "m", "a"}));
}

// Parameterized sweep: every operator against the dictionary fast path and
// the numeric path must agree with row-at-a-time Matches.
class CompareOpTest : public ::testing::TestWithParam<CompareOp> {};

TEST_P(CompareOpTest, MaskAgreesWithMatchesOnStrings) {
  Table t = MakeTinyTable();
  ComparisonPredicate p("d", GetParam(), Value("b"));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p.EvaluateMask(t, &mask).ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(p.Matches(t, r), mask[r] == 1) << "row " << r;
  }
}

TEST_P(CompareOpTest, MaskAgreesWithMatchesOnNumerics) {
  Table t = MakeTinyTable();
  ComparisonPredicate p("m1", GetParam(), Value(3.0));
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p.EvaluateMask(t, &mask).ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(p.Matches(t, r), mask[r] == 1) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, CompareOpTest,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

// --- Typed EvaluateMask vs row-at-a-time Matches, seeded. ---
//
// Columns: i (int64, small range plus values beyond 2^53 where the int64
// and double domains disagree), f (double with NaN, +/-0.0 and integral
// values), s (string); every column carries nulls.
Table MakeMixedTable(uint64_t seed, size_t rows) {
  Schema schema({
      ColumnDef::Dimension("i", ValueType::kInt64),
      ColumnDef::Measure("f"),
      ColumnDef::Dimension("s"),
  });
  Table t(schema);
  Random rng(seed);
  const char* kStrings[] = {"", "a", "ab", "b", "ba", "c", "zz"};
  constexpr int64_t kBig = int64_t{1} << 53;
  for (size_t r = 0; r < rows; ++r) {
    Value i = rng.Bernoulli(0.1) ? Value::Null()
              : rng.Bernoulli(0.1)
                  ? Value(kBig + static_cast<int64_t>(rng.Uniform(4)))
                  : Value(rng.UniformInt(-5, 5));
    Value f;
    switch (rng.Uniform(8)) {
      case 0:
        f = Value::Null();
        break;
      case 1:
        f = Value(std::numeric_limits<double>::quiet_NaN());
        break;
      case 2:
        f = Value(rng.Bernoulli(0.5) ? 0.0 : -0.0);
        break;
      case 3:
        f = Value(static_cast<double>(rng.UniformInt(-3, 3)));
        break;
      default:
        f = Value(rng.UniformDouble(-4.0, 4.0));
    }
    Value s = rng.Bernoulli(0.1) ? Value::Null()
                                 : Value(kStrings[rng.Uniform(7)]);
    EXPECT_TRUE(t.AppendRow({i, f, s}).ok());
  }
  return t;
}

// Literals drawn per column so int64 columns see int64, integral-double and
// fractional-double spellings, and string columns strings that are and are
// not in the dictionary.
Value RandomLiteral(Random* rng, const std::string& column) {
  constexpr int64_t kBig = int64_t{1} << 53;
  if (column == "s") {
    const char* kLits[] = {"", "a", "aa", "b", "bz", "c", "zzz"};
    return Value(kLits[rng->Uniform(7)]);
  }
  switch (rng->Uniform(5)) {
    case 0:
      return Value(rng->UniformInt(-6, 6));
    case 1:
      return Value(static_cast<double>(rng->UniformInt(-6, 6)));
    case 2:
      return Value(rng->UniformDouble(-6.0, 6.0));
    case 3:
      return column == "i" ? Value(kBig + rng->UniformInt(0, 4))
                           : Value(rng->Bernoulli(0.5) ? 0.0 : -0.0);
    default:
      return Value(static_cast<double>(kBig) + 1.0);
  }
}

std::unique_ptr<Predicate> RandomPredicate(Random* rng, int depth) {
  const std::string kCols[] = {"i", "f", "s"};
  const std::string col = kCols[rng->Uniform(3)];
  const uint64_t kind = depth > 0 ? rng->Uniform(6) : rng->Uniform(3);
  switch (kind) {
    case 0:
      return std::make_unique<ComparisonPredicate>(
          col, static_cast<CompareOp>(rng->Uniform(6)),
          RandomLiteral(rng, col));
    case 1: {
      std::vector<Value> values;
      const size_t n = 1 + rng->Uniform(4);
      for (size_t k = 0; k < n; ++k) values.push_back(RandomLiteral(rng, col));
      return In(col, std::move(values));
    }
    case 2:
      return Between(col, RandomLiteral(rng, col), RandomLiteral(rng, col));
    case 3:
      return Not(RandomPredicate(rng, depth - 1));
    case 4:
      return And(RandomPredicate(rng, depth - 1),
                 RandomPredicate(rng, depth - 1));
    default:
      return Or(RandomPredicate(rng, depth - 1),
                RandomPredicate(rng, depth - 1));
  }
}

void ExpectMaskMatchesRows(const Predicate& p, const Table& t) {
  std::vector<uint8_t> mask;
  ASSERT_TRUE(p.EvaluateMask(t, &mask).ok()) << p.ToSql();
  ASSERT_EQ(mask.size(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(mask[r] == 1, p.Matches(t, r))
        << p.ToSql() << " row " << r << " i=" << t.ValueAt(r, 0).ToString()
        << " f=" << t.ValueAt(r, 1).ToString()
        << " s=" << t.ValueAt(r, 2).ToString();
  }
}

TEST(PredicateMaskDifferentialTest, TypedMasksEqualRowMatchesSeeded) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Table t = MakeMixedTable(seed, 400);
    Random rng(seed * 7919);
    for (int n = 0; n < 150; ++n) {
      auto p = RandomPredicate(&rng, 2);
      ExpectMaskMatchesRows(*p, t);
    }
  }
}

TEST(PredicateMaskDifferentialTest, EdgeCasesEqualRowMatches) {
  Table t = MakeMixedTable(42, 300);
  constexpr int64_t kBig = int64_t{1} << 53;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::unique_ptr<Predicate>> preds;
  // Mixed int64/double bounds and IN lists compare numerically; int64
  // literals against the int64 column stay exact beyond 2^53.
  preds.push_back(Between("i", Value(-2), Value(2.5)));
  preds.push_back(Between("i", Value(-2.5), Value(2)));
  preds.push_back(Between("i", Value(kBig + 1), Value(kBig + 2)));
  preds.push_back(Between("i", Value(static_cast<double>(kBig)),
                          Value(kBig + 1)));
  preds.push_back(In("i", {Value(kBig + 1), Value(3.0), Value(2.5)}));
  preds.push_back(In("f", {Value(0), Value(-1), Value(kNaN)}));
  preds.push_back(Between("f", Value(-0.0), Value(0)));
  preds.push_back(Between("f", Value(kNaN), Value(1.0)));
  preds.push_back(Between("f", Value(-1.0), Value(kNaN)));
  preds.push_back(Gt("f", Value(kNaN)));
  preds.push_back(Ne("f", Value(1)));
  preds.push_back(Ge("f", Value(0)));
  preds.push_back(Eq("i", Value(kBig + 1)));
  // String ranges and lists, in and out of the dictionary.
  preds.push_back(Between("s", Value("a"), Value("b")));
  preds.push_back(Between("s", Value(""), Value("az")));
  preds.push_back(In("s", {Value("ab"), Value("nope")}));
  // Empty matches.
  preds.push_back(Between("i", Value(3), Value(-3)));
  preds.push_back(Between("s", Value("q"), Value("r")));
  preds.push_back(In("s", {Value("nope")}));
  preds.push_back(In("i", {Value(0.5)}));
  // NOT over each shape, nulls included.
  preds.push_back(Not(Between("f", Value(-1.0), Value(1.0))));
  preds.push_back(Not(In("s", {Value("a")})));
  preds.push_back(Not(Lt("i", Value(0))));
  preds.push_back(Not(And(Ge("f", Value(0.0)), Eq("s", Value("c")))));
  preds.push_back(Or(Not(Between("i", Value(0), Value(2))), True()));
  for (const auto& p : preds) ExpectMaskMatchesRows(*p, t);
}

TEST(PredicateMaskDifferentialTest, NullsNeverMatchAndNotInvertsThem) {
  Table t = MakeMixedTable(3, 200);
  auto between = Between("f", Value(-100.0), Value(100.0));
  auto inverted = Not(Between("f", Value(-100.0), Value(100.0)));
  std::vector<uint8_t> m, inv;
  ASSERT_TRUE(between->EvaluateMask(t, &m).ok());
  ASSERT_TRUE(inverted->EvaluateMask(t, &inv).ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const Value v = t.ValueAt(r, 1);
    const bool nan_or_null = v.is_null() || std::isnan(v.AsDouble());
    EXPECT_EQ(m[r], nan_or_null ? 0 : 1) << "row " << r;
    EXPECT_EQ(inv[r], 1 - m[r]) << "row " << r;
  }
}

// A string column whose rows are all null has an empty dictionary, yet its
// null slots hold code 0: the per-code truth table must still cover code 0.
TEST(PredicateMaskDifferentialTest, AllNullStringColumnMatchesNothing) {
  Schema schema({
      ColumnDef::Dimension("i", ValueType::kInt64),
      ColumnDef::Measure("f"),
      ColumnDef::Dimension("s"),
  });
  Table t(schema);
  for (int r = 0; r < 37; ++r) {
    ASSERT_TRUE(t.AppendRow({Value(r), Value(0.5 * r), Value::Null()}).ok());
  }
  ASSERT_EQ(t.column(2).dict_size(), 0u);
  std::vector<std::unique_ptr<Predicate>> never;
  never.push_back(Eq("s", Value("x")));
  never.push_back(Ne("s", Value("x")));
  never.push_back(Lt("s", Value("x")));
  never.push_back(In("s", {Value("x"), Value("")}));
  never.push_back(Between("s", Value(""), Value("zzz")));
  never.push_back(And(Ge("i", Value(0)), In("s", {Value("x")})));
  for (const auto& p : never) {
    ExpectMaskMatchesRows(*p, t);
    std::vector<uint8_t> mask;
    ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
    EXPECT_EQ(std::count(mask.begin(), mask.end(), uint8_t{1}), 0)
        << p->ToSql();
  }
  // NOT inverts the row-level answer, so it keeps every null row.
  std::vector<std::unique_ptr<Predicate>> always;
  always.push_back(Not(Eq("s", Value("x"))));
  always.push_back(Not(In("s", {Value("x")})));
  always.push_back(Not(Between("s", Value("a"), Value("b"))));
  for (const auto& p : always) {
    ExpectMaskMatchesRows(*p, t);
    std::vector<uint8_t> mask;
    ASSERT_TRUE(p->EvaluateMask(t, &mask).ok());
    EXPECT_EQ(std::count(mask.begin(), mask.end(), uint8_t{1}), 37)
        << p->ToSql();
  }
}

// ComparisonPredicate's numeric semantics, written out by hand rather than
// derived from Matches(): numerics compare as doubles under IEEE rules, so
// NaN satisfies only <>, -0.0 equals 0, and int64 cells beyond 2^53 round.
// IN and BETWEEN keep Value semantics (int64 literals stay exact against an
// int64 column), so they can disagree with = on such cells.
TEST(PredicateMaskDifferentialTest, ComparisonSemanticsPinnedByHand) {
  constexpr int64_t kBig = int64_t{1} << 53;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  Schema schema({
      ColumnDef::Dimension("i", ValueType::kInt64),
      ColumnDef::Measure("f"),
      ColumnDef::Dimension("s"),
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(kBig), Value(kNaN), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(kBig + 1), Value(-0.0), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(5), Value(1.5), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value("a")}).ok());
  struct Case {
    std::unique_ptr<Predicate> p;
    std::vector<uint8_t> want;
  };
  std::vector<Case> cases;
  cases.push_back({Eq("i", Value(kBig + 1)), {1, 1, 0, 0}});
  cases.push_back({In("i", {Value(kBig + 1)}), {0, 1, 0, 0}});
  cases.push_back({Between("i", Value(kBig + 1), Value(kBig + 1)), {0, 1, 0, 0}});
  cases.push_back({Gt("f", Value(0)), {0, 0, 1, 0}});
  cases.push_back({Ge("f", Value(0.0)), {0, 1, 1, 0}});
  cases.push_back({Eq("f", Value(0)), {0, 1, 0, 0}});
  cases.push_back({Ne("f", Value(1.5)), {1, 1, 0, 0}});
  cases.push_back({Lt("f", Value(kNaN)), {0, 0, 0, 0}});
  cases.push_back({Ne("f", Value(kNaN)), {1, 1, 1, 0}});
  cases.push_back({Le("s", Value("a")), {1, 0, 0, 1}});
  for (const Case& c : cases) {
    std::vector<uint8_t> mask;
    ASSERT_TRUE(c.p->EvaluateMask(t, &mask).ok()) << c.p->ToSql();
    EXPECT_EQ(mask, c.want) << c.p->ToSql();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(c.p->Matches(t, r), c.want[r] == 1)
          << c.p->ToSql() << " row " << r;
    }
  }
}

TEST(PredicateMaskDifferentialTest, TypedMasksValidateLikeTheBase) {
  Table t = MakeTinyTable();
  std::vector<uint8_t> mask;
  EXPECT_FALSE(Between("nope", Value(1), Value(2))->EvaluateMask(t, &mask).ok());
  EXPECT_FALSE(Between("d", Value(1), Value(2))->EvaluateMask(t, &mask).ok());
  EXPECT_FALSE(In("m1", {Value("x")})->EvaluateMask(t, &mask).ok());
  EXPECT_FALSE(In("m1", {})->EvaluateMask(t, &mask).ok());
  EXPECT_FALSE(Not(Eq("nope", Value(1)))->EvaluateMask(t, &mask).ok());
}


}  // namespace
}  // namespace seedb::db
