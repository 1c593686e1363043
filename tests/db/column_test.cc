#include "db/column.h"

#include <gtest/gtest.h>

#include "db/statistics.h"
#include "db/table.h"

namespace seedb::db {
namespace {

// Distinct non-null values of `c`, as the column profile (ComputeColumnStats)
// counts them from the column's raw values and dictionary codes.
size_t DistinctCount(const Column& c) {
  Table t(Schema({ColumnDef::Other("c", c.type())}));
  *t.mutable_column(0) = c;
  EXPECT_TRUE(t.FinishBulkLoad().ok());
  return ComputeColumnStats(t, 0).distinct_count;
}

TEST(ColumnTest, Int64AppendAndRead) {
  Column c(ValueType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.int64_data()[0], 1);
  EXPECT_EQ(c.GetValue(1), Value(2));
  EXPECT_EQ(c.NumericAt(0), 1.0);
}

TEST(ColumnTest, DoubleAppendAndRead) {
  Column c(ValueType::kDouble);
  c.AppendDouble(1.5);
  EXPECT_EQ(c.GetValue(0), Value(1.5));
  EXPECT_EQ(c.NumericAt(0), 1.5);
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column c(ValueType::kString);
  c.AppendString("red");
  c.AppendString("blue");
  c.AppendString("red");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.dict_size(), 2u);  // "red" interned once
  EXPECT_EQ(c.codes()[0], c.codes()[2]);
  EXPECT_NE(c.codes()[0], c.codes()[1]);
  EXPECT_EQ(c.dict_value(c.codes()[1]), "blue");
  EXPECT_EQ(c.FindCode("red"), c.codes()[0]);
  EXPECT_EQ(c.FindCode("green"), -1);
}

TEST(ColumnTest, NullsTrackedLazily) {
  Column c(ValueType::kInt64);
  c.AppendInt64(1);
  EXPECT_FALSE(c.IsNull(0));
  c.AppendNull();
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));  // retroactively valid
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c(ValueType::kInt64);
  EXPECT_TRUE(c.Append(Value(1)).ok());
  EXPECT_FALSE(c.Append(Value("x")).ok());
  EXPECT_FALSE(c.Append(Value(1.5)).ok());  // double into int column
  EXPECT_TRUE(c.Append(Value::Null()).ok());
  EXPECT_EQ(c.size(), 2u);
}

TEST(ColumnTest, DoubleColumnAcceptsIntLiterals) {
  Column c(ValueType::kDouble);
  EXPECT_TRUE(c.Append(Value(3)).ok());
  EXPECT_EQ(c.GetValue(0), Value(3.0));
}

TEST(ColumnTest, StringColumnRejectsNumbers) {
  Column c(ValueType::kString);
  EXPECT_FALSE(c.Append(Value(1)).ok());
  EXPECT_TRUE(c.Append(Value("ok")).ok());
}

TEST(ColumnTest, CountDistinctNumeric) {
  Column c(ValueType::kInt64);
  for (int64_t v : {1, 2, 2, 3, 3, 3}) c.AppendInt64(v);
  EXPECT_EQ(DistinctCount(c), 3u);
}

TEST(ColumnTest, CountDistinctStringsIgnoresNullPlaceholders) {
  Column c(ValueType::kString);
  c.AppendNull();  // placeholder code 0 without any real value
  c.AppendString("a");
  c.AppendString("b");
  c.AppendNull();
  EXPECT_EQ(DistinctCount(c), 2u);
  EXPECT_EQ(c.null_count(), 2u);
}

TEST(ColumnTest, CountDistinctDoubleWithNulls) {
  Column c(ValueType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendDouble(1.5);
  c.AppendDouble(2.5);
  EXPECT_EQ(DistinctCount(c), 2u);
}

TEST(ColumnTest, NullFirstRowThenValues) {
  Column c(ValueType::kString);
  c.AppendNull();
  c.AppendString("z");
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_FALSE(c.IsNull(1));
  EXPECT_EQ(c.GetValue(1), Value("z"));
}

// The invariants the vectorized kernels (db/vec/) lean on. A null string
// row's slot physically holds code 0 — the same code the first interned
// value gets — so null-vs-code-0 must be distinguished by the validity
// vector alone.
TEST(ColumnTest, DictionaryCodeZeroDistinctFromNull) {
  Column c(ValueType::kString);
  c.AppendNull();        // slot holds code 0, validity 0
  c.AppendString("a");   // interned at code 0, validity 1
  c.AppendString("a");
  c.AppendNull();
  ASSERT_EQ(c.codes().size(), 4u);
  EXPECT_EQ(c.codes()[0], 0);  // placeholder ...
  EXPECT_EQ(c.codes()[1], 0);  // ... and the real code 0 look identical
  ASSERT_EQ(c.validity().size(), 4u);
  EXPECT_EQ(c.validity()[0], 0);  // only validity separates them
  EXPECT_EQ(c.validity()[1], 1);
  EXPECT_EQ(c.FindCode("a"), 0);
  EXPECT_EQ(c.dict_size(), 1u);
  EXPECT_EQ(c.null_count(), 2u);
}

// validity() is empty until the first null (the kernels' "no nulls" fast
// path), then tracks every row.
TEST(ColumnTest, ValidityVectorAllocatedOnFirstNull) {
  Column c(ValueType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_TRUE(c.validity().empty());
  c.AppendNull();
  ASSERT_EQ(c.validity().size(), 3u);
  EXPECT_EQ(c.validity()[0], 1);
  EXPECT_EQ(c.validity()[1], 1);
  EXPECT_EQ(c.validity()[2], 0);
}

TEST(ColumnTest, CountDistinctInt64WithValidityVector) {
  Column c(ValueType::kInt64);
  c.AppendInt64(7);
  c.AppendNull();   // slot holds 0
  c.AppendInt64(0); // a REAL zero — must count despite matching the null slot
  c.AppendInt64(7);
  c.AppendNull();
  EXPECT_EQ(DistinctCount(c), 2u);  // {7, 0}; nulls excluded
  EXPECT_EQ(c.null_count(), 2u);
}

TEST(ColumnTest, CountDistinctStringWithValidityVectorExact) {
  Column c(ValueType::kString);
  c.AppendString("x");
  c.AppendNull();
  c.AppendString("y");
  c.AppendString("x");
  // Dictionary holds 2 entries; nulls never intern and never count.
  EXPECT_EQ(DistinctCount(c), 2u);
  EXPECT_EQ(c.dict_size(), 2u);
}

TEST(ColumnTest, AllNullColumnHasZeroDistinct) {
  Column c(ValueType::kDouble);
  c.AppendNull();
  c.AppendNull();
  EXPECT_EQ(DistinctCount(c), 0u);
  EXPECT_EQ(c.null_count(), 2u);
  EXPECT_EQ(c.validity().size(), 2u);
}

}  // namespace
}  // namespace seedb::db
