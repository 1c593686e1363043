#include "db/predicate.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace seedb::db {
namespace {

bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

// A numeric comparison in one typed domain under the host operators: NaN
// satisfies only <>. ComparisonPredicate evaluates numerics this way in the
// double domain (see predicate.h).
template <typename T>
bool CompareNumeric(T lhs, CompareOp op, T rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

// Writes mask[i] = (row i is non-null) && hit(i) for every row of `col`.
// hit(i) also runs for null rows, whose slots hold 0 / 0.0 / code 0, so it
// must be safe to read them (FillCodeMask keeps code 0 in range).
template <typename Hit>
void FillMask(const Column& col, const Hit& hit, std::vector<uint8_t>* mask) {
  const size_t n = col.size();
  mask->resize(n);
  uint8_t* m = mask->data();
  if (col.validity().empty()) {
    for (size_t i = 0; i < n; ++i) m[i] = hit(i) ? 1 : 0;
    return;
  }
  const uint8_t* valid = col.validity().data();
  for (size_t i = 0; i < n; ++i) m[i] = valid[i] & (hit(i) ? 1 : 0);
}

// Dictionary columns: the predicate is evaluated once per distinct string
// (with Value semantics), then rows look their code up in the truth table.
template <typename ValueMatches>
void FillCodeMask(const Column& col, const ValueMatches& matches,
                  std::vector<uint8_t>* mask) {
  // A null row holds code 0 even when the dictionary is empty (every row
  // null), so the table always has an entry for code 0.
  std::vector<uint8_t> code_match(std::max<size_t>(col.dict_size(), 1), 0);
  for (size_t c = 0; c < col.dict_size(); ++c) {
    code_match[c] =
        matches(Value(col.dict_value(static_cast<int32_t>(c)))) ? 1 : 0;
  }
  const int32_t* codes = col.codes().data();
  FillMask(col, [&](size_t i) { return code_match[codes[i]] != 0; }, mask);
}

// Numeric literals sorted for IN lookup, split by the domain Value equality
// compares them in against an int64 cell: int64 literals exactly, double
// literals as doubles. NaN literals are dropped (they equal nothing).
struct NumericInList {
  std::vector<int64_t> ints;
  std::vector<double> doubles;

  NumericInList(const std::vector<Value>& values, bool int64_column) {
    for (const Value& v : values) {
      if (int64_column && v.type() == ValueType::kInt64) {
        ints.push_back(v.AsInt64());
      } else if (double d = v.ToDouble().ValueOrDie(); !std::isnan(d)) {
        doubles.push_back(d);
      }
    }
    std::sort(ints.begin(), ints.end());
    std::sort(doubles.begin(), doubles.end());
  }

  bool Contains(int64_t v) const {
    return std::binary_search(ints.begin(), ints.end(), v) ||
           ContainsDouble(static_cast<double>(v));
  }
  bool ContainsDouble(double v) const {
    return !std::isnan(v) &&
           std::binary_search(doubles.begin(), doubles.end(), v);
  }
};

Status CheckComparable(const Schema& schema, const std::string& column,
                       const Value& literal) {
  SEEDB_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(column));
  if (literal.is_null()) {
    return Status::InvalidArgument("cannot compare column '" + column +
                                   "' against NULL literal");
  }
  ValueType ct = schema.column(idx).type;
  bool ok = (ct == ValueType::kString && literal.type() == ValueType::kString) ||
            ((ct == ValueType::kInt64 || ct == ValueType::kDouble) &&
             literal.is_numeric());
  if (!ok) {
    return Status::InvalidArgument(
        StringPrintf("cannot compare %s column '%s' with %s literal",
                     ValueTypeToString(ct), column.c_str(),
                     ValueTypeToString(literal.type())));
  }
  return Status::OK();
}

}  // namespace

const char* CompareOpToSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

// -- ComparisonPredicate -----------------------------------------------------

bool ComparisonPredicate::Matches(const Table& table, size_t row) const {
  auto col = table.ColumnByName(column_);
  if (!col.ok()) return false;
  const Column& c = **col;
  if (c.IsNull(row)) return false;
  if (c.type() == ValueType::kString) {
    return CompareValues(c.GetValue(row), op_, literal_);
  }
  Result<double> lit = literal_.ToDouble();
  return lit.ok() && CompareNumeric(c.NumericAt(row), op_, *lit);
}

Status ComparisonPredicate::EvaluateMask(const Table& table,
                                         std::vector<uint8_t>* mask) const {
  SEEDB_RETURN_IF_ERROR(Validate(table.schema()));
  SEEDB_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
  if (col->type() == ValueType::kString) {
    FillCodeMask(
        *col, [&](const Value& v) { return CompareValues(v, op_, literal_); },
        mask);
    return Status::OK();
  }
  const double lit = literal_.ToDouble().ValueOrDie();
  if (col->type() == ValueType::kInt64) {
    const int64_t* data = col->int64_data().data();
    FillMask(
        *col,
        [&](size_t i) {
          return CompareNumeric(static_cast<double>(data[i]), op_, lit);
        },
        mask);
  } else {
    const double* data = col->double_data().data();
    FillMask(
        *col, [&](size_t i) { return CompareNumeric(data[i], op_, lit); },
        mask);
  }
  return Status::OK();
}

Status ComparisonPredicate::Validate(const Schema& schema) const {
  return CheckComparable(schema, column_, literal_);
}

std::string ComparisonPredicate::ToSql() const {
  return column_ + " " + CompareOpToSql(op_) + " " + literal_.ToSqlLiteral();
}

std::unique_ptr<Predicate> ComparisonPredicate::Clone() const {
  return std::make_unique<ComparisonPredicate>(column_, op_, literal_);
}

void ComparisonPredicate::CollectColumns(std::vector<std::string>* out) const {
  out->push_back(column_);
}

// -- InPredicate -------------------------------------------------------------

bool InPredicate::Matches(const Table& table, size_t row) const {
  auto col = table.ColumnByName(column_);
  if (!col.ok()) return false;
  const Column& c = **col;
  if (c.IsNull(row)) return false;
  Value v = c.GetValue(row);
  return std::any_of(values_.begin(), values_.end(),
                     [&](const Value& cand) { return v == cand; });
}

Status InPredicate::EvaluateMask(const Table& table,
                                 std::vector<uint8_t>* mask) const {
  SEEDB_RETURN_IF_ERROR(Validate(table.schema()));
  SEEDB_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
  if (col->type() == ValueType::kString) {
    FillCodeMask(
        *col,
        [&](const Value& v) {
          return std::find(values_.begin(), values_.end(), v) != values_.end();
        },
        mask);
    return Status::OK();
  }
  const NumericInList list(values_, col->type() == ValueType::kInt64);
  if (col->type() == ValueType::kInt64) {
    const int64_t* data = col->int64_data().data();
    FillMask(*col, [&](size_t i) { return list.Contains(data[i]); }, mask);
  } else {
    const double* data = col->double_data().data();
    FillMask(*col, [&](size_t i) { return list.ContainsDouble(data[i]); },
             mask);
  }
  return Status::OK();
}

Status InPredicate::Validate(const Schema& schema) const {
  if (values_.empty()) {
    return Status::InvalidArgument("IN list for column '" + column_ +
                                   "' is empty");
  }
  for (const auto& v : values_) {
    SEEDB_RETURN_IF_ERROR(CheckComparable(schema, column_, v));
  }
  return Status::OK();
}

std::string InPredicate::ToSql() const {
  std::vector<std::string> lits;
  lits.reserve(values_.size());
  for (const auto& v : values_) lits.push_back(v.ToSqlLiteral());
  return column_ + " IN (" + Join(lits, ", ") + ")";
}

std::unique_ptr<Predicate> InPredicate::Clone() const {
  return std::make_unique<InPredicate>(column_, values_);
}

void InPredicate::CollectColumns(std::vector<std::string>* out) const {
  out->push_back(column_);
}

// -- BetweenPredicate --------------------------------------------------------

bool BetweenPredicate::Matches(const Table& table, size_t row) const {
  auto col = table.ColumnByName(column_);
  if (!col.ok()) return false;
  const Column& c = **col;
  if (c.IsNull(row)) return false;
  Value v = c.GetValue(row);
  return v >= lo_ && v <= hi_;
}

Status BetweenPredicate::EvaluateMask(const Table& table,
                                      std::vector<uint8_t>* mask) const {
  SEEDB_RETURN_IF_ERROR(Validate(table.schema()));
  SEEDB_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
  if (col->type() == ValueType::kString) {
    FillCodeMask(
        *col, [&](const Value& v) { return v >= lo_ && v <= hi_; }, mask);
    return Status::OK();
  }
  // Value's v >= lo is !(v < lo) and v <= hi is (v < hi || v == hi); both
  // are reproduced per bound, in the domain Value compares that bound in.
  const double lo = lo_.ToDouble().ValueOrDie();
  const double hi = hi_.ToDouble().ValueOrDie();
  if (col->type() == ValueType::kDouble) {
    const double* data = col->double_data().data();
    FillMask(
        *col, [&](size_t i) { return !(data[i] < lo) && data[i] <= hi; },
        mask);
    return Status::OK();
  }
  const int64_t* data = col->int64_data().data();
  const bool lo_int = lo_.type() == ValueType::kInt64;
  const bool hi_int = hi_.type() == ValueType::kInt64;
  const int64_t lo_i = lo_int ? lo_.AsInt64() : 0;
  const int64_t hi_i = hi_int ? hi_.AsInt64() : 0;
  FillMask(
      *col,
      [&](size_t i) {
        const int64_t v = data[i];
        const double vd = static_cast<double>(v);
        const bool ge = lo_int ? v >= lo_i : !(vd < lo);
        const bool le = hi_int ? v <= hi_i : vd <= hi;
        return ge && le;
      },
      mask);
  return Status::OK();
}

Status BetweenPredicate::Validate(const Schema& schema) const {
  SEEDB_RETURN_IF_ERROR(CheckComparable(schema, column_, lo_));
  return CheckComparable(schema, column_, hi_);
}

std::string BetweenPredicate::ToSql() const {
  return column_ + " BETWEEN " + lo_.ToSqlLiteral() + " AND " +
         hi_.ToSqlLiteral();
}

std::unique_ptr<Predicate> BetweenPredicate::Clone() const {
  return std::make_unique<BetweenPredicate>(column_, lo_, hi_);
}

void BetweenPredicate::CollectColumns(std::vector<std::string>* out) const {
  out->push_back(column_);
}

// -- LogicalPredicate --------------------------------------------------------

bool LogicalPredicate::Matches(const Table& table, size_t row) const {
  if (kind_ == Kind::kAnd) {
    for (const auto& c : children_) {
      if (!c->Matches(table, row)) return false;
    }
    return true;
  }
  for (const auto& c : children_) {
    if (c->Matches(table, row)) return true;
  }
  return false;
}

Status LogicalPredicate::EvaluateMask(const Table& table,
                                      std::vector<uint8_t>* mask) const {
  if (children_.empty()) {
    return Status::InvalidArgument("logical predicate with no children");
  }
  SEEDB_RETURN_IF_ERROR(children_[0]->EvaluateMask(table, mask));
  std::vector<uint8_t> tmp;
  for (size_t i = 1; i < children_.size(); ++i) {
    SEEDB_RETURN_IF_ERROR(children_[i]->EvaluateMask(table, &tmp));
    if (kind_ == Kind::kAnd) {
      for (size_t r = 0; r < mask->size(); ++r) (*mask)[r] &= tmp[r];
    } else {
      for (size_t r = 0; r < mask->size(); ++r) (*mask)[r] |= tmp[r];
    }
  }
  return Status::OK();
}

Status LogicalPredicate::Validate(const Schema& schema) const {
  if (children_.empty()) {
    return Status::InvalidArgument("logical predicate with no children");
  }
  for (const auto& c : children_) {
    SEEDB_RETURN_IF_ERROR(c->Validate(schema));
  }
  return Status::OK();
}

std::string LogicalPredicate::ToSql() const {
  const char* sep = kind_ == Kind::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i) out += sep;
    out += children_[i]->ToSql();
  }
  out += ")";
  return out;
}

std::unique_ptr<Predicate> LogicalPredicate::Clone() const {
  std::vector<std::unique_ptr<Predicate>> kids;
  kids.reserve(children_.size());
  for (const auto& c : children_) kids.push_back(c->Clone());
  return std::make_unique<LogicalPredicate>(kind_, std::move(kids));
}

void LogicalPredicate::CollectColumns(std::vector<std::string>* out) const {
  for (const auto& c : children_) c->CollectColumns(out);
}

// -- NotPredicate ------------------------------------------------------------

bool NotPredicate::Matches(const Table& table, size_t row) const {
  return !child_->Matches(table, row);
}

Status NotPredicate::EvaluateMask(const Table& table,
                                  std::vector<uint8_t>* mask) const {
  SEEDB_RETURN_IF_ERROR(child_->EvaluateMask(table, mask));
  for (uint8_t& m : *mask) m ^= 1;
  return Status::OK();
}

Status NotPredicate::Validate(const Schema& schema) const {
  return child_->Validate(schema);
}

std::string NotPredicate::ToSql() const {
  return "NOT (" + child_->ToSql() + ")";
}

std::unique_ptr<Predicate> NotPredicate::Clone() const {
  return std::make_unique<NotPredicate>(child_->Clone());
}

void NotPredicate::CollectColumns(std::vector<std::string>* out) const {
  child_->CollectColumns(out);
}

// -- TruePredicate -----------------------------------------------------------

Status TruePredicate::EvaluateMask(const Table& table,
                                   std::vector<uint8_t>* mask) const {
  mask->assign(table.num_rows(), 1);
  return Status::OK();
}

// -- Builders ----------------------------------------------------------------

std::unique_ptr<Predicate> Eq(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kEq, std::move(v));
}
std::unique_ptr<Predicate> Ne(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kNe, std::move(v));
}
std::unique_ptr<Predicate> Lt(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kLt, std::move(v));
}
std::unique_ptr<Predicate> Le(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kLe, std::move(v));
}
std::unique_ptr<Predicate> Gt(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kGt, std::move(v));
}
std::unique_ptr<Predicate> Ge(std::string column, Value v) {
  return std::make_unique<ComparisonPredicate>(std::move(column),
                                               CompareOp::kGe, std::move(v));
}
std::unique_ptr<Predicate> In(std::string column, std::vector<Value> values) {
  return std::make_unique<InPredicate>(std::move(column), std::move(values));
}
std::unique_ptr<Predicate> Between(std::string column, Value lo, Value hi) {
  return std::make_unique<BetweenPredicate>(std::move(column), std::move(lo),
                                            std::move(hi));
}
std::unique_ptr<Predicate> And(
    std::vector<std::unique_ptr<Predicate>> children) {
  return std::make_unique<LogicalPredicate>(LogicalPredicate::Kind::kAnd,
                                            std::move(children));
}
std::unique_ptr<Predicate> And(std::unique_ptr<Predicate> a,
                               std::unique_ptr<Predicate> b) {
  std::vector<std::unique_ptr<Predicate>> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return And(std::move(kids));
}
std::unique_ptr<Predicate> Or(
    std::vector<std::unique_ptr<Predicate>> children) {
  return std::make_unique<LogicalPredicate>(LogicalPredicate::Kind::kOr,
                                            std::move(children));
}
std::unique_ptr<Predicate> Or(std::unique_ptr<Predicate> a,
                              std::unique_ptr<Predicate> b) {
  std::vector<std::unique_ptr<Predicate>> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return Or(std::move(kids));
}
std::unique_ptr<Predicate> Not(std::unique_ptr<Predicate> child) {
  return std::make_unique<NotPredicate>(std::move(child));
}
std::unique_ptr<Predicate> True() { return std::make_unique<TruePredicate>(); }

}  // namespace seedb::db
