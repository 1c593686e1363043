// Predicates: WHERE-clause expression trees with vectorized evaluation.
//
// SeeDB's input query Q is "one or more rows selected from the fact table"
// (§2), i.e. a predicate over D. Predicates also back the FILTER clause of
// conditional aggregation, which is how the combined target/comparison view
// query is expressed (§3.3).
//
// Null semantics: a comparison against a null cell is false (rows with
// unknown values are filtered out). NOT inverts that boolean outcome. This is
// two-valued logic — adequate for SeeDB's selection queries and documented
// here as a deliberate simplification of SQL's three-valued logic.
//
// Numeric semantics: ComparisonPredicate compares numerics in the double
// domain under IEEE rules (a NaN cell satisfies only <>), the domain the
// fused compare kernels and the result-cache keys share. IN and BETWEEN
// follow Value comparison exactly: a bound or list literal compares in the
// int64 domain against an int64 cell when it is itself int64, in the double
// domain otherwise, so a NaN cell never matches either.
//
// Every concrete predicate evaluates its mask in one typed pass: the column
// is resolved once, strings go through a per-dictionary-code truth table and
// numerics through a loop over the raw array. Matches() is the row-at-a-time
// reference the masks are tested against.

#ifndef SEEDB_DB_PREDICATE_H_
#define SEEDB_DB_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "db/table.h"
#include "util/result.h"

namespace seedb::db {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToSql(CompareOp op);

/// \brief Abstract boolean row filter.
///
/// Predicates are immutable and shareable (queries hold them via
/// shared_ptr<const Predicate>).
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Row-at-a-time evaluation: the reference the typed masks are tested
  /// against; no execution path calls it.
  virtual bool Matches(const Table& table, size_t row) const = 0;

  /// Vectorized evaluation: resizes `mask` to table.num_rows() and writes
  /// 1 for matching rows, 0 otherwise, in one typed pass.
  virtual Status EvaluateMask(const Table& table,
                              std::vector<uint8_t>* mask) const = 0;

  /// Checks that all referenced columns exist with comparable types.
  virtual Status Validate(const Schema& schema) const = 0;

  /// SQL rendering, parenthesized where needed ("(a = 'x' AND b > 5)").
  virtual std::string ToSql() const = 0;

  virtual std::unique_ptr<Predicate> Clone() const = 0;

  /// Appends the names of all referenced columns (with repeats).
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// column <op> literal.
class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  bool Matches(const Table& table, size_t row) const override;
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema& schema) const override;
  std::string ToSql() const override;
  std::unique_ptr<Predicate> Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;

  const std::string& column() const { return column_; }
  CompareOp op() const { return op_; }
  const Value& literal() const { return literal_; }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
};

/// column IN (v1, v2, ...).
class InPredicate final : public Predicate {
 public:
  InPredicate(std::string column, std::vector<Value> values)
      : column_(std::move(column)), values_(std::move(values)) {}

  bool Matches(const Table& table, size_t row) const override;
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema& schema) const override;
  std::string ToSql() const override;
  std::unique_ptr<Predicate> Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;

 private:
  std::string column_;
  std::vector<Value> values_;
};

/// column BETWEEN lo AND hi (inclusive).
class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(std::string column, Value lo, Value hi)
      : column_(std::move(column)), lo_(std::move(lo)), hi_(std::move(hi)) {}

  bool Matches(const Table& table, size_t row) const override;
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema& schema) const override;
  std::string ToSql() const override;
  std::unique_ptr<Predicate> Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;

 private:
  std::string column_;
  Value lo_;
  Value hi_;
};

/// Conjunction / disjunction over >= 1 children.
class LogicalPredicate final : public Predicate {
 public:
  enum class Kind { kAnd, kOr };

  LogicalPredicate(Kind kind, std::vector<std::unique_ptr<Predicate>> children)
      : kind_(kind), children_(std::move(children)) {}

  bool Matches(const Table& table, size_t row) const override;
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema& schema) const override;
  std::string ToSql() const override;
  std::unique_ptr<Predicate> Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;

 private:
  Kind kind_;
  std::vector<std::unique_ptr<Predicate>> children_;
};

/// NOT child.
class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(std::unique_ptr<Predicate> child)
      : child_(std::move(child)) {}

  bool Matches(const Table& table, size_t row) const override;
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema& schema) const override;
  std::string ToSql() const override;
  std::unique_ptr<Predicate> Clone() const override;
  void CollectColumns(std::vector<std::string>* out) const override;

 private:
  std::unique_ptr<Predicate> child_;
};

/// Constant TRUE (select-all; the degenerate input query).
class TruePredicate final : public Predicate {
 public:
  bool Matches(const Table&, size_t) const override { return true; }
  Status EvaluateMask(const Table& table,
                      std::vector<uint8_t>* mask) const override;
  Status Validate(const Schema&) const override { return Status::OK(); }
  std::string ToSql() const override { return "TRUE"; }
  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<TruePredicate>();
  }
  void CollectColumns(std::vector<std::string>*) const override {}
};

// -- Builder helpers ---------------------------------------------------------

std::unique_ptr<Predicate> Eq(std::string column, Value v);
std::unique_ptr<Predicate> Ne(std::string column, Value v);
std::unique_ptr<Predicate> Lt(std::string column, Value v);
std::unique_ptr<Predicate> Le(std::string column, Value v);
std::unique_ptr<Predicate> Gt(std::string column, Value v);
std::unique_ptr<Predicate> Ge(std::string column, Value v);
std::unique_ptr<Predicate> In(std::string column, std::vector<Value> values);
std::unique_ptr<Predicate> Between(std::string column, Value lo, Value hi);
std::unique_ptr<Predicate> And(std::vector<std::unique_ptr<Predicate>> children);
std::unique_ptr<Predicate> And(std::unique_ptr<Predicate> a,
                               std::unique_ptr<Predicate> b);
std::unique_ptr<Predicate> Or(std::vector<std::unique_ptr<Predicate>> children);
std::unique_ptr<Predicate> Or(std::unique_ptr<Predicate> a,
                              std::unique_ptr<Predicate> b);
std::unique_ptr<Predicate> Not(std::unique_ptr<Predicate> child);
std::unique_ptr<Predicate> True();

}  // namespace seedb::db

#endif  // SEEDB_DB_PREDICATE_H_
