// Column: typed columnar storage with dictionary encoding for strings.
//
// Strings are dictionary-encoded (int32 codes + interned dictionary), which
// makes group-by on categorical dimensions an array-of-ints problem — the
// layout every real columnar engine uses and the reason SeeDB's shared-scan
// optimizations translate into proportional wall-clock savings here.

#ifndef SEEDB_DB_COLUMN_H_
#define SEEDB_DB_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/value.h"
#include "util/result.h"

namespace seedb::db {

/// \brief A single table column: growable, typed, nullable.
///
/// Physical layouts by type:
///   kInt64  -> std::vector<int64_t>
///   kDouble -> std::vector<double>
///   kString -> std::vector<int32_t> codes into an interned dictionary
/// Nulls are tracked in a validity vector allocated on first null; a null
/// row's slot holds 0 / 0.0 / code 0 and must not be read through the typed
/// accessors without checking IsNull.
class Column {
 public:
  explicit Column(ValueType type);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }

  /// Appends a value; null is accepted for any column type. Type-mismatched
  /// values fail (int64 literals are accepted into double columns).
  Status Append(const Value& v);

  /// Fast-path appends (no per-row variant). Type must match.
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendNull();

  bool IsNull(size_t row) const {
    return !validity_.empty() && validity_[row] == 0;
  }

  /// Boxed value at `row` (null-aware). Edge-of-engine use only.
  Value GetValue(size_t row) const;

  /// Numeric value at `row` as double. Caller must ensure the column is
  /// numeric and the row non-null.
  double NumericAt(size_t row) const {
    return type_ == ValueType::kInt64
               ? static_cast<double>(int64_data_[row])
               : double_data_[row];
  }

  /// Raw typed access (hot path). Valid only for the matching type.
  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  /// Raw validity bytes (1 = valid, 0 = null); EMPTY means "no nulls". The
  /// vectorized kernels (db/vec/) take this as a nullable pointer:
  /// `validity().empty() ? nullptr : validity().data()`.
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// Dictionary for string columns.
  size_t dict_size() const { return dict_.size(); }
  const std::string& dict_value(int32_t code) const { return dict_[code]; }
  /// Returns the code for `s`, or -1 if `s` is not in the dictionary.
  int32_t FindCode(std::string_view s) const;

 private:
  void MarkValidityForAppend(bool valid);

  ValueType type_;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
  /// Empty means "all valid"; otherwise 1 = valid, 0 = null.
  std::vector<uint8_t> validity_;
};

}  // namespace seedb::db

#endif  // SEEDB_DB_COLUMN_H_
