#include "db/column.h"

namespace seedb::db {

Column::Column(ValueType type) : type_(type) {}

void Column::MarkValidityForAppend(bool valid) {
  // Called after the data slot for the new row was pushed (size_ already
  // counts it), so prior rows number size_ - 1.
  if (!valid && validity_.empty()) {
    validity_.assign(size_ - 1, 1);  // retroactively mark prior rows valid
  }
  if (!validity_.empty() || !valid) {
    validity_.push_back(valid ? 1 : 0);
  }
  if (!valid) ++null_count_;
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case ValueType::kInt64:
      if (v.type() != ValueType::kInt64) {
        return Status::InvalidArgument("expected INT64, got " +
                                       std::string(ValueTypeToString(v.type())));
      }
      AppendInt64(v.AsInt64());
      return Status::OK();
    case ValueType::kDouble:
      if (!v.is_numeric()) {
        return Status::InvalidArgument("expected numeric, got " +
                                       std::string(ValueTypeToString(v.type())));
      }
      AppendDouble(v.ToDouble().ValueOrDie());
      return Status::OK();
    case ValueType::kString:
      if (v.type() != ValueType::kString) {
        return Status::InvalidArgument("expected STRING, got " +
                                       std::string(ValueTypeToString(v.type())));
      }
      AppendString(v.AsString());
      return Status::OK();
    case ValueType::kNull:
      return Status::InvalidArgument("column has invalid type NULL");
  }
  return Status::Internal("unreachable");
}

void Column::AppendInt64(int64_t v) {
  int64_data_.push_back(v);
  ++size_;
  MarkValidityForAppend(true);
}

void Column::AppendDouble(double v) {
  double_data_.push_back(v);
  ++size_;
  MarkValidityForAppend(true);
}

void Column::AppendString(std::string_view v) {
  auto it = dict_index_.find(std::string(v));
  int32_t code;
  if (it == dict_index_.end()) {
    code = static_cast<int32_t>(dict_.size());
    dict_.emplace_back(v);
    dict_index_.emplace(dict_.back(), code);
  } else {
    code = it->second;
  }
  codes_.push_back(code);
  ++size_;
  MarkValidityForAppend(true);
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kInt64:
      int64_data_.push_back(0);
      break;
    case ValueType::kDouble:
      double_data_.push_back(0.0);
      break;
    case ValueType::kString:
      codes_.push_back(0);
      break;
    case ValueType::kNull:
      break;
  }
  ++size_;
  MarkValidityForAppend(false);
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(int64_data_[row]);
    case ValueType::kDouble:
      return Value(double_data_[row]);
    case ValueType::kString:
      return Value(dict_[codes_[row]]);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

int32_t Column::FindCode(std::string_view s) const {
  auto it = dict_index_.find(std::string(s));
  return it == dict_index_.end() ? -1 : it->second;
}

}  // namespace seedb::db
