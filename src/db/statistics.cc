#include "db/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/histogram.h"

namespace seedb::db {
namespace {

// Fills distinct_count, diversity, entropy and the top values from a
// column's distinct non-null values and their counts. `entries` lists them
// in the order the distribution sums run (dictionary-code order for
// strings, hash-map iteration order for numerics); `less` orders two values
// as Value::operator< does and `box` turns one into a Value.
template <typename T, typename Less, typename Box>
void ProfileDistribution(std::vector<std::pair<T, size_t>> entries,
                         const Less& less, const Box& box,
                         ColumnStats* stats) {
  stats->distinct_count = entries.size();
  size_t total = 0;
  for (const auto& e : entries) total += e.second;
  if (total > 0) {
    double sum_p2 = 0.0;
    double entropy = 0.0;
    for (const auto& e : entries) {
      double p = static_cast<double>(e.second) / static_cast<double>(total);
      sum_p2 += p * p;
      entropy -= p * std::log(p);
    }
    stats->diversity = 1.0 - sum_p2;
    stats->normalized_entropy =
        entries.size() > 1
            ? entropy / std::log(static_cast<double>(entries.size()))
            : 0.0;
  }

  // Top values: most frequent first, ties by ascending value.
  const size_t k = std::min(entries.size(), ColumnStats::kTopValues);
  std::partial_sort(entries.begin(), entries.begin() + k, entries.end(),
                    [&](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return less(a.first, b.first);
                    });
  stats->top_values.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    stats->top_values.emplace_back(box(entries[i].first), entries[i].second);
  }
}

// Counts a numeric column's non-null values by raw value. Equal keys keep
// their first occurrence (so +0.0 and -0.0 count as one value, boxed as
// whichever came first); each NaN counts as its own value.
template <typename T>
std::vector<std::pair<T, size_t>> RawValueCounts(const Column& col,
                                                 const std::vector<T>& data) {
  std::unordered_map<T, size_t> counts;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) ++counts[data[i]];
  }
  return {counts.begin(), counts.end()};
}

}  // namespace

ColumnStats ComputeColumnStats(const Table& table, size_t col_index) {
  const Column& col = table.column(col_index);
  const ColumnDef& def = table.schema().column(col_index);
  ColumnStats stats;
  stats.name = def.name;
  stats.type = def.type;
  stats.role = def.role;
  stats.row_count = col.size();
  stats.null_count = col.null_count();

  if (col.type() == ValueType::kInt64 || col.type() == ValueType::kDouble) {
    RunningStats rs;
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) rs.Add(col.NumericAt(i));
    }
    stats.min = rs.min();
    stats.max = rs.max();
    stats.mean = rs.mean();
    stats.variance = rs.variance();
  }

  // One typed counting pass feeds distinct_count, diversity, entropy and
  // the top values.
  switch (col.type()) {
    case ValueType::kString: {
      std::vector<size_t> per_code(col.dict_size(), 0);
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsNull(i)) ++per_code[col.codes()[i]];
      }
      std::vector<std::pair<int32_t, size_t>> entries;
      for (size_t c = 0; c < per_code.size(); ++c) {
        if (per_code[c] > 0) {
          entries.emplace_back(static_cast<int32_t>(c), per_code[c]);
        }
      }
      ProfileDistribution(
          std::move(entries),
          [&](int32_t a, int32_t b) {
            return col.dict_value(a) < col.dict_value(b);
          },
          [&](int32_t c) { return Value(col.dict_value(c)); }, &stats);
      break;
    }
    case ValueType::kInt64:
      ProfileDistribution(
          RawValueCounts(col, col.int64_data()),
          [](int64_t a, int64_t b) { return a < b; },
          [](int64_t v) { return Value(v); }, &stats);
      break;
    case ValueType::kDouble:
      // NaNs order last so the comparator stays a strict weak order.
      ProfileDistribution(
          RawValueCounts(col, col.double_data()),
          [](double a, double b) {
            return a < b || (std::isnan(b) && !std::isnan(a));
          },
          [](double v) { return Value(v); }, &stats);
      break;
    case ValueType::kNull:
      break;
  }
  return stats;
}

TableStats ComputeTableStats(const Table& table, const std::string& name) {
  TableStats stats;
  stats.table_name = name;
  stats.num_rows = table.num_rows();
  stats.memory_bytes = table.MemoryBytes();
  stats.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    stats.columns.push_back(ComputeColumnStats(table, c));
  }
  return stats;
}

Result<const ColumnStats*> TableStats::Find(const std::string& column) const {
  for (const auto& c : columns) {
    if (c.name == column) return &c;
  }
  return Status::NotFound("no stats for column '" + column + "'");
}

Result<double> CramersV(const Table& table, const std::string& col_a,
                        const std::string& col_b) {
  SEEDB_ASSIGN_OR_RETURN(const Column* a, table.ColumnByName(col_a));
  SEEDB_ASSIGN_OR_RETURN(const Column* b, table.ColumnByName(col_b));
  auto code_of = [](const Column& c, size_t row) -> Result<int64_t> {
    switch (c.type()) {
      case ValueType::kString:
        return static_cast<int64_t>(c.codes()[row]);
      case ValueType::kInt64:
        return c.int64_data()[row];
      default:
        return Status::InvalidArgument(
            "Cramér's V requires categorical (string/int64) columns");
    }
  };

  // Contingency table over non-null pairs.
  std::unordered_map<int64_t, size_t> a_ids, b_ids;
  std::unordered_map<int64_t, size_t> cell_counts;  // (a_id << 32) | b_id
  std::vector<size_t> row_totals, col_totals;
  size_t n = 0;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (a->IsNull(i) || b->IsNull(i)) continue;
    SEEDB_ASSIGN_OR_RETURN(int64_t av, code_of(*a, i));
    SEEDB_ASSIGN_OR_RETURN(int64_t bv, code_of(*b, i));
    auto [ita, ia] = a_ids.emplace(av, a_ids.size());
    auto [itb, ib] = b_ids.emplace(bv, b_ids.size());
    (void)ia;
    (void)ib;
    size_t ai = ita->second, bi = itb->second;
    if (ai >= row_totals.size()) row_totals.resize(ai + 1, 0);
    if (bi >= col_totals.size()) col_totals.resize(bi + 1, 0);
    ++row_totals[ai];
    ++col_totals[bi];
    ++cell_counts[static_cast<int64_t>((ai << 32) | bi)];
    ++n;
  }
  size_t r = row_totals.size();
  size_t k = col_totals.size();
  if (n == 0 || r < 2 || k < 2) {
    // Degenerate tables carry no association signal; report 0 rather than
    // failing so pruning can proceed.
    return 0.0;
  }

  double chi2 = 0.0;
  for (size_t ai = 0; ai < r; ++ai) {
    for (size_t bi = 0; bi < k; ++bi) {
      double expected = static_cast<double>(row_totals[ai]) *
                        static_cast<double>(col_totals[bi]) /
                        static_cast<double>(n);
      auto it = cell_counts.find(static_cast<int64_t>((ai << 32) | bi));
      double observed =
          it == cell_counts.end() ? 0.0 : static_cast<double>(it->second);
      double d = observed - expected;
      if (expected > 0) chi2 += d * d / expected;
    }
  }
  double denom = static_cast<double>(n) * static_cast<double>(std::min(r, k) - 1);
  double v = std::sqrt(chi2 / denom);
  return std::min(1.0, v);
}

}  // namespace seedb::db
