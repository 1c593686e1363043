// Seeded table generator for the benchmark workloads.
//
// Tables carry string dimensions (dictionary-coded, optionally Zipf-skewed),
// int64 dimensions (which the fused scan groups through its hash group-id
// path) and Gaussian double measures, plus one planted deviation: rows with
// s0 = 's0_v0' have measure m0 scaled up wherever s1's value index lies in
// the upper half of its range.
// The view (s1, m0) under a selection containing s0 = 's0_v0' is therefore
// the ground-truth interesting view the correctness gate looks for.

#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/table.h"

namespace perfbench {

namespace db = seedb::db;

struct TableSpec {
  size_t rows = 0;
  /// Cardinality of each string dimension s0, s1, ...; s0 selects and s1
  /// deviates for the planted view, so both need cardinality >= 2.
  std::vector<size_t> string_dims;
  /// Index into string_dims of the Zipf-skewed dimension (-1 = none).
  int zipf_dim = -1;
  double zipf_s = 1.1;
  /// Cardinality of each int64 dimension i0, i1, ... (values 0..card-1).
  std::vector<size_t> int_dims;
  size_t measures = 0;
  /// Multiplier applied to m0 on the planted rows.
  double deviation_strength = 6.0;
};

inline constexpr const char* kTableName = "bench";
inline constexpr const char* kPlantedSelector = "s0 = 's0_v0'";
inline constexpr const char* kPlantedDimension = "s1";
inline constexpr const char* kPlantedMeasure = "m0";

/// Builds the table for `spec`; the same seed yields the same table.
db::Table GenerateTable(const TableSpec& spec, uint64_t seed);

/// "s<d>_v<j>", the j-th value of string dimension d.
std::string StringValue(size_t dim, size_t j);

}  // namespace perfbench

#endif  // PERFBENCH_DATAGEN_H_
