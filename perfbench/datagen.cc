#include "datagen.h"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "db/schema.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {

std::string StringValue(size_t dim, size_t j) {
  return seedb::StringPrintf("s%zu_v%zu", dim, j);
}

db::Table GenerateTable(const TableSpec& spec, uint64_t seed) {
  using seedb::db::ColumnDef;
  using seedb::db::ValueType;
  seedb::db::Schema schema;
  const size_t ns = spec.string_dims.size();
  const size_t ni = spec.int_dims.size();
  auto must = [](const seedb::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "datagen: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  };
  for (size_t d = 0; d < ns; ++d) {
    must(schema.AddColumn(ColumnDef::Dimension(seedb::StringPrintf("s%zu", d))));
  }
  for (size_t d = 0; d < ni; ++d) {
    must(schema.AddColumn(ColumnDef::Dimension(seedb::StringPrintf("i%zu", d),
                                               ValueType::kInt64)));
  }
  for (size_t m = 0; m < spec.measures; ++m) {
    must(schema.AddColumn(ColumnDef::Measure(seedb::StringPrintf("m%zu", m))));
  }

  // Value names are precomputed so the row loop appends views, not fresh
  // strings.
  std::vector<std::vector<std::string>> names(ns);
  for (size_t d = 0; d < ns; ++d) {
    for (size_t j = 0; j < spec.string_dims[d]; ++j) {
      names[d].push_back(StringValue(d, j));
    }
  }
  std::optional<seedb::ZipfDistribution> zipf;
  if (spec.zipf_dim >= 0) {
    zipf.emplace(spec.string_dims[static_cast<size_t>(spec.zipf_dim)],
                 spec.zipf_s);
  }

  seedb::Random rng(seed);
  db::Table table(schema);
  std::vector<size_t> idx(ns);
  for (size_t row = 0; row < spec.rows; ++row) {
    for (size_t d = 0; d < ns; ++d) {
      idx[d] = static_cast<int>(d) == spec.zipf_dim
                   ? zipf->Sample(&rng)
                   : static_cast<size_t>(rng.Uniform(spec.string_dims[d]));
      table.mutable_column(d)->AppendString(names[d][idx[d]]);
    }
    for (size_t d = 0; d < ni; ++d) {
      table.mutable_column(ns + d)->AppendInt64(
          static_cast<int64_t>(rng.Uniform(spec.int_dims[d])));
    }
    // Upper half, not alternate groups: EMD then has to move mass across
    // half of s1's range, so the deviation stands out under every metric.
    const bool planted = idx[0] == 0 && idx[1] >= spec.string_dims[1] / 2;
    for (size_t m = 0; m < spec.measures; ++m) {
      double v = rng.Gaussian(100.0 + 10.0 * static_cast<double>(m), 15.0);
      if (m == 0 && planted) v *= spec.deviation_strength;
      table.mutable_column(ns + ni + m)->AppendDouble(v);
    }
  }
  must(table.FinishBulkLoad());
  return table;
}

}  // namespace perfbench
