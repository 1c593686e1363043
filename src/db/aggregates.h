// Aggregate functions (set F in the paper) and conditional-aggregation specs.
//
// A spec may carry a FILTER predicate; `f(m) FILTER (WHERE pred)` is how the
// combined target/comparison view executes both halves in a single scan
// (§3.3 "Combine target and comparison view query").

#ifndef SEEDB_DB_AGGREGATES_H_
#define SEEDB_DB_AGGREGATES_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "db/predicate.h"
#include "util/result.h"

namespace seedb::db {

/// Aggregate functions SeeDB can apply to a measure attribute.
enum class AggregateFunction {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

const char* AggregateFunctionToSql(AggregateFunction f);

/// Parses "sum"/"SUM"/... into the enum.
Result<AggregateFunction> ParseAggregateFunction(const std::string& name);

/// All supported functions, in a stable order (for view-space enumeration).
const std::vector<AggregateFunction>& AllAggregateFunctions();

/// \brief Accumulator covering every AggregateFunction in one struct.
///
/// 32 bytes per (group, aggregate) pair; this is the unit the optimizer's
/// working-memory model counts (§3.3, combine-group-bys).
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  /// COUNT(*) — no measure value involved.
  void AddCountOnly() { ++count; }

  void Merge(const AggState& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }

  /// Final value under `f`; empty groups finalize to 0 for COUNT and NULL
  /// (represented as NaN by callers that need it) semantics are avoided by
  /// only materializing groups that received rows.
  double Finalize(AggregateFunction f) const {
    switch (f) {
      case AggregateFunction::kCount:
        return static_cast<double>(count);
      case AggregateFunction::kSum:
        return sum;
      case AggregateFunction::kAvg:
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
      case AggregateFunction::kMin:
        return count == 0 ? 0.0 : min;
      case AggregateFunction::kMax:
        return count == 0 ? 0.0 : max;
    }
    return 0.0;
  }
};

/// \brief One output aggregate: function, input measure, optional FILTER.
struct AggregateSpec {
  AggregateFunction func = AggregateFunction::kCount;
  /// Input measure column; empty means COUNT(*).
  std::string input;
  /// Output column name; empty derives "SUM(amount)" style.
  std::string output_name;
  /// Optional FILTER (WHERE ...) predicate; null means unconditional.
  PredicatePtr filter;

  /// Output name, derived if not explicitly set.
  std::string EffectiveName() const;
  /// SQL fragment, e.g. "SUM(amount) FILTER (WHERE product = 'X') AS t".
  std::string ToSql() const;

  static AggregateSpec Count(std::string output_name = "");
  static AggregateSpec Make(AggregateFunction f, std::string input,
                            std::string output_name = "",
                            PredicatePtr filter = nullptr);
};

/// \brief One distinct accumulator of a query: an (input column, FILTER,
/// count-only) triple.
///
/// AggState carries every function's fields, so SUM, AVG, MIN and MAX of
/// one measure under one FILTER accumulate identical states, and COUNT(m)
/// reads only the count, which such a state holds too (both skip null
/// inputs). A fused scan therefore keeps one state per payload, not per
/// aggregate, and finalizes each aggregate from its payload's state.
struct AggPayload {
  /// The first aggregate mapped to this payload; its input and FILTER
  /// describe the payload.
  size_t spec = 0;
  /// Counts rows only: COUNT(*), or COUNT(m) when no SUM/AVG/MIN/MAX of m
  /// under the same FILTER provides a full state to ride on.
  bool count_only = false;
};

struct AggPayloadPlan {
  /// Full payloads in first-use order, then count-only ones.
  std::vector<AggPayload> payloads;
  /// payload_of[j]: the payload aggregate j is finalized from.
  std::vector<size_t> payload_of;
};

/// Maps `aggregates` onto their distinct payloads. FILTERs match by
/// predicate object (the scan evaluates one mask per object), inputs by
/// column name. The plan is a pure function of the list, so the scan and
/// the result-cache key (db/scan_cache.h) derive the same one.
AggPayloadPlan PlanAggPayloads(const std::vector<AggregateSpec>& aggregates);

}  // namespace seedb::db

#endif  // SEEDB_DB_AGGREGATES_H_
