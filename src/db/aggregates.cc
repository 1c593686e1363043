#include "db/aggregates.h"

#include <cstdint>

#include "util/string_util.h"

namespace seedb::db {

const char* AggregateFunctionToSql(AggregateFunction f) {
  switch (f) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
  }
  return "?";
}

Result<AggregateFunction> ParseAggregateFunction(const std::string& name) {
  std::string up = ToUpper(name);
  if (up == "COUNT") return AggregateFunction::kCount;
  if (up == "SUM") return AggregateFunction::kSum;
  if (up == "AVG" || up == "MEAN") return AggregateFunction::kAvg;
  if (up == "MIN") return AggregateFunction::kMin;
  if (up == "MAX") return AggregateFunction::kMax;
  return Status::InvalidArgument("unknown aggregate function '" + name + "'");
}

const std::vector<AggregateFunction>& AllAggregateFunctions() {
  static const std::vector<AggregateFunction> kAll = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kMin,
      AggregateFunction::kMax};
  return kAll;
}

std::string AggregateSpec::EffectiveName() const {
  if (!output_name.empty()) return output_name;
  std::string arg = input.empty() ? "*" : input;
  return std::string(AggregateFunctionToSql(func)) + "(" + arg + ")";
}

std::string AggregateSpec::ToSql() const {
  std::string arg = input.empty() ? "*" : input;
  std::string out =
      std::string(AggregateFunctionToSql(func)) + "(" + arg + ")";
  if (filter) {
    out += " FILTER (WHERE " + filter->ToSql() + ")";
  }
  if (!output_name.empty()) {
    out += " AS " + output_name;
  }
  return out;
}

AggregateSpec AggregateSpec::Count(std::string output_name) {
  AggregateSpec s;
  s.func = AggregateFunction::kCount;
  s.output_name = std::move(output_name);
  return s;
}

AggregateSpec AggregateSpec::Make(AggregateFunction f, std::string input,
                                  std::string output_name,
                                  PredicatePtr filter) {
  AggregateSpec s;
  s.func = f;
  s.input = std::move(input);
  s.output_name = std::move(output_name);
  s.filter = std::move(filter);
  return s;
}

AggPayloadPlan PlanAggPayloads(const std::vector<AggregateSpec>& aggregates) {
  AggPayloadPlan plan;
  plan.payload_of.assign(aggregates.size(), 0);
  auto count_only = [&](size_t j) {
    return aggregates[j].input.empty() ||
           aggregates[j].func == AggregateFunction::kCount;
  };
  // The payload of this kind over aggregate j's input and FILTER; added
  // when `create` is set, SIZE_MAX when absent otherwise.
  auto find = [&](size_t j, bool counts_only, bool create) {
    for (size_t p = 0; p < plan.payloads.size(); ++p) {
      const AggregateSpec& other = aggregates[plan.payloads[p].spec];
      if (plan.payloads[p].count_only == counts_only &&
          other.input == aggregates[j].input &&
          other.filter.get() == aggregates[j].filter.get()) {
        return p;
      }
    }
    if (!create) return SIZE_MAX;
    plan.payloads.push_back(AggPayload{j, counts_only});
    return plan.payloads.size() - 1;
  };
  // Full payloads first, so a COUNT anywhere in the list can ride on one.
  for (size_t j = 0; j < aggregates.size(); ++j) {
    if (!count_only(j)) plan.payload_of[j] = find(j, false, true);
  }
  for (size_t j = 0; j < aggregates.size(); ++j) {
    if (!count_only(j)) continue;
    const size_t full = find(j, false, false);  // never for COUNT(*)
    plan.payload_of[j] = full != SIZE_MAX ? full : find(j, true, true);
  }
  return plan;
}

}  // namespace seedb::db
