#include "oracle.h"

namespace perfbench {

namespace {

using pump::engine::Filter;
using pump::ops::CompareOp;

bool Holds(CompareOp op, std::int64_t value, std::int64_t literal) {
  switch (op) {
    case CompareOp::kLt:
      return value < literal;
    case CompareOp::kLe:
      return value <= literal;
    case CompareOp::kEq:
      return value == literal;
    case CompareOp::kGe:
      return value >= literal;
    case CompareOp::kGt:
      return value > literal;
    case CompareOp::kNe:
      return value != literal;
  }
  return false;
}

struct BoundFilter {
  const std::vector<std::int64_t>* column;
  CompareOp op;
  std::int64_t literal;
};

struct BoundJoin {
  const std::vector<std::int64_t>* fact_keys;
  const std::unordered_map<std::int64_t, std::size_t>* index;
  bool has_filter;
  BoundFilter dim_filter;
};

pump::Result<BoundFilter> Bind(const pump::engine::Table& table,
                               const Filter& filter) {
  PUMP_ASSIGN_OR_RETURN(const auto* column, table.Column(filter.column));
  return BoundFilter{column, filter.op, filter.literal};
}

}  // namespace

pump::Result<const Oracle::KeyIndex*> Oracle::IndexFor(
    const pump::engine::Table* table, const std::string& column) {
  auto it = indexes_.find({table, column});
  if (it != indexes_.end()) return &it->second;
  PUMP_ASSIGN_OR_RETURN(const auto* keys, table->Column(column));
  KeyIndex index;
  index.reserve(keys->size());
  for (std::size_t row = 0; row < keys->size(); ++row) {
    if (!index.emplace((*keys)[row], row).second) {
      return pump::Status::AlreadyExists("duplicate dimension key " +
                                         std::to_string((*keys)[row]) +
                                         " in column " + column);
    }
  }
  return &indexes_.emplace(std::make_pair(table, column), std::move(index))
              .first->second;
}

pump::Result<pump::engine::QueryResult> Oracle::Evaluate(
    const pump::engine::Query& query) {
  if (query.fact == nullptr) {
    return pump::Status::InvalidArgument("query has no fact table");
  }
  const pump::engine::Table& fact = *query.fact;
  PUMP_ASSIGN_OR_RETURN(const auto* measure,
                        fact.Column(query.measure_column));
  std::vector<BoundFilter> filters;
  for (const Filter& filter : query.filters) {
    PUMP_ASSIGN_OR_RETURN(BoundFilter bound, Bind(fact, filter));
    filters.push_back(bound);
  }
  std::vector<BoundJoin> joins;
  for (const pump::engine::JoinClause& join : query.joins) {
    if (join.dimension == nullptr) {
      return pump::Status::InvalidArgument("join without dimension");
    }
    BoundJoin bound{};
    PUMP_ASSIGN_OR_RETURN(bound.fact_keys,
                          fact.Column(join.fact_key_column));
    PUMP_ASSIGN_OR_RETURN(bound.index,
                          IndexFor(join.dimension, join.dim_key_column));
    bound.has_filter = join.has_dim_filter;
    if (join.has_dim_filter) {
      PUMP_ASSIGN_OR_RETURN(bound.dim_filter,
                            Bind(*join.dimension, join.dim_filter));
    }
    joins.push_back(bound);
  }

  std::uint64_t rows = 0;
  std::uint64_t sum = 0;  // Wraps like two's complement, never UB.
  for (std::size_t i = 0; i < fact.rows(); ++i) {
    bool qualifies = true;
    for (const BoundFilter& filter : filters) {
      qualifies = qualifies && Holds(filter.op, (*filter.column)[i],
                                     filter.literal);
    }
    for (const BoundJoin& join : joins) {
      if (!qualifies) break;
      const auto match = join.index->find((*join.fact_keys)[i]);
      qualifies = match != join.index->end() &&
                  (!join.has_filter ||
                   Holds(join.dim_filter.op,
                         (*join.dim_filter.column)[match->second],
                         join.dim_filter.literal));
    }
    if (!qualifies) continue;
    ++rows;
    sum += static_cast<std::uint64_t>((*measure)[i]);
  }
  return pump::engine::QueryResult{rows, static_cast<std::int64_t>(sum)};
}

}  // namespace perfbench
