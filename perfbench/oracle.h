#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/query.h"
#include "engine/table.h"

namespace perfbench {

/// Brute-force reference for star aggregate queries. It shares no code
/// with the engine's compiler, hash tables or executors: every fact row is
/// evaluated on its own (fact filters, then per join a key lookup in a
/// plain std::unordered_map and the dimension filter on the matched row),
/// and qualifying measures are summed with wrapping arithmetic.
class Oracle {
 public:
  /// Evaluates `query`. Fails on a missing column or a duplicate
  /// dimension key (the engine requires unique dimension keys).
  pump::Result<pump::engine::QueryResult> Evaluate(
      const pump::engine::Query& query);

 private:
  using KeyIndex = std::unordered_map<std::int64_t, std::size_t>;

  /// Key -> row index of one dimension key column, built on first use
  /// and shared by every query joining the same (table, column).
  pump::Result<const KeyIndex*> IndexFor(const pump::engine::Table* table,
                                         const std::string& column);

  std::map<std::pair<const pump::engine::Table*, std::string>, KeyIndex>
      indexes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
