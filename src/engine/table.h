#ifndef PUMP_ENGINE_TABLE_H_
#define PUMP_ENGINE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "verify/sync.h"

namespace pump::engine {

/// A column's smallest and largest value; max_key < min_key when empty.
struct KeyRange {
  std::int64_t min_key = 0;
  std::int64_t max_key = -1;
};

/// A named, column-oriented table of 64-bit integer columns — the storage
/// unit of the engine layer. Narrow integer columns match the paper's
/// workloads (Sec. 7.1) and keep the executor simple; wider types would
/// dictionary-encode into this representation.
class Table {
 public:
  Table() { verify::NamedMutex(&range_mutex_, "engine.table.ranges"); }
  /// Moves carry the columns, not the memoized ranges (nor their mutex).
  Table(Table&& other) noexcept : Table() { *this = std::move(other); }
  Table& operator=(Table&& other) noexcept {
    rows_ = other.rows_;
    order_ = std::move(other.order_);
    columns_ = std::move(other.columns_);
    ranges_.clear();
    return *this;
  }

  /// Adds a column; every column must have the same length. The first
  /// column fixes the row count.
  Status AddColumn(const std::string& name,
                   std::vector<std::int64_t> values) {
    if (columns_.count(name) > 0) {
      return Status::AlreadyExists("column '" + name + "' exists");
    }
    if (!columns_.empty() && values.size() != rows_) {
      return Status::InvalidArgument("column length mismatch");
    }
    rows_ = values.size();
    order_.push_back(name);
    columns_.emplace(name, std::move(values));
    return Status::OK();
  }

  /// Looks up a column by name.
  Result<const std::vector<std::int64_t>*> Column(
      const std::string& name) const {
    auto it = columns_.find(name);
    if (it == columns_.end()) {
      return Status::NotFound("no column '" + name + "'");
    }
    return &it->second;
  }

  /// The column's key range, scanned once on the first request (however
  /// many race to it) and kept: columns are immutable once added.
  Result<KeyRange> ColumnRange(const std::string& name) const {
    PUMP_ASSIGN_OR_RETURN(const auto* values, Column(name));
    std::lock_guard<verify::Mutex> lock(range_mutex_);
    const auto [it, fresh] = ranges_.try_emplace(name);
    if (fresh) {
      obs::MetricsRegistry::Instance()
          .GetCounter("engine.table.range_scans").Add();
      if (!values->empty()) {
        const auto [lo, hi] = std::ranges::minmax(*values);
        it->second = KeyRange{lo, hi};
      }
    }
    return it->second;
  }

  /// True when the column exists.
  bool HasColumn(const std::string& name) const {
    return columns_.count(name) > 0;
  }

  /// Number of rows.
  std::size_t rows() const { return rows_; }
  /// Number of columns.
  std::size_t column_count() const { return columns_.size(); }
  /// Column names in insertion order.
  const std::vector<std::string>& column_names() const { return order_; }
  /// Total bytes across all columns (8 B per value).
  std::uint64_t bytes() const { return rows_ * column_count() * 8; }

 private:
  std::size_t rows_ = 0;
  std::vector<std::string> order_;
  std::unordered_map<std::string, std::vector<std::int64_t>> columns_;
  mutable verify::Mutex range_mutex_;
  mutable std::unordered_map<std::string, KeyRange> ranges_;
};

}  // namespace pump::engine

#endif  // PUMP_ENGINE_TABLE_H_
