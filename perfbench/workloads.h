#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "engine/query.h"
#include "engine/ssb.h"
#include "engine/table.h"
#include "plan/compiler.h"
#include "plan/q6_bridge.h"
#include "server/query_engine.h"

namespace perfbench {

/// Which generated database a workload serves.
enum class DataKind : std::uint8_t { kSsb, kSsbWithQ6, kStar };

/// One closed-loop workload: `clients` analysts, each submitting its next
/// query only after the previous one resolved.
struct WorkloadSpec {
  const char* name;
  DataKind data;
  std::size_t clients;
  /// CPU probe workers per query (SubmitOptions::workers).
  std::size_t workers;
  pump::plan::PlacementPolicy policy;
  /// What the traced run checks, so a workload that silently takes the
  /// wrong path fails instead of measuring something else.
  struct Fidelity {
    /// Every result came from the GPU-placed plan; none degraded to CPU.
    bool all_gpu;
    /// The transfer layer moved zero bytes.
    bool no_staging;
    /// Band of the build-cache hit ratio, with nonzero evictions; an
    /// upper bound of 0 leaves the cache unchecked.
    double min_hit_ratio;
    double max_hit_ratio;
  } fidelity;
};

/// The registered workloads, in canonical order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Rows of every generated table (SSB lineorder, TPC-H lineitem, star
/// dimension and fact): the measured size, and the smoke-test size.
inline constexpr std::size_t kFullRows = 1'000'000;
inline constexpr std::size_t kQuickRows = 50'000;

/// Tables the star workload's build cache holds. Requests pick one of 32
/// variants by Zipf rank, so about 60% of them miss and evict: the hit
/// ratio (~0.4) keeps the median latency inside the miss mode instead of
/// on the boundary between hit and miss latencies.
inline constexpr std::size_t kStarCachedTables = 5;

/// One entry of a workload's query mix with its oracle answer.
struct MixQuery {
  std::string name;
  pump::engine::Query query;
  pump::engine::QueryResult expected;
};

/// A generated database plus its query mix. Queries point into the
/// tables, so the dataset is neither copied nor moved once built.
struct Dataset {
  Dataset() = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  std::unique_ptr<pump::engine::SsbDatabase> ssb;
  std::unique_ptr<pump::plan::Q6PlanInput> q6;
  pump::engine::Table star_dim;
  pump::engine::Table star_fact;
  /// Entries sharing a name (the 32 star variants) report under that
  /// one name in the per-layer metrics.
  std::vector<MixQuery> mix;
};

/// Generates the workload's tables with the program's generators
/// (engine::SsbDatabase::Generate, data::GenerateLineitemQ6,
/// data::GenerateInner / GenerateOuterUniform) from `seed`. Expected
/// results are left empty; see FillExpected.
std::unique_ptr<Dataset> Generate(const WorkloadSpec& spec,
                                  std::size_t rows, std::uint64_t seed);

/// Runs the brute-force oracle over every mix query.
pump::Status FillExpected(Dataset* dataset);

/// Compile options equal to what the engine uses for `spec` at zero
/// in-flight load.
pump::plan::CompileOptions CompileOptionsFor(const WorkloadSpec& spec);

/// Engine configuration for `spec` over `dataset`.
pump::server::EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                                             const Dataset& dataset);

/// The request stream of one client: the SSB mixes cycle round-robin from
/// a client-specific offset; the star mix draws Zipf-ranked variants.
class RequestPicker {
 public:
  RequestPicker(const WorkloadSpec& spec, const Dataset& dataset,
                std::uint64_t seed, std::size_t client);

  std::size_t Next();

 private:
  bool zipf_;
  std::size_t size_;
  std::size_t next_;
  pump::Rng rng_;
  pump::data::ZipfGenerator zipf_gen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
