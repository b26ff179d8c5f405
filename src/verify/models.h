#ifndef PUMP_VERIFY_MODELS_H_
#define PUMP_VERIFY_MODELS_H_

// The verifier's model suite: small deterministic concurrency models
// that drive the repository's REAL migrated structures (plan::BuildCache,
// common::CancelToken, server::QueryEngine, the exec dispatchers and
// pool, the parallel dimension-table build, the obs::trace ring) under
// the schedule explorer, plus the seeded-mutant kill harness that
// proves the models can actually detect the bug classes they claim to
// cover.
//
// Only meaningful under PUMP_VERIFY; normal builds see an empty header
// (tools/verifydump prints a stub report instead).

#include <cstdint>
#include <string>
#include <vector>

#include "verify/explore.h"
#include "verify/lock_order.h"

#if defined(PUMP_VERIFY) && PUMP_VERIFY

#include <functional>

namespace pump::verify {

/// One model: a deterministic body (fresh state per run) exercising one
/// migrated structure, with per-model exploration budgets.
struct Model {
  std::string name;
  std::function<void()> body;
  /// DFS run budget (executed + pruned runs).
  std::uint64_t max_schedules = 2'000;
  /// PCT-sampled top-up runs when DFS does not exhaust the tree.
  std::uint64_t sample_schedules = 0;
};

/// One seeded mutant: arming `mutation` (verify/mutation.h) must make
/// `model` fail on some explored schedule.
struct Mutant {
  std::string mutation;
  std::string model;
};

/// The registered model suite, one entry per migrated structure facet.
const std::vector<Model>& Models();

/// The seeded mutants and the model expected to kill each.
const std::vector<Mutant>& Mutants();

struct ModelRunReport {
  std::string model;
  ExploreResult result;
};

struct MutantRunReport {
  std::string mutation;
  std::string model;
  bool killed = false;
  /// Failure message and replay string of the killing schedule.
  std::string failure;
  std::string failing_schedule;
};

struct SuiteReport {
  std::vector<ModelRunReport> models;
  std::vector<MutantRunReport> mutants;
  /// Every model passed with no mutation armed.
  bool clean_pass = false;
  /// Every seeded mutant was killed (vacuously false when skipped).
  bool mutants_all_killed = false;
  /// Distinct schedules executed across the clean model runs.
  std::uint64_t schedules_explored = 0;
  std::uint64_t schedules_pruned = 0;
  std::uint64_t total_steps = 0;
  int max_lock_depth = 0;
};

struct SuiteOptions {
  /// Scales every model's schedule budgets (1.0 = the quick lane).
  double budget_scale = 1.0;
  /// Base seed of the PCT sampler.
  std::uint64_t seed = 1;
  bool run_mutants = true;
};

/// Runs the clean suite and (optionally) the mutant-kill harness.
/// Lock acquisitions across all schedules feed `lock_order`.
SuiteReport RunSuite(const SuiteOptions& options,
                     LockOrderGraph* lock_order);

}  // namespace pump::verify

#endif  // PUMP_VERIFY

#endif  // PUMP_VERIFY_MODELS_H_
