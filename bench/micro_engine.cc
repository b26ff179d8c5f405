// Engine-path microbench: each SSB query and TPC-H Q6 compiled to the
// physical-plan IR and executed (plan::Compile + plan::ExecutePlan) on
// one worker, with the trace recorder off and on. Every timed run is
// checked against the brute-force oracle (perfbench/oracle.h).
//
// The disabled-tracing overhead budget (<= 5%, DESIGN.md Sec. 11) is
// gated by scripts/check.sh step 8, which compares this binary's
// `engine_query_us "plan_ir ..."` records against the same binary built
// with -DPUMP_TRACE=OFF. The `traced` records and
// `engine_trace_overhead_pct` report the cost of recording spans.
//
// Hand-rolled harness (no google-benchmark): compile time is measured
// separately from execution so the timed region is the morsel loop, and
// records are emitted via --json=<path>. --quick shrinks the fact table
// to smoke-test proportions.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/json_writer.h"
#include "common/statistics.h"
#include "data/tpch.h"
#include "engine/ssb.h"
#include "obs/trace.h"
#include "perfbench/oracle.h"
#include "plan/compiler.h"
#include "plan/executor.h"
#include "plan/q6_bridge.h"

namespace pump {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BenchCase {
  std::string name;
  engine::Query query;
};

/// One worker: a disabled span costs the same per morsel on every worker,
/// and with more workers the scheduler's run-to-run spread swamps that
/// cost in the with/without-tracing comparison.
constexpr std::size_t kWorkers = 1;

double Mean(const std::vector<double>& samples) {
  RunningStats stats;
  for (double sample : samples) stats.Add(sample);
  return stats.mean();
}

void BenchQuery(bench::JsonWriter* json, const BenchCase& bench_case,
                const engine::QueryResult& expected, int runs) {
  const std::string config = bench_case.name + " workers=" +
                             std::to_string(kWorkers);

  // Compile once outside the timed region (plans are reusable), then time
  // execution; compile cost is reported as its own metric.
  const auto compile_start = Clock::now();
  Result<plan::PhysicalPlan> physical = plan::Compile(bench_case.query);
  const double compile_us = SecondsSince(compile_start) * 1e6;
  if (!physical.ok()) {
    std::cerr << "FATAL: " << config
              << ": compile failed: " << physical.status().ToString() << "\n";
    std::exit(1);
  }
  engine::ExecOptions options;
  options.workers = kWorkers;
  options.gpu_plan = false;
  auto time_plan = [&] {
    return bench::RepeatSamples(runs, bench::kDefaultWarmup, [&] {
      const auto start = Clock::now();
      Result<engine::ExecReport> got =
          plan::ExecutePlan(physical.value(), options);
      const double us = SecondsSince(start) * 1e6;
      if (!got.ok() || !(got.value().result == expected)) {
        std::cerr << "FATAL: " << config << ": result differs from the "
                  << "oracle\n";
        std::exit(1);
      }
      return us;
    });
  };
  const std::vector<double> plan_ir = time_plan();

  // Same plan with the trace recorder runtime-enabled: the full span
  // recording cost. The rings wrap silently, so long runs stay bounded.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
  recorder.Clear();
  recorder.Enable();
  const std::vector<double> traced = time_plan();
  recorder.Disable();
  recorder.Clear();

  const double plan_ir_mean = Mean(plan_ir);
  const double traced_mean = Mean(traced);
  const double trace_overhead_pct =
      plan_ir_mean > 0.0
          ? (traced_mean - plan_ir_mean) / plan_ir_mean * 100.0
          : 0.0;
  std::cout << "  " << config << "\n"
            << "    plan IR: " << plan_ir_mean << " us/query (compile "
            << compile_us << " us, once)\n"
            << "    traced:  " << traced_mean
            << " us/query (recorder enabled)\n";
  std::printf("    tracing enabled: %+.2f%% over disabled\n",
              trace_overhead_pct);

  json->RecordSamples("engine_query_us", "plan_ir " + config, plan_ir);
  json->RecordSamples("engine_query_us", "traced " + config, traced);
  json->Record("engine_plan_compile_us", config, compile_us, 0.0, 1);
  json->Record("engine_trace_overhead_pct", config, trace_overhead_pct, 0.0,
               runs);
}

}  // namespace
}  // namespace pump

int main(int argc, char** argv) {
  pump::bench::JsonWriter json =
      pump::bench::JsonWriter::FromArgs(&argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  const std::size_t rows = quick ? 50'000 : 2'000'000;
  // Bumped from 3/kPaperRuns: without warmup + extra runs the stderr was
  // comparable to the 5% overhead ceiling itself.
  const int runs = quick ? 5 : 15;

  pump::bench::PrintBanner(
      std::cout, "micro_engine/plan_ir",
      "Per-query latency (us) over " + std::to_string(rows) +
          " fact rows: the compiled physical-plan IR (CPU placement, " +
          std::to_string(pump::kWorkers) +
          " worker), trace recorder off and on");

  const pump::engine::SsbDatabase db =
      pump::engine::SsbDatabase::Generate(rows, /*seed=*/42);
  std::vector<pump::BenchCase> cases;
  for (const pump::engine::NamedQuery& named : pump::engine::SsbSuite(db)) {
    cases.push_back({named.name, named.query});
  }
  const pump::plan::Q6PlanInput q6 =
      pump::plan::Q6PlanInput::From(pump::data::GenerateLineitemQ6(rows, 7));
  cases.push_back({"q6", q6.MakeQuery()});

  perfbench::Oracle oracle;
  for (const pump::BenchCase& bench_case : cases) {
    pump::Result<pump::engine::QueryResult> expected =
        oracle.Evaluate(bench_case.query);
    if (!expected.ok()) {
      std::cerr << "FATAL: " << bench_case.name
                << ": oracle failed: " << expected.status().ToString()
                << "\n";
      return 1;
    }
    pump::BenchQuery(&json, bench_case, expected.value(), runs);
  }

  if (!json.Write()) {
    std::cerr << "failed to write " << json.path() << "\n";
    return 1;
  }
  if (json.active()) {
    std::cout << "\nwrote " << json.records().size() << " records to "
              << json.path() << "\n";
  }
  return 0;
}
