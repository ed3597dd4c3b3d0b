// The bench harness shared by every suite in bench_main: a row/case registry
// (each bench/*.cc exports its cases), plus the helpers the experiments share
// — run a scenario end to end on the deterministic runtime and collect the
// metrics the paper's statistics module reported (execution time, message
// counts, bytes on pipes, tuples moved).
#ifndef P2PDB_BENCH_BENCH_COMMON_H_
#define P2PDB_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/util/status.h"
#include "src/workload/scenario.h"

namespace p2pdb::bench {

/// One emitted bench row: a name plus its metrics in emission order.
struct Row {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  /// The named metric, or 0 when the row does not carry it.
  double Metric(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return v;
    }
    return 0;
  }
};

struct RunArgs {
  int repeat = 2;
  /// Where a case with a traced run dumps its observability snapshot; empty
  /// for none.
  std::string obs_path;
};

/// A registered bench case. `run` applies its suite's best-of-repeat rule
/// itself and returns the rows to emit; an error fails the whole run.
struct Case {
  std::string suite;
  std::string name;
  std::function<Result<std::vector<Row>>(const RunArgs&)> run;
};

// The suites. Each bench/*.cc defines one of these.
std::vector<Case> UpdateCases();
std::vector<Case> RecoveryCases();
std::vector<Case> TcpCases();
std::vector<Case> QueryCases();
// The paper's Section-5 experiments (suite "paper").
std::vector<Case> ExamplePathsCases();  // E1
std::vector<Case> Fig1TraceCases();     // E2
std::vector<Case> ScalabilityCases();   // E3
std::vector<Case> DistributionCases();  // E4
std::vector<Case> DepthCases();         // E5
std::vector<Case> DeltaCases();         // A1
std::vector<Case> AsyncCases();         // A2
std::vector<Case> DiscoveryCases();     // A3
std::vector<Case> DynamicsCases();      // A4
std::vector<Case> ChaseCases();         // A5
std::vector<Case> PartialCases();       // A6
std::vector<Case> BaselinesCases();     // B1

/// Set P2PDB_BENCH_FULL=1 to run paper-scale record counts everywhere
/// (cliques are cubic in data volume; the default trims them for CI).
inline bool FullScale() {
  const char* env = std::getenv("P2PDB_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Runs `measure` `repeat` times and keeps the row with the least wall_ms
/// (the least-noise estimator). The first failed repeat fails the case.
Result<std::vector<Row>> BestOf(int repeat,
                                const std::function<Result<Row>()>& measure);

/// A single-row case under the best-of-repeat rule.
Case BestOfCase(std::string suite, std::string name,
                std::function<Result<Row>()> measure);

struct RunMetrics {
  double sim_ms = 0;        ///< Simulated network time to quiescence.
  double wall_ms = 0;       ///< Host wall-clock time.
  uint64_t messages = 0;    ///< Total protocol messages.
  uint64_t bytes = 0;       ///< Total bytes on pipes.
  uint64_t inserted = 0;    ///< Tuples materialized across all nodes.
  uint64_t token_passes = 0;
  bool all_closed = false;
  size_t depth = 0;
};

/// Builds the scenario, runs discovery then the global update on a
/// SimRuntime, and reports the update phase. Any failing step is an error.
Result<RunMetrics> RunScenario(const workload::ScenarioOptions& options,
                               core::Session::Options session_options = {});

/// A row carrying `m`'s fields as metrics (all_closed as 1/0).
Row ScenarioRow(std::string name, const RunMetrics& m);

}  // namespace p2pdb::bench

#endif  // P2PDB_BENCH_BENCH_COMMON_H_
