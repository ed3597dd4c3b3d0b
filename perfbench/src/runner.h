// One benchmark run: set up and update fresh sessions of one workload in a
// loop for --seconds, gate every repetition against the centralized fixpoint,
// and print the run's result as one JSON line on stdout.
#ifndef P2PDB_PERFBENCH_RUNNER_H_
#define P2PDB_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>

namespace p2pdb::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  /// false: end-to-end metrics; true: the traced per-layer run.
  bool trace = false;
  bool tiny = false;
  /// Scratch directory for the peers' data directories.
  std::string workdir = ".";
};

/// Runs the benchmark; returns the process exit code. Prints the result line
/// only when the run could be carried out (a failed correctness gate is a
/// result, reported as "correct": false).
int RunBenchmark(const RunOptions& options);

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_RUNNER_H_
