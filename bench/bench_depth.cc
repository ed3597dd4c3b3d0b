// E5 — the paper's headline observation: "in the simple topological
// structures (like the tree and the layered acyclic graphs) the execution
// time is linear with respect to the depth of the structure."
//
// Sweeps depth at fixed shape (chains, binary trees, layered DAGs), reports
// simulated execution time, and fits time = a*depth + b per series; the
// fit's maximum relative residual is the linearity check (linear = 1 when it
// is under 25%, matching the paper).
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace p2pdb::bench {
namespace {

struct Sample {
  double depth;
  double time_ms;
};

// Least-squares linear fit; returns max relative residual.
double LinearFitResidual(const std::vector<Sample>& samples, double* a,
                         double* b) {
  double n = static_cast<double>(samples.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Sample& s : samples) {
    sx += s.depth;
    sy += s.time_ms;
    sxx += s.depth * s.depth;
    sxy += s.depth * s.time_ms;
  }
  double denom = n * sxx - sx * sx;
  *a = (n * sxy - sx * sy) / denom;
  *b = (sy - *a * sx) / n;
  double worst = 0;
  for (const Sample& s : samples) {
    double predicted = *a * s.depth + *b;
    double rel = std::abs(predicted - s.time_ms) /
                 (std::abs(s.time_ms) > 1e-9 ? std::abs(s.time_ms) : 1.0);
    if (rel > worst) worst = rel;
  }
  return worst;
}

Result<std::vector<Row>> Depth() {
  const size_t records = FullScale() ? 500 : 100;
  using Kind = workload::TopologySpec::Kind;

  struct Series {
    const char* name;
    Kind kind;
    std::vector<size_t> sizes;  // node counts (chain) or layer counts.
  };
  std::vector<Series> series = {
      {"chain", Kind::kChain, {3, 5, 7, 9, 11, 13}},
      {"binary-tree", Kind::kTree, {3, 7, 15, 31, 63}},
      {"layered-dag", Kind::kLayeredDag, {4, 7, 10, 13, 16}},
  };

  std::vector<Row> rows;
  for (const Series& s : series) {
    const std::string prefix = std::string("e5_depth_") + s.name + "_";
    std::vector<Sample> samples;
    for (size_t size : s.sizes) {
      workload::ScenarioOptions options;
      options.topology.kind = s.kind;
      options.topology.nodes = size;
      options.topology.fanout = 2;
      // Layered DAG: ~3 nodes per layer; depth = layers - 1.
      options.topology.layers = (size + 2) / 3;
      options.records_per_node = records;
      P2PDB_ASSIGN_OR_RETURN(RunMetrics m, RunScenario(options));
      rows.push_back(ScenarioRow(prefix + std::to_string(size), m));
      samples.push_back(Sample{static_cast<double>(m.depth), m.sim_ms});
    }
    double a = 0, b = 0;
    double residual = LinearFitResidual(samples, &a, &b);
    rows.push_back(Row{prefix + "fit",
                       {{"slope_ms_per_depth", a},
                        {"intercept_ms", b},
                        {"max_relative_residual", residual},
                        {"linear", residual < 0.25 ? 1.0 : 0.0}}});
  }
  return rows;
}

}  // namespace

std::vector<Case> DepthCases() {
  return {
      Case{"paper", "e5_depth", [](const RunArgs&) { return Depth(); }}};
}

}  // namespace p2pdb::bench
