// The one bench binary: runs the registered cases of a suite and writes
// their rows to a BENCH_<suite>.json file so the perf trajectory is
// machine-readable.
//
//   ./bench_main [--suite update|recovery|tcp|queries|paper|all]
//                [--filter SUBSTR[,SUBSTR...]] [--repeat N] [--out FILE]
//                [--obs FILE]
//
// The `update` suite (the default) runs one end-to-end update per topology
// family of Section 5's experiments. Repeats take the minimum wall time
// (least-noise estimator); simulated metrics are deterministic and identical
// across repeats. A case that fails makes the run exit nonzero.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::bench {

Result<RunMetrics> RunScenario(const workload::ScenarioOptions& options,
                               core::Session::Options session_options) {
  RunMetrics metrics;
  P2PDB_ASSIGN_OR_RETURN(auto edges,
                         workload::GenerateTopology(options.topology));
  metrics.depth = workload::TopologyDepth(edges);
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));
  net::SimRuntime rt(net::SimRuntime::Options{.seed = 42,
                                              .max_events = 500'000'000});
  core::Session session(system, &rt, session_options);

  auto start = Clock::now();
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  rt.stats().Reset();  // Report the update phase, as the paper does.
  uint64_t t0 = rt.NowMicros();
  P2PDB_RETURN_IF_ERROR(session.RunUpdate());
  metrics.wall_ms = MsSince(start);
  metrics.sim_ms = static_cast<double>(rt.NowMicros() - t0) / 1000.0;
  metrics.messages = rt.stats().total_messages();
  metrics.bytes = rt.stats().total_bytes();
  metrics.all_closed = session.AllClosed();
  for (size_t n = 0; n < session.peer_count(); ++n) {
    metrics.inserted += session.peer(n).update().stats().tuples_inserted;
    metrics.token_passes += session.peer(n).update().stats().token_passes;
  }
  return metrics;
}

Row ScenarioRow(std::string name, const RunMetrics& m) {
  return Row{std::move(name),
             {{"wall_ms", m.wall_ms},
              {"sim_ms", m.sim_ms},
              {"messages", static_cast<double>(m.messages)},
              {"bytes", static_cast<double>(m.bytes)},
              {"tuples_inserted", static_cast<double>(m.inserted)},
              {"token_passes", static_cast<double>(m.token_passes)},
              {"depth", static_cast<double>(m.depth)},
              {"all_closed", m.all_closed ? 1.0 : 0.0}}};
}

Result<std::vector<Row>> BestOf(int repeat,
                                const std::function<Result<Row>()>& measure) {
  Row best;
  for (int i = 0; i < repeat; ++i) {
    P2PDB_ASSIGN_OR_RETURN(Row row, measure());
    if (i == 0 || row.Metric("wall_ms") < best.Metric("wall_ms")) {
      best = std::move(row);
    }
  }
  return std::vector<Row>{std::move(best)};
}

Case BestOfCase(std::string suite, std::string name,
                std::function<Result<Row>()> measure) {
  return Case{std::move(suite), std::move(name),
              [measure = std::move(measure)](const RunArgs& args) {
                return BestOf(args.repeat, measure);
              }};
}

std::vector<Case> UpdateCases() {
  const size_t records = FullScale() ? 1000 : 200;
  using Kind = workload::TopologySpec::Kind;
  auto scenario = [](Kind kind, size_t nodes, size_t records_per_node) {
    workload::ScenarioOptions options;
    options.topology.kind = kind;
    options.topology.nodes = nodes;
    options.topology.layers = 4;
    options.records_per_node = records_per_node;
    return options;
  };
  workload::ScenarioOptions overlap = scenario(Kind::kTree, 15, records);
  overlap.link_overlap_prob = 0.5;  // The paper's second distribution.
  const std::vector<std::pair<std::string, workload::ScenarioOptions>>
      scenarios = {
          {"tree_15", scenario(Kind::kTree, 15, records)},
          {"layered_dag_12", scenario(Kind::kLayeredDag, 12, records)},
          {"clique_5", scenario(Kind::kClique, 5, FullScale() ? records : 60)},
          {"chain_12", scenario(Kind::kChain, 12, records)},
          {"tree_15_overlap50", overlap},
      };

  std::vector<Case> cases;
  for (const auto& [name, options] : scenarios) {
    cases.push_back(BestOfCase(
        "update", name, [name = name, options = options]() -> Result<Row> {
          P2PDB_ASSIGN_OR_RETURN(RunMetrics m, RunScenario(options));
          if (!m.all_closed) {
            return Status::Internal(name + " did not reach quiescence");
          }
          const double wall_s = m.wall_ms / 1000.0;
          Row row = ScenarioRow(name, m);
          row.metrics.emplace_back("tuples_per_sec",
                                   wall_s > 0 ? m.inserted / wall_s : 0);
          row.metrics.emplace_back("messages_per_sec",
                                   wall_s > 0 ? m.messages / wall_s : 0);
          return row;
        }));
  }
  return cases;
}

namespace {

constexpr const char* kUsage =
    "usage: bench_main [--suite update|recovery|tcp|queries|paper|all] "
    "[--filter SUBSTR[,SUBSTR...]] [--repeat N] [--out FILE] [--obs FILE]\n";

std::vector<Case> AllCases() {
  std::vector<Case> all;
  for (auto suite :
       {UpdateCases, RecoveryCases, TcpCases, QueryCases, ExamplePathsCases,
        Fig1TraceCases, ScalabilityCases, DistributionCases, DepthCases,
        DeltaCases, AsyncCases, DiscoveryCases, DynamicsCases, ChaseCases,
        PartialCases, BaselinesCases}) {
    for (Case& c : suite()) all.push_back(std::move(c));
  }
  return all;
}

/// True when `name` contains any comma-separated part of `filter`.
bool Matches(const std::string& name, const std::string& filter) {
  if (filter.empty()) return true;
  size_t begin = 0;
  for (;;) {
    size_t end = filter.find(',', begin);
    std::string part = filter.substr(begin, end - begin);
    if (!part.empty() && name.find(part) != std::string::npos) return true;
    if (end == std::string::npos) return false;
    begin = end + 1;
  }
}

void PrintRow(const Row& row) {
  std::printf("%-38s", row.name.c_str());
  for (const auto& [key, value] : row.metrics) {
    std::printf(" %s=%.6g", key.c_str(), value);
  }
  std::printf("\n");
}

bool WriteJson(const std::string& path, const std::string& suite,
               const std::vector<Row>& rows, int repeat) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << std::setprecision(12);
  out << "{\n  \"suite\": \"p2pdb_" << suite << "\",\n  \"repeat\": "
      << repeat << ",\n  \"full_scale\": " << (FullScale() ? "true" : "false")
      << ",\n  \"benches\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "    {\n      \"name\": \"" << rows[i].name << "\"";
    for (const auto& [key, value] : rows[i].metrics) {
      out << ",\n      \"" << key << "\": " << value;
    }
    out << "\n    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  return !out.fail();
}

int Main(int argc, char** argv) {
  std::string suite = "update";
  std::string filter;
  std::string out_path;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    if (std::strcmp(argv[i], "--suite") == 0) {
      suite = argv[++i];
    } else if (std::strcmp(argv[i], "--filter") == 0) {
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0) {
      args.repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      args.obs_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if (suite == "all" && !args.obs_path.empty()) {
    // Both the tcp and the queries suite dump a snapshot; one file cannot
    // hold two.
    std::fprintf(stderr, "error: --obs needs a single suite\n");
    return 2;
  }
  if (out_path.empty()) out_path = "BENCH_" + suite + ".json";

  // Line-buffer stdout even when redirected, so long suites show progress.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::vector<Row> rows;
  size_t ran = 0;
  size_t failed = 0;
  for (const Case& c : AllCases()) {
    if ((suite != "all" && c.suite != suite) || !Matches(c.name, filter)) {
      continue;
    }
    ++ran;
    Result<std::vector<Row>> result = c.run(args);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s/%s failed: %s\n", c.suite.c_str(),
                   c.name.c_str(), result.status().ToString().c_str());
      ++failed;
      continue;
    }
    for (Row& row : *result) {
      PrintRow(row);
      rows.push_back(std::move(row));
    }
  }

  if (ran == 0) {
    std::fprintf(stderr, "no '%s' cases matched filter '%s'\n", suite.c_str(),
                 filter.c_str());
    return 1;
  }
  if (!WriteJson(out_path, suite, rows, args.repeat)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu rows)\n", out_path.c_str(), rows.size());
  if (failed > 0) {
    std::fprintf(stderr, "error: %zu of %zu cases failed\n", failed, ran);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace p2pdb::bench

int main(int argc, char** argv) { return p2pdb::bench::Main(argc, argv); }
