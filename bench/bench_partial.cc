// A6 — query-dependent update vs global update: the paper distinguishes the
// global update (materialize everything everywhere) from query-dependent
// updates that pull only the relations one local query needs, bounded by the
// SN path mechanism of algorithm A4. The query-dependent mode still pulls
// the root's transitive sources (its answer needs them) but skips
// materialization at sibling nodes; with a single consumer the message
// counts converge, which is why the paper materializes globally when every
// node will eventually query.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"
#include "src/workload/dblp.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Partial() {
  const size_t records = FullScale() ? 650 : 200;
  using Kind = workload::TopologySpec::Kind;
  std::vector<Row> rows;
  for (Kind kind : {Kind::kTree, Kind::kLayeredDag}) {
    workload::ScenarioOptions options;
    options.topology.kind = kind;
    options.topology.nodes = 15;
    options.topology.layers = 4;
    options.records_per_node = records;
    P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                           workload::BuildScenario(options));
    for (bool partial : {false, true}) {
      net::SimRuntime rt;
      core::Session session(system, &rt);
      P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
      rt.stats().Reset();
      uint64_t t0 = rt.NowMicros();
      // Query-dependent: the root only wants its article relation filled
      // (needed by any local query over it); nothing else materializes.
      P2PDB_RETURN_IF_ERROR(
          partial ? session.RunPartialUpdate(
                        0, {workload::NodeRelationName(0, "art")})
                  : session.RunUpdate());
      rows.push_back(Row{
          std::string("a6_partial_") + workload::TopologyKindName(kind) +
              (partial ? "_query_dependent" : "_global"),
          {{"sim_ms", static_cast<double>(rt.NowMicros() - t0) / 1000.0},
           {"messages", static_cast<double>(rt.stats().total_messages())},
           {"bytes", static_cast<double>(rt.stats().total_bytes())},
           {"root_tuples",
            static_cast<double>(session.peer(0).db().TotalTuples())}}});
    }
  }
  return rows;
}

}  // namespace

std::vector<Case> PartialCases() {
  return {Case{"paper", "a6_partial",
               [](const RunArgs&) { return Partial(); }}};
}

}  // namespace p2pdb::bench
