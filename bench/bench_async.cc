// A2 — ablation: asynchronous vs synchronous communication. The paper's
// algorithm "is based on an asynchronous model of communications (while also
// supporting a synchronous alternative) ... reaching the fix-point may be
// faster at expense of an increase of the number of messages".
//
// We model synchrony with a uniform zero-jitter latency (all messages of a
// wave arrive together, so each node recomputes once per round) and
// asynchrony with heavy jitter (answers trickle in; every arrival can trigger
// a recomputation and a fresh delta). Jitter lets early answers start
// downstream work sooner, but staggered arrivals produce more (smaller)
// incremental answers — the paper's time-for-messages trade-off.
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::bench {
namespace {

Result<std::vector<Row>> Async() {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kRing;
  options.topology.nodes = 7;
  options.records_per_node = FullScale() ? 300 : 100;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));

  struct Model {
    const char* name;
    uint64_t base;
    uint64_t jitter;
  };
  std::vector<Row> rows;
  for (const Model& model : {Model{"sync", 1000, 0}, Model{"mild", 1000, 500},
                             Model{"heavy", 1000, 5000}}) {
    net::SimRuntime rt(net::SimRuntime::Options{.seed = 7,
                                                .max_events = 500'000'000});
    rt.pipes().set_default_latency(
        net::LatencyModel{model.base, model.jitter});
    core::Session session(system, &rt);
    P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
    rt.stats().Reset();
    uint64_t t0 = rt.NowMicros();
    P2PDB_RETURN_IF_ERROR(session.RunUpdate());
    rows.push_back(Row{
        std::string("a2_async_") + model.name,
        {{"latency_us", static_cast<double>(model.base)},
         {"jitter_us", static_cast<double>(model.jitter)},
         {"sim_ms", static_cast<double>(rt.NowMicros() - t0) / 1000.0},
         {"messages", static_cast<double>(rt.stats().total_messages())},
         {"bytes", static_cast<double>(rt.stats().total_bytes())},
         {"answers", static_cast<double>(rt.stats().MessagesOfType(
                         net::MessageType::kQueryAnswer))}}});
  }
  return rows;
}

}  // namespace

std::vector<Case> AsyncCases() {
  return {
      Case{"paper", "a2_async", [](const RunArgs&) { return Async(); }}};
}

}  // namespace p2pdb::bench
