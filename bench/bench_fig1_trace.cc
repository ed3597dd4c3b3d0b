// E2 — regenerates Figure 1: a sample execution of the discovery and update
// algorithm over the running example. The row counts the message sequence
// by the paper's function names (requestNodes/processAnswer during
// discovery; Query/Answer during update); the fix-point machinery (tokens,
// SCC closures) is counted apart, as Figure 1 shows only the data protocol.
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::bench {
namespace {

std::string PaperName(net::MessageType type) {
  // Figure 1 uses the paper's function names.
  switch (type) {
    case net::MessageType::kDiscoverRequest:
      return "requestNodes";
    case net::MessageType::kDiscoverAnswer:
      return "processAnswer";
    case net::MessageType::kDiscoverClosure:
      return "closeTopology";
    case net::MessageType::kUpdateStart:
      return "globalUpdate";
    case net::MessageType::kQueryRequest:
      return "Query";
    case net::MessageType::kQueryAnswer:
      return "Answer";
    default:
      return net::MessageTypeName(type);
  }
}

Result<std::vector<Row>> Fig1Trace() {
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::MakeRunningExample());
  net::SimRuntime rt;
  std::map<std::string, double> counts;
  double fixpoint_messages = 0;
  rt.set_tracer([&](uint64_t, const net::Message& msg) {
    if (msg.type == net::MessageType::kToken ||
        msg.type == net::MessageType::kSccClosed) {
      ++fixpoint_messages;
    } else {
      ++counts[PaperName(msg.type)];
    }
  });
  core::Session session(system, &rt);
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  P2PDB_RETURN_IF_ERROR(session.RunUpdate());

  Row row{"e2_fig1_trace",
          {{"sim_ms", static_cast<double>(rt.NowMicros()) / 1000.0},
           {"all_closed", session.AllClosed() ? 1.0 : 0.0},
           {"fixpoint_messages", fixpoint_messages}}};
  for (const auto& [name, count] : counts) {
    row.metrics.emplace_back("msgs_" + name, count);
  }
  return std::vector<Row>{std::move(row)};
}

}  // namespace

std::vector<Case> Fig1TraceCases() {
  return {Case{"paper", "e2_fig1_trace",
               [](const RunArgs&) { return Fig1Trace(); }}};
}

}  // namespace p2pdb::bench
