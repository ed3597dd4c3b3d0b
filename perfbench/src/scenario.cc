#include "perfbench/src/scenario.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/util/rng.h"
#include "src/util/string_util.h"
#include "src/workload/dblp.h"
#include "src/workload/rulegen.h"

namespace p2pdb::perfbench {
namespace {

// The shape seeds: the defaults of workload::ScenarioOptions and
// workload::TopologySpec, the instances the workloads were sized on. They
// never change with --seed.
constexpr uint64_t kShapeDataSeed = 7;
constexpr uint64_t kShapeTopologySeed = 17;
constexpr size_t kAuthorPool = 200;  // workload::ScenarioOptions' default.
constexpr int64_t kFirstYear = 1990;
constexpr uint64_t kYears = 15;

/// A seeded bijection on [0, n) that maps every value to one with as many
/// decimal digits, so renamed constants keep their encoded length and the
/// wire and WAL byte counts stay exact across seeds.
std::vector<uint64_t> LengthPreservingPermutation(size_t n, Rng* rng) {
  std::vector<uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (uint64_t lo = 0, hi = 10; lo < n; lo = hi, hi *= 10) {
    std::vector<uint64_t> digits(perm.begin() + lo,
                                 perm.begin() + std::min<uint64_t>(hi, n));
    rng->Shuffle(&digits);
    std::copy(digits.begin(), digits.end(), perm.begin() + lo);
  }
  return perm;
}

}  // namespace

Result<WorkloadSpec> LookupWorkload(const std::string& name, bool tiny) {
  using Kind = workload::TopologySpec::Kind;
  WorkloadSpec spec;
  spec.name = name;
  spec.topology.seed = kShapeTopologySeed;
  if (name == "dag_bulk_sim") {
    spec.kind = WorkloadKind::kDagBulkSim;
    spec.topology.kind = Kind::kLayeredDag;
    spec.topology.nodes = tiny ? 6 : 12;
    spec.topology.layers = tiny ? 3 : 4;
    spec.records_per_node = tiny ? 40 : 600;
  } else if (name == "cyclic_durable_sim") {
    spec.kind = WorkloadKind::kCyclicDurableSim;
    spec.topology.kind = Kind::kRandom;
    spec.topology.nodes = tiny ? 6 : 12;
    spec.records_per_node = tiny ? 30 : 200;
    spec.durable = true;
  } else if (name == "tree_reads_tcp") {
    spec.kind = WorkloadKind::kTreeReadsTcp;
    spec.topology.kind = Kind::kTree;
    spec.topology.nodes = tiny ? 8 : 64;
    spec.topology.fanout = 2;
    spec.records_per_node = tiny ? 30 : 200;
    spec.tcp = true;
    spec.reads_during_update = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

Result<core::P2PSystem> BuildSeededSystem(const WorkloadSpec& spec,
                                          uint64_t seed) {
  auto edges = workload::GenerateTopology(spec.topology);
  if (!edges.ok()) return edges.status();
  const size_t n = spec.topology.nodes;
  Rng draw(seed);
  std::vector<uint64_t> author_of = LengthPreservingPermutation(
      kAuthorPool, &draw);
  std::vector<uint64_t> year_of = LengthPreservingPermutation(kYears, &draw);

  // Record draws follow the shape seed per node, exactly as
  // workload::BuildScenario draws them; only the constants are renamed.
  Rng shape(kShapeDataSeed);
  std::vector<std::vector<workload::PubRecord>> records(n);
  for (NodeId id = 0; id < n; ++id) {
    Rng node_rng = shape.Fork();
    for (size_t k = 0; k < spec.records_per_node; ++k) {
      workload::PubRecord rec;
      rec.id = static_cast<int64_t>(id * spec.records_per_node + k);
      rec.title = StrFormat("title-%lld", static_cast<long long>(rec.id));
      rec.author = StrFormat(
          "author-%llu", static_cast<unsigned long long>(
                             author_of[node_rng.NextBelow(kAuthorPool)]));
      rec.year = kFirstYear +
                 static_cast<int64_t>(year_of[node_rng.NextBelow(kYears)]);
      records[id].push_back(std::move(rec));
    }
  }

  core::P2PSystem system;
  for (NodeId id = 0; id < n; ++id) {
    workload::SchemaStyle style = workload::StyleForNode(id);
    rel::Database db = workload::MakeNodeSchema(id, style);
    P2PDB_RETURN_IF_ERROR(
        workload::InsertRecords(&db, id, style, records[id]));
    P2PDB_RETURN_IF_ERROR(system.AddNode(StrFormat("N%u", id), std::move(db)));
  }
  size_t rule_seq = 0;
  for (const auto& [head, body] : *edges) {
    P2PDB_RETURN_IF_ERROR(system.AddRule(workload::MakeTranslationRule(
        StrFormat("r%zu_%u_%u", rule_seq++, head, body), head,
        workload::StyleForNode(head), body, workload::StyleForNode(body))));
  }
  return system;
}

}  // namespace p2pdb::perfbench
