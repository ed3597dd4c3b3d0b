// Durability bench: WAL append throughput (sync and nosync), checkpoint
// save/load cost, and recovery (checkpoint + WAL replay) time as a function
// of database size, plus one end-to-end crash/restart churn run on the sim
// runtime. This is bench_main's `recovery` suite.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/sim_runtime.h"
#include "src/storage/checkpoint.h"
#include "src/storage/storage_manager.h"
#include "src/util/log_capture.h"

namespace p2pdb::bench {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("p2pdb_bench_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// A flat publication-style database with `tuples` rows.
rel::Database MakeDb(size_t tuples) {
  rel::Database db;
  (void)db.CreateRelation(
      rel::RelationSchema("pub", {"id", "title", "year"}));
  for (size_t i = 0; i < tuples; ++i) {
    int64_t year = 1990 + static_cast<int64_t>(i % 30);
    (void)db.Insert(
        "pub", rel::Tuple({rel::Value::Int(static_cast<int64_t>(i)),
                           rel::Value::Str("title-" + std::to_string(i)),
                           rel::Value::Int(year)}));
  }
  return db;
}

storage::DeltaMap MakeDelta(size_t base, size_t tuples) {
  storage::DeltaMap delta;
  for (size_t i = 0; i < tuples; ++i) {
    delta["pub"].insert(
        rel::Tuple({rel::Value::Int(static_cast<int64_t>(base + i)),
                    rel::Value::Str("delta-" + std::to_string(base + i)),
                    rel::Value::Int(2024)}));
  }
  return delta;
}

/// WAL append throughput: `batches` deltas of `batch_tuples` tuples each.
/// A nonzero `group_commit` window coalesces kSync fsyncs (the group-commit
/// satellite: most of the nosync throughput, bounded durability window).
Result<Row> WalAppendBench(const std::string& name, storage::SyncMode sync,
                           size_t batches, size_t batch_tuples,
                           storage::GroupCommitOptions group_commit = {}) {
  storage::StorageOptions options;
  options.dir = FreshDir(name);
  options.sync = sync;
  options.group_commit = group_commit;
  options.checkpoint_wal_bytes = ~0ull;  // Never checkpoint: measure the log.
  P2PDB_ASSIGN_OR_RETURN(auto manager, storage::StorageManager::Open(options));
  auto start = Clock::now();
  for (size_t b = 0; b < batches; ++b) {
    (void)manager->LogDelta(MakeDelta(b * batch_tuples, batch_tuples));
  }
  double wall_ms = MsSince(start);
  double wall_s = wall_ms / 1000.0;
  double bytes = static_cast<double>(manager->wal_bytes());
  Row row{
      name,
      {
          {"wall_ms", wall_ms},
          {"records", static_cast<double>(batches)},
          {"tuples", static_cast<double>(batches * batch_tuples)},
          {"wal_bytes", bytes},
          {"fsyncs", static_cast<double>(manager->wal_syncs())},
          {"records_per_sec", wall_s > 0 ? batches / wall_s : 0},
          {"tuples_per_sec",
           wall_s > 0 ? batches * batch_tuples / wall_s : 0},
          {"mb_per_sec", wall_s > 0 ? bytes / (1024 * 1024) / wall_s : 0},
      }};
  fs::remove_all(options.dir);
  return row;
}

/// Checkpoint save + load cost for a database of `tuples` rows.
Result<Row> CheckpointBench(const std::string& name, size_t tuples) {
  std::string dir = FreshDir(name);
  fs::create_directories(dir);
  rel::Database db = MakeDb(tuples);

  auto start = Clock::now();
  P2PDB_RETURN_IF_ERROR(storage::SaveCheckpoint(db, dir));
  double save_ms = MsSince(start);

  start = Clock::now();
  P2PDB_RETURN_IF_ERROR(storage::LoadCheckpoint(dir).status());
  double load_ms = MsSince(start);

  double bytes =
      static_cast<double>(fs::file_size(storage::CheckpointPath(dir)));
  Row row{
      name,
      {
          {"wall_ms", save_ms + load_ms},
          {"tuples", static_cast<double>(tuples)},
          {"save_ms", save_ms},
          {"load_ms", load_ms},
          {"checkpoint_bytes", bytes},
          {"save_tuples_per_sec",
           save_ms > 0 ? tuples / (save_ms / 1000.0) : 0},
      }};
  fs::remove_all(dir);
  return row;
}

/// Full recovery (checkpoint of `base_tuples` + `wal_records` deltas) time.
Result<Row> RecoveryBench(const std::string& name, size_t base_tuples,
                          size_t wal_records, size_t batch_tuples) {
  storage::StorageOptions options;
  options.dir = FreshDir(name);
  options.sync = storage::SyncMode::kNoSync;
  options.checkpoint_wal_bytes = ~0ull;
  P2PDB_ASSIGN_OR_RETURN(auto manager, storage::StorageManager::Open(options));
  P2PDB_RETURN_IF_ERROR(manager->EnsureBase(MakeDb(base_tuples)));
  for (size_t r = 0; r < wal_records; ++r) {
    (void)manager->LogDelta(
        MakeDelta(base_tuples + r * batch_tuples, batch_tuples));
  }

  auto start = Clock::now();
  storage::RecoveryInfo info;
  P2PDB_RETURN_IF_ERROR(manager->Recover(&info).status());
  double wall_ms = MsSince(start);
  Row row{
      name,
      {
          {"wall_ms", wall_ms},
          {"base_tuples", static_cast<double>(base_tuples)},
          {"wal_records", static_cast<double>(info.wal_records_replayed)},
          {"wal_bytes", static_cast<double>(info.wal_bytes_scanned)},
          {"tuples_recovered", static_cast<double>(info.tuples_recovered)},
          {"recover_tuples_per_sec",
           wall_ms > 0 ? info.tuples_recovered / (wall_ms / 1000.0) : 0},
      }};
  fs::remove_all(options.dir);
  return row;
}

/// End-to-end churn: a tree update with one crash/restart mid-propagation.
Result<Row> ChurnBench(const std::string& name, size_t nodes,
                       size_t records_per_node) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records_per_node;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));
  P2PDB_ASSIGN_OR_RETURN(
      core::ChurnScript churn,
      workload::PlanCrashRestart(system, 0, workload::ChurnPlanOptions{}));

  std::string root = FreshDir(name);
  net::SimRuntime rt;
  core::Session::Options session_options;
  session_options.storage =
      [root](NodeId node) -> std::unique_ptr<storage::Storage> {
    storage::StorageOptions storage_options;
    storage_options.dir = root + "/peer" + std::to_string(node);
    storage_options.sync = storage::SyncMode::kNoSync;
    auto manager = storage::StorageManager::Open(storage_options);
    return manager.ok() ? std::move(*manager) : nullptr;
  };
  core::Session session(system, &rt, session_options);
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  ScopedLogCapture quiet;  // Drop-to-crashed-peer warnings are expected.
  auto start = Clock::now();
  P2PDB_RETURN_IF_ERROR(session.RunUpdateWithChurn(churn));
  double wall_ms = MsSince(start);
  uint64_t inserted = 0;
  for (size_t n = 0; n < session.peer_count(); ++n) {
    inserted += session.peer(n).update().stats().tuples_inserted;
  }
  Row row{
      name,
      {
          {"wall_ms", wall_ms},
          {"sim_ms", static_cast<double>(rt.NowMicros()) / 1000.0},
          {"messages", static_cast<double>(rt.stats().total_messages())},
          {"dropped", static_cast<double>(rt.dropped_count())},
          {"tuples_inserted", static_cast<double>(inserted)},
          {"all_closed", session.AllClosed() ? 1.0 : 0.0},
      }};
  fs::remove_all(root);
  return row;
}

}  // namespace

std::vector<Case> RecoveryCases() {
  const size_t small = FullScale() ? 5'000 : 1'000;
  const size_t large = FullScale() ? 50'000 : 10'000;
  auto bench = [](std::string name, std::function<Result<Row>()> measure) {
    return BestOfCase("recovery", std::move(name), std::move(measure));
  };
  // Group commit: same durable mode as wal_append_sync, fsyncs coalesced over
  // a 1ms / 64-record window — compare records_per_sec against the nosync and
  // per-append-sync rows to see the recovered gap.
  storage::GroupCommitOptions group;
  group.window = std::chrono::milliseconds(1);
  return {
      bench("wal_append_nosync",
            [=] {
              return WalAppendBench("wal_append_nosync",
                                    storage::SyncMode::kNoSync, large / 10, 10);
            }),
      // fsync-bound: keep the record count small even at full scale.
      bench("wal_append_sync",
            [] {
              return WalAppendBench("wal_append_sync",
                                    storage::SyncMode::kSync, 200, 10);
            }),
      bench("wal_append_group",
            [=] {
              return WalAppendBench("wal_append_group",
                                    storage::SyncMode::kSync, large / 10, 10,
                                    group);
            }),
      bench("checkpoint_small",
            [=] { return CheckpointBench("checkpoint_small", small); }),
      bench("checkpoint_large",
            [=] { return CheckpointBench("checkpoint_large", large); }),
      bench("recover_small",
            [=] { return RecoveryBench("recover_small", small, 100, 10); }),
      bench("recover_large",
            [=] { return RecoveryBench("recover_large", large, 1'000, 10); }),
      bench("churn_tree12",
            [] {
              return ChurnBench("churn_tree12", 12, FullScale() ? 200 : 50);
            }),
  };
}

}  // namespace p2pdb::bench
