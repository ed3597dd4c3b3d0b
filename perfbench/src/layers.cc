#include "perfbench/src/layers.h"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "src/storage/storage_manager.h"

namespace p2pdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// The dispatch kind running on this thread; sends and storage calls are
// charged to it. Outside any dispatch (control calls) it is kOther.
thread_local Kind t_kind = Kind::kOther;

size_t Index(Kind kind) { return static_cast<size_t>(kind); }

Kind KindOf(net::MessageType type) {
  switch (type) {
    case net::MessageType::kQueryAnswer:
      return Kind::kQueryAnswer;
    case net::MessageType::kQueryRequest:
      return Kind::kQueryRequest;
    case net::MessageType::kUpdateStart:
      return Kind::kUpdateStart;
    case net::MessageType::kToken:
      return Kind::kToken;
    default:
      return Kind::kOther;
  }
}

/// Times the enclosed region and charges it to `kind` in `counters`,
/// setting the thread's current kind for the calls nested inside.
class DispatchScope {
 public:
  DispatchScope(LayerClock* clock, Kind kind)
      : clock_(clock), kind_(kind), outer_(t_kind), start_(Clock::now()) {
    t_kind = kind;
  }
  ~DispatchScope() {
    clock_->dispatch_ns[Index(kind_)] += NanosSince(start_);
    clock_->dispatch_count[Index(kind_)] += 1;
    t_kind = outer_;
  }

 private:
  LayerClock* clock_;
  Kind kind_;
  Kind outer_;
  Clock::time_point start_;
};

uint64_t CheckpointFileBytes(const storage::StorageManager& manager) {
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(
      std::filesystem::path(manager.options().dir) / "checkpoint.p2db", ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQueryAnswer:
      return "query_answer";
    case Kind::kQueryRequest:
      return "query_request";
    case Kind::kUpdateStart:
      return "update_start";
    case Kind::kToken:
      return "token";
    case Kind::kOther:
      return "other";
  }
  return "?";
}

void LayerClock::ResetCounters() {
  for (Counters* c :
       {&dispatch_ns, &dispatch_count, &send_ns, &storage_ns, &capture_ns}) {
    for (auto& v : *c) v = 0;
  }
  for (std::atomic<uint64_t>* v :
       {&appends, &log_delta_ns, &checkpoints, &checkpoint_ns, &bytes_written,
        &recover_ns, &wal_records_replayed, &wal_bytes_scanned}) {
    *v = 0;
  }
}

uint64_t LayerClock::Sum(const Counters& c) {
  uint64_t total = 0;
  for (const auto& v : c) total += v.load();
  return total;
}

class TimedRuntime::TimedHandler : public net::PeerHandler {
 public:
  TimedHandler(net::PeerHandler* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  void OnMessage(const net::Message& msg) override {
    DispatchScope scope(clock_, KindOf(msg.type));
    inner_->OnMessage(msg);
  }

 private:
  net::PeerHandler* inner_;
  LayerClock* clock_;
};

void TimedRuntime::RegisterPeer(NodeId id, net::PeerHandler* handler) {
  net::PeerHandler* wrapped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handlers_.push_back(std::make_unique<TimedHandler>(handler, clock_));
    wrapped = handlers_.back().get();
  }
  inner_->RegisterPeer(id, wrapped);
}

void TimedRuntime::Send(net::Message msg) {
  const size_t kind = Index(t_kind);
  if (msg.type == net::MessageType::kQueryAnswer && clock_->capturing) {
    auto start = Clock::now();
    std::vector<uint8_t> copy(msg.payload.data(),
                              msg.payload.data() + msg.payload.size());
    {
      std::lock_guard<std::mutex> lock(clock_->answers_mutex);
      clock_->answers.push_back(std::move(copy));
    }
    clock_->capture_ns[kind] += NanosSince(start);
  }
  auto start = Clock::now();
  inner_->Send(std::move(msg));
  clock_->send_ns[kind] += NanosSince(start);
}

void TimedRuntime::RunExclusive(NodeId id, const std::function<void()>& fn) {
  inner_->RunExclusive(id, [&] {
    DispatchScope scope(clock_, Kind::kOther);
    fn();
  });
}

Status TimedStorage::LogDelta(const storage::DeltaMap& delta) {
  const size_t kind = Index(t_kind);
  if (clock_->capturing) {
    auto start = Clock::now();
    clock_->deltas[node_].push_back(CapturedDelta{delta, t_kind});
    clock_->capture_ns[kind] += NanosSince(start);
  }
  auto* manager = dynamic_cast<storage::StorageManager*>(inner_.get());
  uint64_t wal_before = manager != nullptr ? manager->wal_bytes() : 0;
  auto start = Clock::now();
  Status status = inner_->LogDelta(delta);
  uint64_t ns = NanosSince(start);
  clock_->storage_ns[kind] += ns;
  clock_->log_delta_ns += ns;
  clock_->appends += 1;
  if (manager != nullptr && manager->wal_bytes() > wal_before) {
    clock_->bytes_written += manager->wal_bytes() - wal_before;
  }
  return status;
}

Status TimedStorage::TimeCheckpoint(const std::function<Status()>& call,
                                    bool in_dispatch) {
  auto* manager = dynamic_cast<storage::StorageManager*>(inner_.get());
  uint64_t taken = manager != nullptr ? manager->checkpoints_taken() : 0;
  auto start = Clock::now();
  Status status = call();
  uint64_t ns = NanosSince(start);
  if (in_dispatch) clock_->storage_ns[Index(t_kind)] += ns;
  if (manager != nullptr && manager->checkpoints_taken() > taken) {
    clock_->checkpoints += manager->checkpoints_taken() - taken;
    clock_->checkpoint_ns += ns;
    clock_->bytes_written += CheckpointFileBytes(*manager);
  }
  return status;
}

Status TimedStorage::EnsureBase(const rel::Database& db) {
  // Attaching storage (at set-up, or persisting a converged peer) runs
  // outside any dispatch.
  return TimeCheckpoint([&] { return inner_->EnsureBase(db); }, false);
}

Status TimedStorage::MaybeCheckpoint(const rel::Database& db) {
  return TimeCheckpoint([&] { return inner_->MaybeCheckpoint(db); }, true);
}

Status TimedStorage::Checkpoint(const rel::Database& db) {
  return TimeCheckpoint([&] { return inner_->Checkpoint(db); }, true);
}

Result<rel::Database> TimedStorage::Recover(storage::RecoveryInfo* info) {
  auto start = Clock::now();
  Result<rel::Database> db = inner_->Recover(info);
  clock_->recover_ns += NanosSince(start);
  if (info != nullptr) {
    clock_->wal_records_replayed += info->wal_records_replayed;
    clock_->wal_bytes_scanned += info->wal_bytes_scanned;
  }
  return db;
}

}  // namespace p2pdb::perfbench
