// Traced-run instrumentation, built only from the program's public
// interfaces: a forwarding net::Runtime decorator that wraps every registered
// net::PeerHandler (dispatch time per message kind) and times Send(), and a
// storage::Storage decorator handed out through Session::Options::storage.
// Both also capture what the replays need — each peer's delta batches in
// commit order and every QueryAnswer payload — and charge the copying to a
// separate "capture" bucket so it never inflates a layer's self time.
//
// None of this is installed on an end-to-end (--trace 0) run.
#ifndef P2PDB_PERFBENCH_LAYERS_H_
#define P2PDB_PERFBENCH_LAYERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/runtime.h"
#include "src/storage/storage.h"

namespace p2pdb::perfbench {

/// Dispatch buckets of the core layer. kOther also holds the control thread's
/// RunExclusive control calls (the super-peer's StartUpdate).
enum class Kind : uint8_t {
  kQueryAnswer,
  kQueryRequest,
  kUpdateStart,
  kToken,
  kOther,
};
constexpr size_t kKinds = 5;
const char* KindName(Kind kind);

/// One delta batch as Peer::OnDeltaApplied handed it to storage, with the
/// dispatch kind it was applied under.
struct CapturedDelta {
  storage::DeltaMap delta;
  Kind kind = Kind::kOther;
};

/// Accumulators of one traced repetition. Atomic because TCP dispatches
/// different peers on different threads; nanoseconds throughout.
struct LayerClock {
  using Counters = std::array<std::atomic<uint64_t>, kKinds>;
  Counters dispatch_ns{}, dispatch_count{}, send_ns{}, storage_ns{},
      capture_ns{};

  std::atomic<uint64_t> appends{0}, log_delta_ns{0}, checkpoints{0},
      checkpoint_ns{0}, bytes_written{0}, recover_ns{0},
      wal_records_replayed{0}, wal_bytes_scanned{0};

  /// Captures land here only while set (the update window).
  std::atomic<bool> capturing{false};
  /// Per node, in commit order. Sized before the session starts; each node's
  /// slot is only touched from that node's serialized dispatch.
  std::vector<std::vector<CapturedDelta>> deltas;
  std::mutex answers_mutex;
  std::vector<std::vector<uint8_t>> answers;  // QueryAnswer payloads.

  explicit LayerClock(size_t nodes) : deltas(nodes) {}
  /// Zeroes every counter (captures are kept): called at the start of the
  /// update window and again before the restarts.
  void ResetCounters();
  static uint64_t Sum(const Counters& c);
};

/// Forwards every Runtime call to `inner`; handlers registered through it
/// are wrapped so each OnMessage is timed under its Kind.
class TimedRuntime : public net::Runtime {
 public:
  TimedRuntime(net::Runtime* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  void RegisterPeer(NodeId id, net::PeerHandler* handler) override;
  void UnregisterPeer(NodeId id) override { inner_->UnregisterPeer(id); }
  Status PeerReady(NodeId id) const override { return inner_->PeerReady(id); }
  void Send(net::Message msg) override;
  void ScheduleSend(uint64_t time_micros, net::Message msg) override {
    inner_->ScheduleSend(time_micros, std::move(msg));
  }
  Status Run() override { return inner_->Run(); }
  Status RunUntil(uint64_t time_micros) override {
    return inner_->RunUntil(time_micros);
  }
  void RunExclusive(NodeId id, const std::function<void()>& fn) override;
  uint64_t NowMicros() const override { return inner_->NowMicros(); }
  uint64_t dropped_count() const override { return inner_->dropped_count(); }

 private:
  class TimedHandler;

  net::Runtime* inner_;
  LayerClock* clock_;
  std::mutex mutex_;
  // Never freed before the runtime: a handler may still be mid-dispatch on
  // a transport thread when its peer re-registers.
  std::vector<std::unique_ptr<net::PeerHandler>> handlers_;
};

/// Times and forwards every Storage call; captures delta batches for the
/// MVCC replay while the clock is capturing.
class TimedStorage : public storage::Storage {
 public:
  TimedStorage(NodeId node, std::unique_ptr<storage::Storage> inner,
               LayerClock* clock)
      : node_(node), inner_(std::move(inner)), clock_(clock) {}

  Status LogDelta(const storage::DeltaMap& delta) override;
  Status LogRuleChange(const std::vector<uint8_t>& record) override {
    return inner_->LogRuleChange(record);
  }
  Status ResetRuleChanges(std::vector<std::vector<uint8_t>> records) override {
    return inner_->ResetRuleChanges(std::move(records));
  }
  Status EnsureBase(const rel::Database& db) override;
  bool HasBase() const override { return inner_->HasBase(); }
  Status MaybeCheckpoint(const rel::Database& db) override;
  Status Checkpoint(const rel::Database& db) override;
  Result<rel::Database> Recover(storage::RecoveryInfo* info) override;

 private:
  /// Runs one checkpointing call, charging it to the checkpoint counters
  /// when the backend really wrote a checkpoint. `in_dispatch`: the call is
  /// part of applying a delta, so it is also charged to the running
  /// dispatch kind's storage time.
  Status TimeCheckpoint(const std::function<Status()>& call, bool in_dispatch);

  NodeId node_;
  std::unique_ptr<storage::Storage> inner_;
  LayerClock* clock_;
};

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_LAYERS_H_
