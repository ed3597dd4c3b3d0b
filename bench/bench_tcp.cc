// TCP runtime bench: frame-codec throughput (encode/decode, small and large
// payloads), raw loopback ping-pong latency, and end-to-end discovery+update
// wall-clock on TcpRuntime vs ThreadRuntime (same scenario, same protocol —
// the delta is the socket hop plus quiescence detection over sockets).
// Also measures causal-tracing overhead (off / every root / sampled 1-in-4)
// on a durable TCP update, and can dump the observability snapshot
// (metrics registry + trace reports) as obs.json via --obs. This is
// bench_main's `tcp` suite.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/frame.h"
#include "src/net/tcp_runtime.h"
#include "src/net/thread_runtime.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/storage_manager.h"

namespace p2pdb::bench {
namespace {

net::Message MakeMessage(size_t payload_bytes) {
  net::Message msg;
  msg.type = net::MessageType::kQueryAnswer;
  msg.from = 3;
  msg.to = 250;
  msg.seq = 123'456;
  msg.payload.assign(payload_bytes, 0x5c);
  return msg;
}

/// Frame codec throughput: encode + decode `count` messages of one size.
Result<Row> FrameCodecBench(const std::string& name, size_t payload_bytes,
                            size_t count) {
  net::Message msg = MakeMessage(payload_bytes);
  uint64_t checksum = 0;  // Defeats dead-code elimination.
  auto start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    msg.seq = i;
    std::vector<uint8_t> frame = net::EncodeFrame(msg);
    auto decoded = net::DecodeFrame(frame);
    if (!decoded.ok()) return decoded.status();
    checksum += decoded->seq + decoded->payload.size();
  }
  double wall_ms = MsSince(start);
  double wall_s = wall_ms / 1000.0;
  double bytes = static_cast<double>(count) *
                 static_cast<double>(msg.WireSize());
  return Row{
      name,
      {
          {"wall_ms", wall_ms},
          {"messages", static_cast<double>(count)},
          {"payload_bytes", static_cast<double>(payload_bytes)},
          {"checksum", static_cast<double>(checksum % 1000)},
          {"msgs_per_sec", wall_s > 0 ? count / wall_s : 0},
          {"mb_per_sec", wall_s > 0 ? bytes / (1024 * 1024) / wall_s : 0},
      }};
}

/// Replies to every message until `budget` replies are spent.
class PongPeer : public net::PeerHandler {
 public:
  PongPeer(NodeId id, net::Runtime* rt, uint64_t budget)
      : id_(id), runtime_(rt), budget_(budget) {}

  void OnMessage(const net::Message& msg) override {
    received_.fetch_add(1);
    if (budget_ == 0) return;
    --budget_;
    net::Message reply;
    reply.type = msg.type;
    reply.from = id_;
    reply.to = msg.from;
    reply.payload = msg.payload;
    runtime_->Send(reply);
  }

  uint64_t received() const { return received_.load(); }

 private:
  NodeId id_;
  net::Runtime* runtime_;
  uint64_t budget_;
  std::atomic<uint64_t> received_{0};
};

/// Raw loopback round-trip latency over real sockets: one ping-pong chain of
/// `round_trips` exchanges, timed outside Run()'s quiescence overhead.
Result<Row> TcpPingPongBench(const std::string& name, size_t round_trips,
                             size_t payload_bytes) {
  net::TcpRuntime rt;
  // Peer 1 echoes forever (within budget); peer 0 re-serves until done.
  PongPeer a(0, &rt, round_trips - 1);
  PongPeer b(1, &rt, round_trips);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  P2PDB_RETURN_IF_ERROR(rt.Run());  // Starts worker threads; network idle.

  net::Message ping = MakeMessage(payload_bytes);
  ping.from = 0;
  ping.to = 1;
  auto start = Clock::now();
  auto deadline = start + std::chrono::seconds(60);
  rt.Send(ping);
  while (a.received() < round_trips) {
    // The chain is strictly sequential: one lost frame would otherwise spin
    // this loop forever.
    if (Clock::now() > deadline) return Status::Internal(name + " timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  double wall_ms = MsSince(start);
  double hops = static_cast<double>(2 * round_trips);
  return Row{
      name,
      {
          {"wall_ms", wall_ms},
          {"round_trips", static_cast<double>(round_trips)},
          {"payload_bytes", static_cast<double>(payload_bytes)},
          {"rtt_micros", round_trips > 0 ? wall_ms * 1000.0 / round_trips : 0},
          {"hop_micros", hops > 0 ? wall_ms * 1000.0 / hops : 0},
      }};
}

/// Counts deliveries into a shared counter; the scaling bench only cares
/// about aggregate arrival, not per-peer behaviour.
class CountingPeer : public net::PeerHandler {
 public:
  explicit CountingPeer(std::atomic<uint64_t>* received)
      : received_(received) {}
  void OnMessage(const net::Message& msg) override {
    (void)msg;
    received_->fetch_add(1);
  }

 private:
  std::atomic<uint64_t>* received_;
};

/// Peer-count scaling: N registered peers (N listeners and N-1 live
/// connections on one reactor pool), 64B frames delivered at a constant
/// per-connection rate. A warm-up frame per destination establishes every
/// connection before the clock starts, so the timed region is steady-state
/// throughput; the number that matters is frames_per_sec staying flat as
/// peers grow — the reactor multiplexes connections onto a fixed worker
/// pool, so per-frame cost should not scale with peer count.
Result<Row> PeerScalingBench(const std::string& name, size_t peers,
                             size_t frames_per_peer) {
  net::TcpRuntime::Options options;
  options.timeout = std::chrono::seconds(120);
  net::TcpRuntime rt(options);
  std::atomic<uint64_t> received{0};
  std::vector<std::unique_ptr<CountingPeer>> handlers;
  handlers.reserve(peers);
  for (size_t i = 0; i < peers; ++i) {
    handlers.push_back(std::make_unique<CountingPeer>(&received));
    rt.RegisterPeer(static_cast<NodeId>(i), handlers.back().get());
  }
  P2PDB_RETURN_IF_ERROR(rt.Run());  // Starts worker threads; network idle.

  net::Message msg = MakeMessage(64);
  msg.from = 0;
  auto deadline = Clock::now() + std::chrono::seconds(120);
  for (size_t dest = 1; dest < peers; ++dest) {  // Connect warm-up.
    msg.to = static_cast<NodeId>(dest);
    rt.Send(msg);
  }
  while (received.load() < peers - 1) {
    if (Clock::now() > deadline) return Status::Internal(name + " timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  const size_t frames = frames_per_peer * (peers - 1);
  const uint64_t target = received.load() + frames;
  auto start = Clock::now();
  for (size_t dest = 1; dest < peers; ++dest) {
    msg.to = static_cast<NodeId>(dest);
    for (size_t k = 0; k < frames_per_peer; ++k) rt.Send(msg);
  }
  while (received.load() < target) {
    if (Clock::now() > deadline) return Status::Internal(name + " timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  double wall_ms = MsSince(start);
  double wall_s = wall_ms / 1000.0;
  // Registry snapshot of the transport counters: the same numbers obs.json
  // carries, folded into the bench row so CI trend lines catch transport
  // regressions (batching collapse, queue growth) without a separate dump.
  obs::Registry registry;
  rt.stats().ExportTo(registry, "net.");
  obs::Registry::Snapshot snap = registry.TakeSnapshot();
  return Row{
      name,
      {
          {"wall_ms", wall_ms},
          {"peers", static_cast<double>(peers)},
          {"frames", static_cast<double>(frames)},
          {"payload_bytes", 64},
          {"frames_per_sec", wall_s > 0 ? frames / wall_s : 0},
          {"frames_per_writev", rt.stats().io().FramesPerWritev()},
          {"inline_dispatch_ratio_x1000",
           static_cast<double>(
               snap.gauges["net.io.inline_dispatch_ratio_x1000"])},
          {"send_queue_hwm_bytes",
           static_cast<double>(snap.gauges["net.io.send_queue_hwm_bytes"])},
          {"dropped", static_cast<double>(rt.dropped_count())},
      }};
}

/// Fan-out peer: one trigger dispatch sends `msgs_per_dest` messages to every
/// other peer — the update-plane shape (one handler, many same-destination
/// sends) that frame coalescing packs into one kBatch frame per destination.
class FanoutPeer : public net::PeerHandler {
 public:
  FanoutPeer(NodeId id, net::Runtime* rt, size_t peers, size_t msgs_per_dest)
      : id_(id), runtime_(rt), peers_(peers), msgs_(msgs_per_dest) {}

  void OnMessage(const net::Message&) override {
    for (size_t dest = 1; dest < peers_; ++dest) {
      for (size_t k = 0; k < msgs_; ++k) {
        net::Message m = MakeMessage(64);
        m.from = id_;
        m.to = static_cast<NodeId>(dest);
        runtime_->Send(std::move(m));
      }
    }
  }

 private:
  NodeId id_;
  net::Runtime* runtime_;
  size_t peers_;
  size_t msgs_;
};

/// Frame coalescing under a fan-out update: `rounds` trigger dispatches, each
/// spraying msgs_per_dest messages at peers-1 destinations, driven to exact
/// quiescence. Run once with the default batch cap and once with
/// batch_max_bytes=0 (solo frames, the pre-batching wire behavior) at equal
/// message count: frames_per_update is the headline — coalescing should cut
/// it by the per-destination fan-in factor.
Result<Row> CoalescingFanoutBench(const std::string& name, size_t peers,
                                  size_t msgs_per_dest, size_t rounds,
                                  size_t batch_max_bytes) {
  net::TcpRuntime::Options options;
  options.timeout = std::chrono::seconds(120);
  options.batch_max_bytes = batch_max_bytes;
  net::TcpRuntime rt(options);
  FanoutPeer fan(0, &rt, peers, msgs_per_dest);
  rt.RegisterPeer(0, &fan);
  std::atomic<uint64_t> received{0};
  std::vector<std::unique_ptr<CountingPeer>> handlers;
  handlers.reserve(peers - 1);
  for (size_t i = 1; i < peers; ++i) {
    handlers.push_back(std::make_unique<CountingPeer>(&received));
    rt.RegisterPeer(static_cast<NodeId>(i), handlers.back().get());
  }
  P2PDB_RETURN_IF_ERROR(rt.Run());  // Starts worker threads; network idle.

  net::Message trigger = MakeMessage(8);
  trigger.from = 0;
  trigger.to = 0;
  auto start = Clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    rt.Send(trigger);
    P2PDB_RETURN_IF_ERROR(rt.Run());  // Exact fixpoint per round.
  }
  double wall_ms = MsSince(start);
  const double messages =
      static_cast<double>(rounds * ((peers - 1) * msgs_per_dest + 1));
  if (received.load() != rounds * (peers - 1) * msgs_per_dest) {
    return Status::Internal(name + " lost messages");
  }
  const double frames =
      static_cast<double>(rt.stats().io().frames_enqueued.load());
  return Row{
      name,
      {
          {"wall_ms", wall_ms},
          {"peers", static_cast<double>(peers)},
          {"rounds", static_cast<double>(rounds)},
          {"messages", messages},
          {"frames_enqueued", frames},
          {"frames_per_update", frames / static_cast<double>(rounds)},
          {"batch_frames",
           static_cast<double>(rt.stats().io().batch_frames.load())},
          {"batched_messages",
           static_cast<double>(rt.stats().io().batched_messages.load())},
          {"credit_frames",
           static_cast<double>(rt.stats().io().credit_frames.load())},
          {"frames_per_writev", rt.stats().io().FramesPerWritev()},
          {"dropped", static_cast<double>(rt.dropped_count())},
      }};
}

/// Fixpoint termination latency: one ping-pong chain injected, then Run() to
/// quiescence; wall time covers the chain AND the termination decision, which
/// the credit protocol makes at the exact moment the last frame is credited.
Result<Row> FixpointQuiescenceBench(const std::string& name,
                                    size_t exchanges) {
  net::TcpRuntime rt;
  PongPeer a(0, &rt, exchanges);
  PongPeer b(1, &rt, exchanges);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  P2PDB_RETURN_IF_ERROR(rt.Run());  // Starts worker threads; network idle.

  net::Message ping = MakeMessage(64);
  ping.from = 0;
  ping.to = 1;
  auto start = Clock::now();
  rt.Send(ping);
  P2PDB_RETURN_IF_ERROR(rt.Run());
  double wall_ms = MsSince(start);
  return Row{
      name,
      {
          {"wall_ms", wall_ms},
          {"exchanges", static_cast<double>(exchanges)},
          {"messages", static_cast<double>(rt.stats().total_messages())},
      }};
}

/// End-to-end discovery + global update through a Session on one runtime.
Result<Row> SessionUpdateBench(const std::string& name, net::Runtime* rt,
                               size_t nodes, size_t records) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));

  core::Session session(system, rt);
  auto start = Clock::now();
  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  double discovery_ms = MsSince(start);
  start = Clock::now();
  P2PDB_RETURN_IF_ERROR(session.RunUpdate());
  double update_ms = MsSince(start);

  uint64_t inserted = 0;
  for (size_t n = 0; n < session.peer_count(); ++n) {
    inserted += session.peer(n).update().stats().tuples_inserted;
  }
  return Row{
      name,
      {
          {"wall_ms", discovery_ms + update_ms},
          {"discovery_ms", discovery_ms},
          {"update_ms", update_ms},
          {"nodes", static_cast<double>(nodes)},
          {"messages", static_cast<double>(rt->stats().total_messages())},
          {"bytes", static_cast<double>(rt->stats().total_bytes())},
          {"tuples_inserted", static_cast<double>(inserted)},
          {"all_closed", session.AllClosed() ? 1.0 : 0.0},
      }};
}

/// Trace-overhead microbench: the update_tcp_tree8 scenario with durable
/// storage on every node (so chase, WAL and queue-wait instruments all fire)
/// and causal tracing at a given sampling rate. sample_every == 0 runs with
/// tracing fully off — the code is compiled in but every message carries
/// trace_id 0 and the detailed-timing gate is closed, which is the ≤1%
/// steady-state overhead configuration. 1 traces every root update; N traces
/// 1-in-N. When `obs_path` is non-empty the run also folds the runtime
/// counters into the global registry and dumps the full observability
/// snapshot (metrics + trace reports) as JSON.
Result<Row> TracedUpdateBench(const std::string& name, size_t nodes,
                              size_t records, uint32_t sample_every,
                              const std::string& obs_path) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records;
  P2PDB_ASSIGN_OR_RETURN(core::P2PSystem system,
                         workload::BuildScenario(options));

  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() / ("p2pdb_bench_" + name);
  fs::remove_all(root);
  net::TcpRuntime rt;
  core::Session::Options session_options;
  session_options.storage =
      [root](NodeId node) -> std::unique_ptr<storage::Storage> {
    storage::StorageOptions sopts;
    sopts.dir = (root / ("node" + std::to_string(node))).string();
    auto manager = storage::StorageManager::Open(sopts);
    return manager.ok() ? std::move(*manager) : nullptr;
  };
  core::Session session(system, &rt, session_options);
  obs::TraceCollector collector;
  if (sample_every > 0) session.EnableTracing(&collector, sample_every);

  for (size_t n = 0; n < nodes; ++n) {
    P2PDB_RETURN_IF_ERROR(session.AttachStorage(static_cast<NodeId>(n)));
  }

  P2PDB_RETURN_IF_ERROR(session.RunDiscovery());
  auto start = Clock::now();
  P2PDB_RETURN_IF_ERROR(session.RunUpdate());
  double update_ms = MsSince(start);

  if (!obs_path.empty()) {
    rt.stats().ExportTo(obs::Registry::Global(), "net.");
    if (obs::WriteObsJson(obs_path, obs::Registry::Global(), &collector)) {
      std::printf("observability dump written to %s\n", obs_path.c_str());
    }
  }
  // The detailed-timing gate is process-global: close it again so later
  // repeats of the untraced benches are not charged for clock reads.
  if (sample_every > 0) session.EnableTracing(nullptr);
  fs::remove_all(root);

  return Row{
      name,
      {
          {"wall_ms", update_ms},
          {"update_ms", update_ms},
          {"nodes", static_cast<double>(nodes)},
          {"sample_every", static_cast<double>(sample_every)},
          {"traces", static_cast<double>(collector.TraceIds().size())},
          {"traced_spans", static_cast<double>(collector.TotalSpans())},
          {"messages", static_cast<double>(rt.stats().total_messages())},
          {"all_closed", session.AllClosed() ? 1.0 : 0.0},
      }};
}

/// The coalescing pair: identical 64-peer fan-out updates, only the batch cap
/// differs. The batched row also carries the headline numbers derived from
/// both: messages_per_update, frames_per_update_solo and frame_reduction
/// (solo frames / batched frames at equal message count).
Result<std::vector<Row>> CoalescingPair(int repeat) {
  const size_t msgs = 8;  // Fan-in per destination per dispatch.
  const size_t rounds = FullScale() ? 40 : 10;
  auto fanout = [&](const char* name, size_t batch_max_bytes) {
    return BestOf(repeat, [&] {
      return CoalescingFanoutBench(name, 64, msgs, rounds, batch_max_bytes);
    });
  };
  P2PDB_ASSIGN_OR_RETURN(
      std::vector<Row> batched,
      fanout("tcp_coalesce_64peers_batched",
             net::TcpRuntime::Options{}.batch_max_bytes));
  P2PDB_ASSIGN_OR_RETURN(std::vector<Row> solo,
                         fanout("tcp_coalesce_64peers_solo", 0));
  Row& row = batched[0];
  row.metrics.emplace_back("messages_per_update",
                           row.Metric("messages") / row.Metric("rounds"));
  row.metrics.emplace_back("frames_per_update_solo",
                           solo[0].Metric("frames_per_update"));
  const double frames = row.Metric("frames_enqueued");
  row.metrics.emplace_back(
      "frame_reduction",
      frames > 0 ? solo[0].Metric("frames_enqueued") / frames : 0);
  return std::vector<Row>{std::move(row), std::move(solo[0])};
}

}  // namespace

std::vector<Case> TcpCases() {
  const size_t codec_count = FullScale() ? 2'000'000 : 200'000;
  const size_t codec_large = FullScale() ? 20'000 : 5'000;
  const size_t pings = FullScale() ? 20'000 : 2'000;
  const size_t nodes = 8;
  const size_t records = FullScale() ? 100 : 25;
  const size_t frames_per_peer = FullScale() ? 300 : 100;
  auto bench = [](std::string name, std::function<Result<Row>()> measure) {
    return BestOfCase("tcp", std::move(name), std::move(measure));
  };
  auto traced = [=](std::string name, uint32_t sample_every) {
    return Case{"tcp", name, [=](const RunArgs& args) {
                  return BestOf(args.repeat, [&] {
                    // The fully-traced run doubles as the obs.json source: its
                    // dump has every histogram (chase, WAL, queue wait) and
                    // the trace reports.
                    return TracedUpdateBench(
                        name, nodes, records, sample_every,
                        sample_every == 1 ? args.obs_path : "");
                  });
                }};
  };
  return {
      bench("frame_codec_64b",
            [=] {
              return FrameCodecBench("frame_codec_64b", 64, codec_count);
            }),
      bench("frame_codec_64kb",
            [=] {
              return FrameCodecBench("frame_codec_64kb", 64 * 1024,
                                     codec_large);
            }),
      bench("tcp_pingpong_64b",
            [=] { return TcpPingPongBench("tcp_pingpong_64b", pings, 64); }),
      bench("tcp_pingpong_4kb",
            [=] {
              return TcpPingPongBench("tcp_pingpong_4kb", pings / 4, 4096);
            }),
      bench("tcp_scaling_64peers",
            [=] {
              return PeerScalingBench("tcp_scaling_64peers", 64,
                                      frames_per_peer);
            }),
      bench("tcp_scaling_256peers",
            [=] {
              return PeerScalingBench("tcp_scaling_256peers", 256,
                                      frames_per_peer);
            }),
      bench("tcp_scaling_1000peers",
            [=] {
              return PeerScalingBench("tcp_scaling_1000peers", 1000,
                                      frames_per_peer);
            }),
      Case{"tcp", "tcp_coalesce_64peers",
           [](const RunArgs& args) { return CoalescingPair(args.repeat); }},
      bench("tcp_fixpoint_ack",
            [] { return FixpointQuiescenceBench("tcp_fixpoint_ack", 50); }),
      bench("update_thread_tree8",
            [=] {
              net::ThreadRuntime rt;
              return SessionUpdateBench("update_thread_tree8", &rt, nodes,
                                        records);
            }),
      bench("update_tcp_tree8",
            [=] {
              net::TcpRuntime rt;
              return SessionUpdateBench("update_tcp_tree8", &rt, nodes,
                                        records);
            }),
      // Trace-overhead trio: identical durable scenario, only the sampling
      // rate differs. Compare update_ms across the three rows.
      traced("trace_off_tcp_tree8", 0),
      traced("trace_on_tcp_tree8", 1),
      traced("trace_sampled4_tcp_tree8", 4),
  };
}

}  // namespace p2pdb::bench
