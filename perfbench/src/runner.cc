#include "perfbench/src/runner.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <system_error>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/scenario.h"
#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/null_iso.h"
#include "src/storage/storage_manager.h"
#include "src/workload/queries.h"

namespace p2pdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// SimRuntime's jitter seed is fixed: re-drawing it changes the work an
// update does (see scenario.h).
constexpr uint64_t kSimSeed = 42;
// The first round of a run (a single repetition) is a warm-up and is never
// reported: it ran 20-50% slower than the rest (cold allocator, page faults,
// cold caches).
constexpr size_t kWarmupRounds = 1;
constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 400;
// Set-up-only trials after each timed repetition of an end-to-end run.
constexpr size_t kSetupTrials = 3;
// The host-speed probe's time on the reference host when it runs fast (4
// cores, GCC 12.2, Release), and how strongly the program's times follow the
// probe's from run to run: the slope of log time on log probe time was
// 0.5-0.6 (NOTES.md). End-to-end times are scaled by (kNominalProbeSeconds
// over the lower quartile of the run's probe times) to this power.
constexpr double kNominalProbeSeconds = 0.040;
constexpr double kProbeExponent = 0.5;
// Reads run on the converged peers after each update of a workload whose
// update runs without a reader.
constexpr size_t kReadsAfterUpdate = 50'000;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// The q-quantile of `v`, interpolating linearly between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Nearest-rank percentile of `samples` (nanoseconds), in microseconds.
double PercentileUs(std::vector<uint32_t> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index] / 1000.0;
}

/// Hands freed heap back to the system and restarts the kernel's peak-RSS
/// count (VmHWM) from the current RSS, so that PeakRssMb() then reads the
/// peak of what ran in between. False when the count cannot be restarted.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

/// The process's peak RSS (VmHWM) in MB since the last ResetPeakRss().
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

/// Bytes in the regular files under `dir`.
uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// A fixed piece of work owned by the benchmark, not the program: build and
/// free a 200,000-node std::set of 64-bit keys. Like the program's update
/// path it is allocation- and pointer-chasing-bound, so it slows down with
/// the program when the shared host's cache and memory are contended; an
/// ALU loop and a DRAM-bound random walk did not (see NOTES.md).
double HostProbeSeconds() {
  static volatile uint64_t sink = 0;
  auto start = Clock::now();
  {
    std::set<uint64_t> keys;
    for (uint64_t i = 1; i <= 200'000; ++i) {
      keys.insert(i * 0x9E3779B97F4A7C15ULL);
    }
    sink = sink + keys.size();
  }
  return SecondsSince(start);
}

// --- Metric catalogue -------------------------------------------------------

/// A reported metric. Every workload reports every metric of its mode.
struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"fixpoint_s", "s"},
      {"recovery_s", "s"},
      {"read_p50_us", "us"},
      {"read_p90_us", "us"},
      {"peak_rss_mb", "MB"},
      {"net_bytes_per_tuple", "B"},
      {"storage_bytes_per_tuple", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (size_t k = 0; k < kKinds; ++k) {
      std::string kind = KindName(static_cast<Kind>(k));
      d.push_back({"core.dispatch_us." + kind, "us"});
      d.push_back({"core.dispatch_count." + kind, "count"});
    }
    std::vector<MetricDef> rest = {
        {"core.update_self_us", "us"},
        {"core.other_self_us", "us"},
        {"update.tuples", "count"},
        {"update.joins", "count"},
        {"update.answers", "count"},
        {"update.answer_tuples", "count"},
        {"update.token_passes", "count"},
        {"update.apps_skipped", "count"},
        {"update.insert_yield", "ratio"},
        {"sim.fixpoint_ms", "ms"},
        {"mvcc.publishes", "count"},
        {"mvcc.publish_us", "us"},
        {"mvcc.tuples_copied", "count"},
        {"mvcc.copy_per_inserted", "ratio"},
        {"wire.decode_us.query_answer", "us"},
        {"wire.encode_us.query_answer", "us"},
        {"wire.bytes_per_answer_tuple", "B"},
        {"storage.appends", "count"},
        {"storage.log_delta_us", "us"},
        {"storage.update_us", "us"},
        {"storage.fsync_us_p50", "us"},
        {"storage.checkpoints", "count"},
        {"storage.checkpoint_us", "us"},
        {"storage.bytes_written", "B"},
        {"storage.recover_us", "us"},
        {"storage.wal_records_replayed", "count"},
        {"storage.wal_bytes_scanned", "B"},
        {"net.messages", "count"},
        {"net.bytes", "B"},
        {"net.send_us", "us"},
        {"net.runtime_self_us", "us"},
        {"net.frames", "count"},
        {"net.msgs_per_frame", "ratio"},
        {"net.credit_frames", "count"},
        {"net.frames_per_writev", "ratio"},
        {"net.epoll_wakeups", "count"},
        {"net.inline_dispatch_ratio", "ratio"},
        {"net.sendq_hwm_bytes", "B"},
        {"net.mailbox_wait_us_p50", "us"},
        {"net.mailbox_wait_us_p99", "us"},
        {"query.point_us_p50", "us"},
        {"query.selection_us_p50", "us"},
        {"query.join_us_p50", "us"},
        {"query.join_us_p99", "us"},
        {"query.read_p99_us", "us"},
        {"query.reads", "count"},
        {"query.staleness_batches_max", "count"},
        {"setup.session_s", "s"},
        {"setup.attach_s", "s"},
        {"setup.discovery_s", "s"},
        {"trace.critical_path_us", "us"},
        {"trace.critical_path_hops", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.capture_us", "us"},
        {"host.probe_ms", "ms"},
        {"split.sum_error_ratio", "ratio"},
        {"split.negative_parts", "count"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// --- Reads ------------------------------------------------------------------

/// Latencies of one repetition's reads: wall-clock nanoseconds per call,
/// split by read shape.
struct ReadSamples {
  std::vector<uint32_t> point_ns, selection_ns, join_ns;
  uint64_t reads = 0;
  uint64_t violations = 0;  // Error status, or an expected hit that missed.

  void Reserve(size_t n) {
    for (auto* v : {&point_ns, &selection_ns, &join_ns}) v->reserve(n);
  }

  /// Runs `op` against `session` and records it.
  void Read(const core::Session& session, const workload::QueryOp& op) {
    bool bad;
    auto start = Clock::now();
    if (op.is_point) {
      auto hit = session.QueryPoint(op.node, op.relation, op.key);
      bad = !hit.ok() || (op.expect_hit && !*hit);
    } else {
      bad = !session.Query(op.node, op.cq).ok();
    }
    uint64_t ns = std::min<uint64_t>(NanosSince(start), UINT32_MAX);
    std::vector<uint32_t>& into = op.is_point              ? point_ns
                                  : op.cq.atoms.size() == 1 ? selection_ns
                                                            : join_ns;
    into.push_back(static_cast<uint32_t>(ns));
    ++reads;
    if (bad) ++violations;
  }
};

/// One repetition's read percentiles (microseconds); only these are kept.
struct ReadStats {
  double p50 = 0, p90 = 0, p99 = 0;
  double point_p50 = 0, selection_p50 = 0, join_p50 = 0, join_p99 = 0;
};

ReadStats Summarize(const ReadSamples& s) {
  ReadStats r;
  std::vector<uint32_t> all = s.point_ns;
  all.insert(all.end(), s.selection_ns.begin(), s.selection_ns.end());
  all.insert(all.end(), s.join_ns.begin(), s.join_ns.end());
  r.p50 = PercentileUs(all, 0.50);
  r.p90 = PercentileUs(all, 0.90);
  r.p99 = PercentileUs(std::move(all), 0.99);
  r.point_p50 = PercentileUs(s.point_ns, 0.50);
  r.selection_p50 = PercentileUs(s.selection_ns, 0.50);
  r.join_p50 = PercentileUs(s.join_ns, 0.50);
  r.join_p99 = PercentileUs(s.join_ns, 0.99);
  return r;
}

/// One closed-loop reader thread over the seeded read stream.
class Reader {
 public:
  Reader(const core::Session& session,
         const std::vector<workload::QueryOp>& ops, size_t first)
      : session_(session), ops_(ops), next_(first % ops.size()) {}
  ~Reader() {
    if (thread_.joinable()) Stop();
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Start() {
    samples.Reserve(1 << 18);
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    thread_.join();
  }

  ReadSamples samples;

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      samples.Read(session_, ops_[next_]);
      next_ = (next_ + 1) % ops_.size();
    }
  }

  const core::Session& session_;
  const std::vector<workload::QueryOp>& ops_;
  size_t next_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- One repetition ---------------------------------------------------------

struct Rep {
  bool traced = false;
  bool setup_only = false;  // A set-up trial: no update, nothing else timed.
  /// Host probes (see HostProbeSeconds) run just before and just after this
  /// repetition's round's full repetition.
  double probe_s = 0, post_probe_s = 0;
  double session_s = 0, attach_s = 0, discovery_s = 0, setup_s = 0;
  double fixpoint_s = 0, recovery_s = 0;
  double peak_rss_mb = 0;  // Peak RSS of this repetition alone.
  uint64_t tuples = 0, net_bytes = 0, storage_bytes = 0;
  // Correctness accounting.
  uint64_t updates_failed = 0, restarts = 0, restarts_failed = 0, reads = 0,
           read_violations = 0;
  ReadStats read;
  int64_t staleness_max = 0;
  std::map<std::string, double> layer;  // Traced repetitions only.
  /// Per dispatch kind: send + storage + capture time nested in it (us).
  std::array<double, kKinds> children_us{};
  /// Traced: the counters and captures, kept until the run has picked the
  /// repetition it reports, so the replays never run between repetitions.
  std::unique_ptr<LayerClock> clock;
};

class Runner {
 public:
  Runner(RunOptions options, WorkloadSpec spec)
      : options_(std::move(options)), spec_(std::move(spec)) {}

  int Main();

 private:
  Status Prepare();
  Rep RunRep(size_t index, bool traced, bool setup_only);
  std::unique_ptr<net::Runtime> MakeRuntime() const;
  bool GateUpdate(const core::Session& session) const;
  void AddTracedLayers(const core::Session& session, net::Runtime* inner,
                       LayerClock& clock, const obs::TraceCollector& collector,
                       uint64_t sim_micros, Rep* rep) const;
  void CrashAndRestartAll(core::Session& session, LayerClock* clock,
                          Rep* rep) const;
  void AddReplayLayers(LayerClock& clock, Rep* rep) const;
  int Report(const std::vector<Rep>& reps, const Rep* traced) const;

  RunOptions options_;
  WorkloadSpec spec_;
  core::P2PSystem system_;
  std::vector<rel::Database> oracle_;
  std::vector<workload::QueryOp> ops_;
};

Status Runner::Prepare() {
  auto system = BuildSeededSystem(spec_, options_.seed);
  if (!system.ok()) return system.status();
  system_ = std::move(*system);
  auto oracle = core::ComputeGlobalFixpoint(system_, rel::ChaseOptions{});
  if (!oracle.ok()) return oracle.status();
  oracle_ = std::move(oracle->node_dbs);
  workload::QueryWorkloadOptions q;
  q.ops = 4096;
  q.seed = options_.seed;
  auto ops = workload::BuildQueryWorkload(system_, q);
  if (!ops.ok()) return ops.status();
  ops_ = std::move(*ops);
  return Status::OK();
}

std::unique_ptr<net::Runtime> Runner::MakeRuntime() const {
  if (spec_.tcp) {
    net::TcpRuntime::Options o;
    // Reactor threads + the calling thread + the reader stay within the
    // host's cores.
    int cores = static_cast<int>(std::thread::hardware_concurrency());
    o.io_workers = std::max(1, cores - 2);
    return std::make_unique<net::TcpRuntime>(o);
  }
  return std::make_unique<net::SimRuntime>(
      net::SimRuntime::Options{.seed = kSimSeed, .max_events = 500'000'000});
}

bool Runner::GateUpdate(const core::Session& session) const {
  for (NodeId n : session.Participants()) {
    if (!session.IsAlive(n) || n >= oracle_.size() ||
        !rel::DatabasesCertainEqual(session.peer(n).db(), oracle_[n])) {
      std::fprintf(stderr, "gate: node %u differs from the global fixpoint\n",
                   n);
      return false;
    }
  }
  return true;
}

Rep Runner::RunRep(size_t index, bool traced, bool setup_only) {
  Rep rep;
  rep.traced = traced;
  const size_t nodes = system_.node_count();
  fs::path dir = fs::path(options_.workdir) / ("rep" + std::to_string(index));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  std::unique_ptr<LayerClock> clock;
  if (traced) clock = std::make_unique<LayerClock>(nodes);
  obs::SetDetailedTiming(traced);
  obs::TraceCollector collector;

  // Storage: StorageManager with kSync in the repetition's directory — from
  // set-up on a durable workload, and once the converged peers are persisted
  // on the others. Before that a traced volatile repetition attaches
  // NullStorage, so the decorator still sees every delta batch.
  bool persisting = spec_.durable;
  bool storage_failed = false;
  core::Session::Options session_options;
  session_options.storage =
      [&](NodeId node) -> std::unique_ptr<storage::Storage> {
    std::unique_ptr<storage::Storage> backend;
    if (persisting) {
      storage::StorageOptions so;
      so.dir = (dir / ("peer" + std::to_string(node))).string();
      so.sync = storage::SyncMode::kSync;
      auto manager = storage::StorageManager::Open(so);
      if (manager.ok()) {
        backend = std::move(*manager);
      } else {
        storage_failed = true;
      }
    }
    if (backend == nullptr) {
      backend = std::make_unique<storage::NullStorage>();
    }
    if (clock != nullptr) {
      backend = std::make_unique<TimedStorage>(node, std::move(backend),
                                               clock.get());
    }
    return backend;
  };

  // Set-up: runtime and session construction, storage attach (base
  // checkpoints), discovery to quiescence.
  auto setup_start = Clock::now();
  std::unique_ptr<net::Runtime> inner = MakeRuntime();
  std::unique_ptr<TimedRuntime> timed;
  net::Runtime* runtime = inner.get();
  if (traced) {
    timed = std::make_unique<TimedRuntime>(inner.get(), clock.get());
    runtime = timed.get();
  }
  {
    core::Session session(system_, runtime, session_options);
    rep.session_s = SecondsSince(setup_start);
    auto attach_start = Clock::now();
    bool setup_ok = true;
    if (spec_.durable || traced) {
      for (NodeId n = 0; n < nodes; ++n) {
        setup_ok = session.AttachStorage(n).ok() && setup_ok;
      }
    }
    rep.attach_s = SecondsSince(attach_start);
    auto discovery_start = Clock::now();
    setup_ok = session.RunDiscovery().ok() && setup_ok && !storage_failed;
    rep.discovery_s = SecondsSince(discovery_start);
    rep.setup_s = SecondsSince(setup_start);

    if (setup_only) {
      rep.setup_only = true;
      rep.updates_failed = setup_ok ? 0 : 1;
    } else {
      // Update window.
      if (traced) session.EnableTracing(&collector);
      inner->stats().Reset();
      obs::Registry::Global().Reset();
      if (clock != nullptr) {
        clock->ResetCounters();
        clock->capturing = true;
      }
      uint64_t disk_before = DirBytes(dir);
      uint64_t sim_start = inner->NowMicros();
      std::unique_ptr<Reader> reader;
      if (spec_.reads_during_update) {
        reader = std::make_unique<Reader>(session, ops_, index * 7919);
        reader->Start();
      }
      auto update_start = Clock::now();
      Status updated = session.RunUpdate();
      rep.fixpoint_s = SecondsSince(update_start);
      if (reader != nullptr) reader->Stop();
      if (clock != nullptr) clock->capturing = false;
      uint64_t sim_micros = inner->NowMicros() - sim_start;

      for (NodeId n = 0; n < nodes; ++n) {
        if (session.IsAlive(n)) {
          rep.tuples += session.peer(n).update().stats().tuples_inserted;
        }
      }
      rep.net_bytes = inner->stats().total_bytes();

      // Correctness gate (untimed): the update closed every participant and
      // reached the centralized fixpoint.
      bool update_ok = setup_ok && updated.ok() && session.AllClosed() &&
                       GateUpdate(session);
      if (!update_ok) {
        std::fprintf(stderr, "rep %zu: update failed (%s)\n", index,
                     updated.ToString().c_str());
      }

      // Reads: those that ran during the update, or a fixed number on the
      // converged peers now.
      ReadSamples after_update;
      const ReadSamples* samples = &after_update;
      if (reader != nullptr) {
        samples = &reader->samples;
      } else {
        after_update.Reserve(kReadsAfterUpdate);
        for (size_t i = 0; i < kReadsAfterUpdate; ++i) {
          after_update.Read(session, ops_[(index * 7919 + i) % ops_.size()]);
        }
      }
      rep.reads = samples->reads;
      rep.read_violations = samples->violations;
      rep.read = Summarize(*samples);
      rep.staleness_max = obs::Registry::Global()
                              .GetGauge("query.snapshot_staleness_batches")
                              ->Value();
      reader.reset();

      // Make the fixpoint durable: a volatile workload attaches every
      // converged peer to storage now (a base checkpoint each). Storage bytes
      // are what the data directories grew by since the update started.
      if (!spec_.durable) {
        persisting = true;
        for (NodeId n = 0; n < nodes; ++n) {
          if (session.IsAlive(n)) {
            update_ok = session.AttachStorage(n).ok() && update_ok;
          }
        }
        update_ok = update_ok && !storage_failed;
      }
      uint64_t disk_after = DirBytes(dir);
      rep.storage_bytes = disk_after > disk_before ? disk_after - disk_before : 0;
      rep.updates_failed = update_ok ? 0 : 1;
      if (traced) {
        AddTracedLayers(session, inner.get(), *clock, collector, sim_micros,
                        &rep);
        clock->ResetCounters();
      }

      CrashAndRestartAll(session, clock.get(), &rep);
    }
  }
  obs::SetDetailedTiming(false);
  timed.reset();
  inner.reset();
  fs::remove_all(dir, ec);

  rep.clock = std::move(clock);
  return rep;
}

void Runner::CrashAndRestartAll(core::Session& session, LayerClock* clock,
                                Rep* rep) const {
  // Each restarted peer must come back equal, or else isomorphic, to its
  // state before the crash.
  for (NodeId n = 0; n < session.peer_count(); ++n) {
    if (!session.IsAlive(n)) continue;
    rel::Database before_crash = session.peer(n).db();
    ++rep->restarts;
    bool restart_ok = session.CrashPeer(n).ok();
    auto restart_start = Clock::now();
    restart_ok = restart_ok && session.RestartPeer(n).ok();
    rep->recovery_s += SecondsSince(restart_start);
    restart_ok = restart_ok && session.IsAlive(n) &&
                 (session.peer(n).db() == before_crash ||
                  rel::DatabasesIsomorphic(session.peer(n).db(), before_crash));
    if (!restart_ok) {
      std::fprintf(stderr, "restart of node %u failed\n", n);
      ++rep->restarts_failed;
    }
  }
  if (clock != nullptr) {
    rep->layer["storage.recover_us"] = clock->recover_ns / 1e3;
    rep->layer["storage.wal_records_replayed"] =
        static_cast<double>(clock->wal_records_replayed.load());
    rep->layer["storage.wal_bytes_scanned"] =
        static_cast<double>(clock->wal_bytes_scanned.load());
  }
}

void Runner::AddReplayLayers(LayerClock& clock, Rep* rep) const {
  // Offline replays of the captured window, then the time split.
  PublishReplay publish = ReplayPublishes(system_, clock.deltas);
  CodecReplay codec = ReplayAnswerCodec(clock.answers, 3);
  if (!publish.ok || !codec.ok) {
    std::fprintf(stderr, "replay did not reproduce the run\n");
    rep->updates_failed = 1;
  }
  auto& L = rep->layer;
  L["mvcc.publishes"] = static_cast<double>(publish.publishes);
  L["mvcc.publish_us"] = publish.publish_ns / 1e3;
  L["mvcc.tuples_copied"] = static_cast<double>(publish.tuples_copied);
  L["mvcc.copy_per_inserted"] =
      Ratio(static_cast<double>(publish.tuples_copied),
            static_cast<double>(publish.tuples_inserted));
  L["wire.decode_us.query_answer"] = codec.decode_ns / 1e3;
  L["wire.encode_us.query_answer"] = codec.encode_ns / 1e3;
  L["wire.bytes_per_answer_tuple"] =
      Ratio(static_cast<double>(codec.payload_bytes),
            static_cast<double>(codec.answer_tuples));
  L["update.answer_tuples"] = static_cast<double>(codec.answer_tuples);
  L["update.insert_yield"] = Ratio(static_cast<double>(rep->tuples),
                                   static_cast<double>(codec.answer_tuples));

  // Self time of each dispatch kind: its wall time minus the send, storage,
  // capture and (replayed) publish time nested inside it. The parts of the
  // split are these, the runtime's own time and the children themselves.
  double wall_us = rep->fixpoint_s * 1e6;
  double dispatch_us = 0;
  double update_self = 0, other_self = 0;
  std::vector<double> parts = {L["mvcc.publish_us"], L["storage.update_us"],
                               L["net.send_us"], L["trace.capture_us"]};
  for (size_t k = 0; k < kKinds; ++k) {
    Kind kind = static_cast<Kind>(k);
    double d = L[std::string("core.dispatch_us.") + KindName(kind)];
    double self =
        d - rep->children_us[k] - publish.publish_ns_by_kind[k] / 1e3;
    dispatch_us += d;
    parts.push_back(self);
    bool update = kind == Kind::kQueryAnswer || kind == Kind::kQueryRequest;
    (update ? update_self : other_self) += self;
  }
  double runtime_self = wall_us - dispatch_us;
  parts.push_back(runtime_self);
  L["core.update_self_us"] = update_self;
  L["core.other_self_us"] = other_self;
  L["net.runtime_self_us"] = runtime_self;
  // On SimRuntime every dispatch runs on the calling thread inside the
  // update call, so the parts are disjoint and sum to the wall time unless
  // one came out negative (clamped to 0 here). On TcpRuntime dispatches
  // overlap across threads, so the runtime's part is negative and the split
  // is not expected to add up.
  double sum = 0;
  int negative = 0;
  for (double p : parts) {
    sum += std::max(0.0, p);
    negative += p < 0;
  }
  L["split.sum_error_ratio"] = Ratio(std::fabs(sum - wall_us), wall_us);
  L["split.negative_parts"] = negative;
}

void Runner::AddTracedLayers(const core::Session& session, net::Runtime* inner,
                             LayerClock& clock,
                             const obs::TraceCollector& collector,
                             uint64_t sim_micros, Rep* rep) const {
  auto& L = rep->layer;
  for (size_t k = 0; k < kKinds; ++k) {
    std::string kind = KindName(static_cast<Kind>(k));
    L["core.dispatch_us." + kind] = clock.dispatch_ns[k] / 1e3;
    L["core.dispatch_count." + kind] =
        static_cast<double>(clock.dispatch_count[k].load());
    rep->children_us[k] =
        (clock.send_ns[k] + clock.storage_ns[k] + clock.capture_ns[k]) / 1e3;
  }
  L["net.send_us"] = LayerClock::Sum(clock.send_ns) / 1e3;
  L["storage.update_us"] = LayerClock::Sum(clock.storage_ns) / 1e3;
  L["trace.capture_us"] = LayerClock::Sum(clock.capture_ns) / 1e3;

  core::UpdateEngine::Stats total;
  for (NodeId n = 0; n < session.peer_count(); ++n) {
    if (!session.IsAlive(n)) continue;
    const auto& s = session.peer(n).update().stats();
    total.tuples_inserted += s.tuples_inserted;
    total.joins_evaluated += s.joins_evaluated;
    total.answers_sent += s.answers_sent;
    total.token_passes += s.token_passes;
    total.applications_skipped += s.applications_skipped;
  }
  L["update.tuples"] = static_cast<double>(total.tuples_inserted);
  L["update.joins"] = static_cast<double>(total.joins_evaluated);
  L["update.answers"] = static_cast<double>(total.answers_sent);
  L["update.token_passes"] = static_cast<double>(total.token_passes);
  L["update.apps_skipped"] = static_cast<double>(total.applications_skipped);
  L["sim.fixpoint_ms"] = sim_micros / 1e3;

  const net::NetStats& stats = inner->stats();
  L["net.messages"] = static_cast<double>(stats.total_messages());
  L["net.bytes"] = static_cast<double>(stats.total_bytes());
  const net::IoCounters& io = stats.io();
  L["net.frames"] = static_cast<double>(io.frames_enqueued.load());
  L["net.msgs_per_frame"] =
      Ratio(static_cast<double>(stats.total_messages()),
            static_cast<double>(io.frames_enqueued.load()));
  L["net.credit_frames"] = static_cast<double>(io.credit_frames.load());
  L["net.frames_per_writev"] = io.FramesPerWritev();
  L["net.epoll_wakeups"] = static_cast<double>(io.epoll_wakeups.load());
  L["net.inline_dispatch_ratio"] =
      Ratio(static_cast<double>(io.inline_dispatches.load()),
            static_cast<double>(io.inline_dispatches.load() +
                                io.queued_dispatches.load()));
  L["net.sendq_hwm_bytes"] =
      static_cast<double>(io.send_queue_hwm_bytes.load());

  obs::Registry& registry = obs::Registry::Global();
  obs::HistogramSnapshot wait =
      registry.GetHistogram("net.mailbox_wait_micros")->Snapshot();
  L["net.mailbox_wait_us_p50"] = static_cast<double>(wait.p50);
  L["net.mailbox_wait_us_p99"] = static_cast<double>(wait.p99);
  L["storage.fsync_us_p50"] = static_cast<double>(
      registry.GetHistogram("wal.fsync_micros")->Snapshot().p50);

  L["storage.appends"] = static_cast<double>(clock.appends.load());
  L["storage.log_delta_us"] = clock.log_delta_ns / 1e3;
  L["storage.checkpoints"] = static_cast<double>(clock.checkpoints.load());
  L["storage.checkpoint_us"] = clock.checkpoint_ns / 1e3;
  L["storage.bytes_written"] = static_cast<double>(clock.bytes_written.load());

  // The update's causal trace: the one with the most spans.
  uint64_t best_id = 0, best_spans = 0;
  for (uint64_t id : collector.TraceIds()) {
    uint64_t spans = collector.Spans(id).size();
    if (spans > best_spans) {
      best_spans = spans;
      best_id = id;
    }
  }
  if (best_id != 0) {
    obs::TraceReport report = collector.Analyze(best_id);
    L["trace.critical_path_us"] = static_cast<double>(report.fixpoint_micros);
    L["trace.critical_path_hops"] =
        static_cast<double>(report.critical_path.size());
  }
}

void LogRep(const Rep& r, size_t index) {
  std::fprintf(stderr,
               "rep %zu%s setup %.4fs (session %.4fs attach %.4fs "
               "discovery %.4fs) fixpoint %.4fs recovery %.4fs "
               "tuples %llu net_bytes %llu storage_bytes %llu reads %llu "
               "p50 %.3fus p90 %.3fus peak_rss %.1fMB probe %.2fms "
               "post %.2fms\n",
               index, r.traced ? " (traced)" : "", r.setup_s, r.session_s,
               r.attach_s, r.discovery_s, r.fixpoint_s, r.recovery_s,
               static_cast<unsigned long long>(r.tuples),
               static_cast<unsigned long long>(r.net_bytes),
               static_cast<unsigned long long>(r.storage_bytes),
               static_cast<unsigned long long>(r.reads), r.read.p50,
               r.read.p90, r.peak_rss_mb, r.probe_s * 1e3,
               r.post_probe_s * 1e3);
}

int Runner::Main() {
  Status prepared = Prepare();
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: cannot prepare %s: %s\n",
                 spec_.name.c_str(), prepared.ToString().c_str());
    return 1;
  }
  std::vector<Rep> reps;
  auto start = Clock::now();
  double round_s = 0;  // Duration of the last round, to end within --seconds.
  size_t rounds = 0;
  while (rounds < kMinRounds ||
         (SecondsSince(start) + round_s <= options_.seconds &&
          rounds < kMaxRounds)) {
    auto round_start = Clock::now();
    double probe_s = HostProbeSeconds();
    size_t index = reps.size();
    // A traced run alternates traced and untraced repetitions after the
    // warm-up, so the overhead ratio compares neighbours in time.
    bool traced = options_.trace && rounds >= kWarmupRounds &&
                  (rounds - kWarmupRounds) % 2 == 0;
    // Each repetition's own peak RSS: the count restarts after the probe,
    // with the previous repetition's freed heap handed back.
    if (!ResetPeakRss() && rounds == 0) {
      std::fprintf(stderr, "warning: cannot restart the peak-RSS count; "
                           "peak_rss_mb is the process's peak\n");
    }
    reps.push_back(RunRep(index, traced, false));
    reps.back().peak_rss_mb = PeakRssMb();
    double post_probe_s = HostProbeSeconds();
    // Extra set-up trials make setup_s the median of many set-ups.
    if (!options_.trace && rounds >= kWarmupRounds) {
      for (size_t t = 0; t < kSetupTrials; ++t) {
        reps.push_back(RunRep(reps.size(), false, true));
      }
    }
    for (size_t i = index; i < reps.size(); ++i) {
      reps[i].probe_s = probe_s;
      reps[i].post_probe_s = post_probe_s;
      LogRep(reps[i], i);
    }
    ++rounds;
    round_s = SecondsSince(round_start);
  }

  // A traced run reports its traced repetition at the median of the traced
  // fixpoint times; only that one is replayed.
  std::vector<Rep*> traced;
  for (size_t i = kWarmupRounds; i < reps.size(); ++i) {
    if (reps[i].traced) traced.push_back(&reps[i]);
  }
  std::sort(traced.begin(), traced.end(), [](const Rep* a, const Rep* b) {
    return a->fixpoint_s < b->fixpoint_s;
  });
  Rep* reported = traced.empty() ? nullptr : traced[(traced.size() - 1) / 2];
  for (Rep& r : reps) {
    if (&r != reported) r.clock.reset();
  }
  if (reported != nullptr) AddReplayLayers(*reported->clock, reported);
  return Report(reps, reported);
}

int Runner::Report(const std::vector<Rep>& reps,
                   const Rep* traced_rep) const {
  uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += 1 + r.restarts + r.reads;
    failed += r.updates_failed + r.restarts_failed + r.read_violations;
  }

  // Timed repetitions: everything after the warm-up round's one repetition.
  std::vector<const Rep*> plain, setups;
  std::vector<double> probes;
  for (size_t i = kWarmupRounds; i < reps.size(); ++i) {
    setups.push_back(&reps[i]);
    if (reps[i].setup_only) continue;
    probes.push_back(reps[i].probe_s);
    probes.push_back(reps[i].post_probe_s);
    if (!reps[i].traced) plain.push_back(&reps[i]);
  }
  auto collect = [](const std::vector<const Rep*>& from, auto field) {
    std::vector<double> out;
    for (const Rep* r : from) out.push_back(field(*r));
    return out;
  };
  auto median = [&](auto field) { return Median(collect(plain, field)); };
  std::map<std::string, double> values;
  values["setup.session_s"] = median([](const Rep& r) { return r.session_s; });
  values["setup.attach_s"] = median([](const Rep& r) { return r.attach_s; });
  values["setup.discovery_s"] =
      median([](const Rep& r) { return r.discovery_s; });
  double fixpoint = median([](const Rep& r) { return r.fixpoint_s; });

  // Host-speed scaling (NOTES.md): the shared host's speed drifts between
  // and within runs, and contention only ever slows a repetition down. Each
  // end-to-end time is the lower quartile of its per-repetition values,
  // scaled by the run's host speed as the lower quartile of its probes
  // gives it.
  double probe_q1 = Quantile(probes, 0.25);
  values["host.probe_ms"] = probe_q1 * 1e3;
  double scale = std::pow(Ratio(kNominalProbeSeconds, probe_q1), kProbeExponent);
  auto fast = [&](const std::vector<const Rep*>& from, auto field) {
    return Quantile(collect(from, field), 0.25) * scale;
  };

  if (!options_.trace) {
    values["setup_s"] = fast(setups, [](const Rep& r) { return r.setup_s; });
    values["fixpoint_s"] =
        fast(plain, [](const Rep& r) { return r.fixpoint_s; });
    values["recovery_s"] =
        fast(plain, [](const Rep& r) { return r.recovery_s; });
    values["read_p50_us"] = fast(plain, [](const Rep& r) { return r.read.p50; });
    values["read_p90_us"] = fast(plain, [](const Rep& r) { return r.read.p90; });
    std::fprintf(
        stderr,
        "raw medians: setup %.6g s, fixpoint %.6g s, recovery %.6g s, "
        "read p50 %.6g us, p90 %.6g us; host probe q1 %.2f ms\n",
        Median(collect(setups, [](const Rep& r) { return r.setup_s; })),
        fixpoint,
        median([](const Rep& r) { return r.recovery_s; }),
        median([](const Rep& r) { return r.read.p50; }),
        median([](const Rep& r) { return r.read.p90; }),
        values["host.probe_ms"]);
    values["peak_rss_mb"] = median([](const Rep& r) { return r.peak_rss_mb; });
    values["net_bytes_per_tuple"] = median([](const Rep& r) {
      return Ratio(static_cast<double>(r.net_bytes),
                   static_cast<double>(r.tuples));
    });
    values["storage_bytes_per_tuple"] = median([](const Rep& r) {
      return Ratio(static_cast<double>(r.storage_bytes),
                   static_cast<double>(r.tuples));
    });
  } else {
    if (traced_rep != nullptr) {
      for (const auto& [name, value] : traced_rep->layer) values[name] = value;
      // Traced and untraced repetitions alternate, so they saw the same
      // host.
      values["trace.overhead_ratio"] = Ratio(traced_rep->fixpoint_s, fixpoint);
    }
    // Raw medians of the untraced repetitions' per-repetition percentiles.
    values["query.point_us_p50"] =
        median([](const Rep& r) { return r.read.point_p50; });
    values["query.selection_us_p50"] =
        median([](const Rep& r) { return r.read.selection_p50; });
    values["query.join_us_p50"] =
        median([](const Rep& r) { return r.read.join_p50; });
    values["query.join_us_p99"] =
        median([](const Rep& r) { return r.read.join_p99; });
    values["query.read_p99_us"] = median([](const Rep& r) { return r.read.p99; });
    uint64_t reads = 0;
    int64_t staleness = 0;
    for (const Rep* r : plain) {
      reads += r->reads;
      staleness = std::max(staleness, r->staleness_max);
    }
    values["query.reads"] = static_cast<double>(reads);
    values["query.staleness_batches_max"] = static_cast<double>(staleness);
  }

  std::string metrics;
  for (const auto& [name, unit] :
       options_.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = values.find(name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), it->second,
                  unit.c_str());
    metrics += buf;
  }
  bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  auto spec = LookupWorkload(options.workload, options.tiny);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  Runner runner(options, std::move(*spec));
  return runner.Main();
}

}  // namespace p2pdb::perfbench
