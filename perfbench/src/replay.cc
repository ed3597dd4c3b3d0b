#include "perfbench/src/replay.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "src/core/wire.h"
#include "src/relational/mvcc.h"

namespace p2pdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

PublishReplay ReplayPublishes(
    const core::P2PSystem& system,
    const std::vector<std::vector<CapturedDelta>>& deltas) {
  PublishReplay out;
  for (NodeId node = 0; node < deltas.size() && node < system.node_count();
       ++node) {
    if (deltas[node].empty()) continue;
    rel::Database db = system.node(node).db;
    rel::SnapshotStore store;
    store.Publish(rel::BuildSnapshot(db, 0));
    for (const CapturedDelta& batch : deltas[node]) {
      std::vector<std::string> touched;
      touched.reserve(batch.delta.size());
      for (const auto& [relation, tuples] : batch.delta) {
        for (const rel::Tuple& t : tuples) {
          auto inserted = db.Insert(relation, t);
          if (!inserted.ok()) out.ok = false;
          if (inserted.ok() && *inserted) ++out.tuples_inserted;
        }
        touched.push_back(relation);
        if (const rel::Relation* r = db.FindRelation(relation)) {
          out.tuples_copied += r->size();
        }
      }
      auto start = Clock::now();
      uint64_t committed = store.NoteBatchCommitted();
      store.Publish(
          rel::AdvanceSnapshot(store.Acquire(), db, touched, committed));
      uint64_t ns = NanosSince(start);
      out.publish_ns += ns;
      out.publish_ns_by_kind[static_cast<size_t>(batch.kind)] += ns;
      ++out.publishes;
    }
  }
  return out;
}

CodecReplay ReplayAnswerCodec(const std::vector<std::vector<uint8_t>>& answers,
                              int passes) {
  CodecReplay out;
  out.decode_ns = std::numeric_limits<uint64_t>::max();
  out.encode_ns = std::numeric_limits<uint64_t>::max();
  for (int pass = 0; pass < std::max(1, passes); ++pass) {
    uint64_t decode_ns = 0;
    uint64_t encode_ns = 0;
    uint64_t tuples = 0;
    uint64_t bytes = 0;
    for (const std::vector<uint8_t>& payload : answers) {
      auto start = Clock::now();
      auto decoded = core::wire::QueryAnswer::Decode(
          ByteView(payload.data(), payload.size()));
      decode_ns += NanosSince(start);
      if (!decoded.ok()) {
        out.ok = false;
        continue;
      }
      start = Clock::now();
      std::vector<uint8_t> encoded = decoded->Encode();
      encode_ns += NanosSince(start);
      if (encoded != payload) out.ok = false;
      tuples += decoded->tuples.size();
      bytes += payload.size();
    }
    out.decode_ns = std::min(out.decode_ns, decode_ns);
    out.encode_ns = std::min(out.encode_ns, encode_ns);
    out.answers = answers.size();
    out.answer_tuples = tuples;
    out.payload_bytes = bytes;
  }
  return out;
}

}  // namespace p2pdb::perfbench
