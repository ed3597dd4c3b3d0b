// Offline replays of what a traced repetition captured, through the same
// public entry points the program uses on its hot path:
//   - every peer's delta batches, in commit order, through
//     rel::AdvanceSnapshot + SnapshotStore::Publish exactly as
//     Peer::OnDeltaApplied calls them (the MVCC publish layer);
//   - every QueryAnswer payload through wire::QueryAnswer::Decode/Encode
//     (the core.wire codec layer).
#ifndef P2PDB_PERFBENCH_REPLAY_H_
#define P2PDB_PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "perfbench/src/layers.h"
#include "src/core/system.h"

namespace p2pdb::perfbench {

struct PublishReplay {
  uint64_t publishes = 0;
  uint64_t tuples_copied = 0;   // Tuples in the relations each batch touched.
  uint64_t tuples_inserted = 0;
  uint64_t publish_ns = 0;
  /// publish_ns split by the dispatch kind each batch was applied under.
  std::array<uint64_t, kKinds> publish_ns_by_kind{};
  bool ok = true;
};

/// Replays `deltas[n]` onto node n's initial database from `system`.
PublishReplay ReplayPublishes(
    const core::P2PSystem& system,
    const std::vector<std::vector<CapturedDelta>>& deltas);

struct CodecReplay {
  uint64_t answers = 0;
  uint64_t answer_tuples = 0;
  uint64_t payload_bytes = 0;
  uint64_t decode_ns = 0;
  uint64_t encode_ns = 0;
  bool ok = true;  // Every payload decoded and re-encoded byte-identically.
};

/// Decodes and re-encodes every payload `passes` times; times are the
/// fastest pass.
CodecReplay ReplayAnswerCodec(const std::vector<std::vector<uint8_t>>& answers,
                              int passes);

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_REPLAY_H_
