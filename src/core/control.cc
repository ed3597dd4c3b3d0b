#include "src/core/control.h"

#include "src/core/discovery.h"
#include "src/core/update.h"
#include "src/util/string_util.h"

namespace p2pdb::core::wire {

namespace {

#define WIRE_TRY(lhs, expr)          \
  auto lhs##_res = (expr);           \
  if (!lhs##_res.ok()) return lhs##_res.status(); \
  auto lhs = std::move(*lhs##_res)

void EncodeSchema(const rel::RelationSchema& schema, Writer* w) {
  w->PutString(schema.name());
  w->PutVarint(schema.attributes().size());
  for (const std::string& attr : schema.attributes()) w->PutString(attr);
}

Result<rel::RelationSchema> DecodeSchema(Reader* r) {
  WIRE_TRY(name, r->GetString());
  WIRE_TRY(n, r->GetVarint());
  std::vector<std::string> attrs;
  for (uint64_t i = 0; i < n; ++i) {
    WIRE_TRY(attr, r->GetString());
    attrs.push_back(std::move(attr));
  }
  return rel::RelationSchema(std::move(name), std::move(attrs));
}

void EncodeEndpointEntry(const EndpointEntry& e, Writer* w) {
  w->PutU32(e.node);
  w->PutString(e.host);
  w->PutVarint(e.port);
}

Result<EndpointEntry> DecodeEndpointEntry(Reader* r) {
  EndpointEntry out;
  WIRE_TRY(node, r->GetU32());
  out.node = node;
  WIRE_TRY(host, r->GetString());
  out.host = std::move(host);
  WIRE_TRY(port, r->GetVarint());
  if (port > 65535) {
    return Status::ParseError("endpoint port out of range");
  }
  out.port = static_cast<uint16_t>(port);
  return out;
}

/// Shared by the epoch-only control payloads (start/refresh/poll/shutdown).
std::vector<uint8_t> EncodeEpochOnly(uint64_t epoch) {
  Writer w;
  w.PutVarint(epoch);
  return w.TakeBytes();
}

Result<uint64_t> DecodeEpochOnly(ByteView bytes) {
  Reader r(bytes);
  WIRE_TRY(epoch, r.GetVarint());
  return epoch;
}

}  // namespace

std::vector<uint8_t> SessionBootstrap::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutString(name);
  w.PutU32(super_peer);
  w.PutVarint(schema.size());
  for (const rel::RelationSchema& s : schema) EncodeSchema(s, &w);
  w.PutVarint(rules.size());
  for (const CoordinationRule& rule : rules) EncodeRule(rule, &w);
  w.PutVarint(endpoints.size());
  for (const EndpointEntry& e : endpoints) EncodeEndpointEntry(e, &w);
  return w.TakeBytes();
}

Result<SessionBootstrap> SessionBootstrap::Decode(ByteView bytes) {
  Reader r(bytes);
  SessionBootstrap out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(super_peer, r.GetU32());
  out.super_peer = super_peer;
  WIRE_TRY(ns, r.GetVarint());
  for (uint64_t i = 0; i < ns; ++i) {
    WIRE_TRY(s, DecodeSchema(&r));
    out.schema.push_back(std::move(s));
  }
  WIRE_TRY(nr, r.GetVarint());
  for (uint64_t i = 0; i < nr; ++i) {
    WIRE_TRY(rule, DecodeRule(&r));
    if (rule.head_node != out.node) {
      return Status::ParseError("bootstrap rule " + rule.id +
                                " is not headed at the bootstrapped node");
    }
    out.rules.push_back(std::move(rule));
  }
  WIRE_TRY(ne, r.GetVarint());
  for (uint64_t i = 0; i < ne; ++i) {
    WIRE_TRY(e, DecodeEndpointEntry(&r));
    out.endpoints.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after bootstrap payload");
  }
  return out;
}

std::vector<uint8_t> BootstrapAck::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutString(name);
  w.PutU8(accepted ? 1 : 0);
  w.PutString(error);
  return w.TakeBytes();
}

Result<BootstrapAck> BootstrapAck::Decode(ByteView bytes) {
  Reader r(bytes);
  BootstrapAck out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(accepted, r.GetU8());
  out.accepted = accepted != 0;
  WIRE_TRY(error, r.GetString());
  out.error = std::move(error);
  return out;
}

std::vector<uint8_t> ControlStartDiscovery::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlStartDiscovery> ControlStartDiscovery::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlStartDiscovery{epoch};
}

std::vector<uint8_t> ControlStartUpdate::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutVarint(session);
  return w.TakeBytes();
}

Result<ControlStartUpdate> ControlStartUpdate::Decode(ByteView bytes) {
  Reader r(bytes);
  ControlStartUpdate out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(session, r.GetVarint());
  out.session = session;
  return out;
}

std::vector<uint8_t> ControlRefreshScc::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlRefreshScc> ControlRefreshScc::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlRefreshScc{epoch};
}

std::vector<uint8_t> StatusRequest::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<StatusRequest> StatusRequest::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return StatusRequest{epoch};
}

bool StatusReport::operator==(const StatusReport& other) const {
  return epoch == other.epoch && node == other.node && name == other.name &&
         state_discovery == other.state_discovery &&
         state_update == other.state_update && tuples == other.tuples &&
         tuples_inserted == other.tuples_inserted &&
         joins_evaluated == other.joins_evaluated &&
         answers_sent == other.answers_sent &&
         token_passes == other.token_passes && reopens == other.reopens;
}

std::vector<uint8_t> StatusReport::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutString(name);
  w.PutU8(state_discovery);
  w.PutU8(state_update);
  w.PutVarint(tuples);
  w.PutVarint(tuples_inserted);
  w.PutVarint(joins_evaluated);
  w.PutVarint(answers_sent);
  w.PutVarint(token_passes);
  w.PutVarint(reopens);
  return w.TakeBytes();
}

Result<StatusReport> StatusReport::Decode(ByteView bytes) {
  Reader r(bytes);
  StatusReport out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(state_d, r.GetU8());
  out.state_discovery = state_d;
  WIRE_TRY(state_u, r.GetU8());
  out.state_update = state_u;
  WIRE_TRY(tuples, r.GetVarint());
  out.tuples = tuples;
  WIRE_TRY(inserted, r.GetVarint());
  out.tuples_inserted = inserted;
  WIRE_TRY(joins, r.GetVarint());
  out.joins_evaluated = joins;
  WIRE_TRY(answers, r.GetVarint());
  out.answers_sent = answers;
  WIRE_TRY(passes, r.GetVarint());
  out.token_passes = passes;
  WIRE_TRY(reopens, r.GetVarint());
  out.reopens = reopens;
  return out;
}

std::string FormatStatusTable(const std::vector<StatusReport>& rows) {
  auto discovery_name = [](uint8_t state) {
    switch (static_cast<DiscoveryEngine::State>(state)) {
      case DiscoveryEngine::State::kClosed:
        return "closed";
      case DiscoveryEngine::State::kDiscovery:
        return "disc";
      default:
        return "undef";
    }
  };
  auto update_name = [](uint8_t state) {
    switch (static_cast<UpdateEngine::State>(state)) {
      case UpdateEngine::State::kClosed:
        return "closed";
      case UpdateEngine::State::kOpen:
        return "open";
      default:
        return "idle";
    }
  };
  std::string out = StrFormat("%-6s %-8s %-8s %10s %8s %8s %8s %8s %8s\n",
                              "node", "state_d", "state_u", "tuples",
                              "inserted", "joins", "answers", "tokens",
                              "reopens");
  for (const StatusReport& r : rows) {
    out += StrFormat("%-6s %-8s %-8s %10llu %8llu %8llu %8llu %8llu %8llu\n",
                     r.name.c_str(), discovery_name(r.state_discovery),
                     update_name(r.state_update),
                     static_cast<unsigned long long>(r.tuples),
                     static_cast<unsigned long long>(r.tuples_inserted),
                     static_cast<unsigned long long>(r.joins_evaluated),
                     static_cast<unsigned long long>(r.answers_sent),
                     static_cast<unsigned long long>(r.token_passes),
                     static_cast<unsigned long long>(r.reopens));
  }
  return out;
}

std::vector<uint8_t> DumpRequest::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<DumpRequest> DumpRequest::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return DumpRequest{epoch};
}

std::vector<uint8_t> DumpReply::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutVarint(database.size());
  w.PutRaw(database.data(), database.size());
  return w.TakeBytes();
}

Result<DumpReply> DumpReply::Decode(ByteView bytes) {
  Reader r(bytes);
  DumpReply out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(size, r.GetVarint());
  WIRE_TRY(data, r.GetRaw(size));
  out.database.assign(data, data + size);
  return out;
}

std::vector<uint8_t> ControlShutdown::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlShutdown> ControlShutdown::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlShutdown{epoch};
}

}  // namespace p2pdb::core::wire
