#include "src/proto/control_protocol.h"

#include "src/util/capacity.h"

namespace lard {
namespace {

void EncodeDirectives(WireWriter* writer, const std::vector<RequestDirective>& directives) {
  writer->U32(static_cast<uint32_t>(directives.size()));
  for (const auto& directive : directives) {
    writer->U8(static_cast<uint8_t>(directive.action));
    writer->U32(static_cast<uint32_t>(directive.node));
    writer->Str(directive.path);
    writer->U8(directive.cache_after_miss ? 1 : 0);
  }
}

// Minimum encoded size of one directive: action u8 + node u32 + path length
// u32 + cache u8. Bounding the declared count by remaining/10 keeps a
// malicious 4-byte count from reserving gigabytes before the reads fail.
constexpr size_t kMinDirectiveBytes = 10;

bool DecodeDirectives(WireReader* reader, std::vector<RequestDirective>* directives) {
  const uint32_t count = reader->U32();
  if (count > 1u << 20 || count > reader->remaining() / kMinDirectiveBytes) {
    return false;
  }
  directives->clear();
  ReserveRounded(directives, count);
  for (uint32_t i = 0; i < count; ++i) {
    RequestDirective directive;
    const uint8_t action = reader->U8();
    if (action > static_cast<uint8_t>(DirectiveAction::kMigrate)) {
      return false;
    }
    directive.action = static_cast<DirectiveAction>(action);
    directive.node = static_cast<NodeId>(reader->U32());
    directive.path = reader->Str();
    directive.cache_after_miss = reader->U8() != 0;
    directives->push_back(std::move(directive));
  }
  return reader->ok();
}

}  // namespace

std::string EncodeNodeStatus(const NodeStatusMsg& msg) {
  WireWriter writer;
  writer.U64(msg.seq);
  writer.U64(static_cast<uint64_t>(msg.t_ms));
  writer.U32(msg.disk_queue_len);
  writer.U32(msg.open_conns);
  writer.U32(static_cast<uint32_t>(msg.samples.size()));
  for (const auto& sample : msg.samples) {
    writer.Str(sample.name);
    writer.F64(sample.value);
  }
  return writer.Take();
}

bool DecodeNodeStatus(std::string_view payload, NodeStatusMsg* msg) {
  WireReader reader(payload);
  msg->seq = reader.U64();
  msg->t_ms = static_cast<int64_t>(reader.U64());
  msg->disk_queue_len = reader.U32();
  msg->open_conns = reader.U32();
  const uint32_t count = reader.U32();
  // Each sample costs at least its name length prefix (u32) + value (f64).
  constexpr size_t kMinSampleBytes = 12;
  if (count > 1u << 16 || count > reader.remaining() / kMinSampleBytes) {
    return false;
  }
  msg->samples.clear();
  msg->samples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StatusSample sample;
    sample.name = reader.Str();
    sample.value = reader.F64();
    msg->samples.push_back(std::move(sample));
  }
  return reader.Complete();
}

std::string EncodeHandoff(const HandoffMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.U8(msg.autonomous ? 1 : 0);
  EncodeDirectives(&writer, msg.directives);
  writer.Str(msg.unparsed_input);
  writer.U8(msg.replay_protected ? 1 : 0);
  return writer.Take();
}

bool DecodeHandoff(std::string_view payload, HandoffMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->autonomous = reader.U8() != 0;
  if (!DecodeDirectives(&reader, &msg->directives)) {
    return false;
  }
  msg->unparsed_input = reader.Str();
  msg->replay_protected = reader.U8() != 0;
  return reader.Complete();
}

std::string EncodeReplay(const ReplayMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.U32(static_cast<uint32_t>(msg.origin_node));
  writer.U64(msg.splice_offset);
  writer.U8(msg.autonomous ? 1 : 0);
  EncodeDirectives(&writer, msg.directives);
  writer.Str(msg.replay_input);
  return writer.Take();
}

bool DecodeReplay(std::string_view payload, ReplayMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->origin_node = static_cast<NodeId>(reader.U32());
  msg->splice_offset = reader.U64();
  msg->autonomous = reader.U8() != 0;
  if (!DecodeDirectives(&reader, &msg->directives)) {
    return false;
  }
  msg->replay_input = reader.Str();
  return reader.Complete();
}

std::string EncodeReplayAck(const ReplayAckMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.U64(msg.completed);
  writer.U64(msg.partial_bytes);
  return writer.Take();
}

bool DecodeReplayAck(std::string_view payload, ReplayAckMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->completed = reader.U64();
  msg->partial_bytes = reader.U64();
  return reader.Complete();
}

std::string EncodeJournalAppend(const JournalAppendMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.Str(msg.method);
  writer.Str(msg.path);
  writer.Str(msg.request_bytes);
  return writer.Take();
}

bool DecodeJournalAppend(std::string_view payload, JournalAppendMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->method = reader.Str();
  msg->path = reader.Str();
  msg->request_bytes = reader.Str();
  return reader.Complete();
}

std::string EncodeJournalTail(const JournalTailMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.Str(msg.buffered);
  return writer.Take();
}

bool DecodeJournalTail(std::string_view payload, JournalTailMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->buffered = reader.Str();
  return reader.Complete();
}

std::string EncodeHandback(const HandbackMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.U32(static_cast<uint32_t>(msg.target_node));
  EncodeDirectives(&writer, msg.directives);
  writer.Str(msg.replay_input);
  return writer.Take();
}

bool DecodeHandback(std::string_view payload, HandbackMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->target_node = static_cast<NodeId>(reader.U32());
  if (!DecodeDirectives(&reader, &msg->directives)) {
    return false;
  }
  msg->replay_input = reader.Str();
  return reader.Complete();
}

std::string EncodeConsult(const ConsultMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  writer.U32(msg.disk_queue_len);
  writer.U32(static_cast<uint32_t>(msg.paths.size()));
  for (const auto& path : msg.paths) {
    writer.Str(path);
  }
  return writer.Take();
}

bool DecodeConsult(std::string_view payload, ConsultMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  msg->disk_queue_len = reader.U32();
  const uint32_t count = reader.U32();
  // Each path costs at least its u32 length prefix on the wire.
  if (count > 1u << 20 || count > reader.remaining() / 4) {
    return false;
  }
  msg->paths.clear();
  ReserveRounded(&msg->paths, count);
  for (uint32_t i = 0; i < count; ++i) {
    msg->paths.push_back(reader.Str());
  }
  return reader.Complete();
}

std::string EncodeAssignments(const AssignmentsMsg& msg) {
  WireWriter writer;
  writer.U64(msg.conn_id);
  EncodeDirectives(&writer, msg.directives);
  return writer.Take();
}

bool DecodeAssignments(std::string_view payload, AssignmentsMsg* msg) {
  WireReader reader(payload);
  msg->conn_id = reader.U64();
  if (!DecodeDirectives(&reader, &msg->directives)) {
    return false;
  }
  return reader.Complete();
}

std::string EncodeU64(uint64_t value) {
  WireWriter writer;
  writer.U64(value);
  return writer.Take();
}

bool DecodeU64(std::string_view payload, uint64_t* value) {
  WireReader reader(payload);
  *value = reader.U64();
  return reader.Complete();
}

std::string EncodeU32(uint32_t value) {
  WireWriter writer;
  writer.U32(value);
  return writer.Take();
}

bool DecodeU32(std::string_view payload, uint32_t* value) {
  WireReader reader(payload);
  *value = reader.U32();
  return reader.Complete();
}

}  // namespace lard
