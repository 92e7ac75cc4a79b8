#include "persist/object_table.h"

#include <utility>

namespace socs::persist {

namespace {

void WriteEntry(ByteWriter* w, SegmentId id, const ObjectEntry& e) {
  w->U64(id);
  w->U32(e.addr.file_class);
  w->U64(e.addr.offset);
  w->U64(e.addr.length);
  w->U8(static_cast<uint8_t>(e.codec));
  w->U64(e.logical_bytes);
  w->U32(e.crc);
}

StatusOr<std::pair<SegmentId, ObjectEntry>> ReadEntry(ByteReader* r) {
  auto id = r->U64();
  auto cls = r->U32();
  auto offset = r->U64();
  auto length = r->U64();
  auto codec = r->U8();
  auto logical = r->U64();
  auto crc = r->U32();
  if (!id.ok()) return id.status();
  if (!cls.ok()) return cls.status();
  if (!offset.ok()) return offset.status();
  if (!length.ok()) return length.status();
  if (!codec.ok()) return codec.status();
  if (!logical.ok()) return logical.status();
  if (!crc.ok()) return crc.status();
  if (*codec >= kNumSegmentCodecs) {
    return Status::DataLoss("object entry: unknown codec");
  }
  ObjectEntry e;
  e.addr.file_class = *cls;
  e.addr.offset = *offset;
  e.addr.length = *length;
  e.codec = static_cast<SegmentCodec>(*codec);
  e.logical_bytes = *logical;
  e.crc = *crc;
  return std::make_pair(*id, e);
}

}  // namespace

std::vector<std::byte> SerializeObjectTable(const ObjectTable& table) {
  ByteWriter w;
  w.U64(table.size());
  for (const auto& [id, e] : table) WriteEntry(&w, id, e);
  return w.Take();
}

StatusOr<ObjectTable> ParseObjectTable(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  auto count = r.U64();
  if (!count.ok()) return count.status();
  ObjectTable table;
  for (uint64_t i = 0; i < *count; ++i) {
    auto entry = ReadEntry(&r);
    if (!entry.ok()) return entry.status();
    table.emplace(entry->first, entry->second);
  }
  if (!r.Done()) return Status::DataLoss("object table: trailing bytes");
  return table;
}

StatusOr<DeltaLog> DeltaLog::Open(const std::string& path) {
  auto h = FileHandle::OpenRW(path);
  if (!h.ok()) return h.status();
  return DeltaLog(std::move(*h));
}

Status DeltaLog::AppendRecord(std::span<const std::byte> body,
                              const FaultHook& hook) {
  ByteWriter w;
  w.U32(kRecordMagic);
  w.Bytes(body);
  w.U32(Crc32(body));
  const std::vector<std::byte>& record = w.data();
  // Two-half write: a crash between the halves leaves a torn record that
  // Replay detects via the CRC and truncates. The fault hook sits exactly
  // there.
  const size_t half = record.size() / 2;
  std::span<const std::byte> all(record);
  auto first = file_.Append(all.subspan(0, half));
  if (!first.ok()) return first.status();
  if (hook) hook("log.append.mid");
  auto second = file_.Append(all.subspan(half));
  if (!second.ok()) return second.status();
  return Status::OK();
}

Status DeltaLog::AppendPut(SegmentId id, const ObjectEntry& entry,
                           const FaultHook& hook) {
  ByteWriter body;
  body.U8(kOpPut);
  WriteEntry(&body, id, entry);
  return AppendRecord(body.data(), hook);
}

Status DeltaLog::AppendDel(SegmentId id, const FaultHook& hook) {
  ByteWriter body;
  body.U8(kOpDel);
  body.U64(id);
  return AppendRecord(body.data(), hook);
}

Status DeltaLog::Sync() { return file_.Sync(); }

StatusOr<DeltaLog::ReplayResult> DeltaLog::Replay() const {
  auto size = file_.Size();
  if (!size.ok()) return size.status();
  std::vector<std::byte> bytes(*size);
  Status st = file_.ReadAt(0, bytes);
  if (!st.ok()) return st;

  ReplayResult result;
  ByteReader r(bytes);
  while (!r.Done()) {
    const size_t record_start = r.pos();
    auto magic = r.U32();
    if (!magic.ok() || *magic != kRecordMagic) break;
    auto op = r.U8();
    if (!op.ok()) break;
    Record rec;
    rec.op = *op;
    size_t body_start = record_start + 4;  // past the magic
    if (*op == kOpPut) {
      auto entry = ReadEntry(&r);
      if (!entry.ok()) break;
      rec.id = entry->first;
      rec.entry = entry->second;
    } else if (*op == kOpDel) {
      auto id = r.U64();
      if (!id.ok()) break;
      rec.id = *id;
    } else {
      break;  // unknown op: treat as torn tail
    }
    const size_t body_end = r.pos();
    auto crc = r.U32();
    if (!crc.ok()) break;
    std::span<const std::byte> body(bytes.data() + body_start,
                                    body_end - body_start);
    if (Crc32(body) != *crc) break;
    result.records.push_back(std::move(rec));
    result.valid_bytes = r.pos();
  }
  result.clean_tail = result.valid_bytes == bytes.size();
  return result;
}

Status DeltaLog::TruncateTo(uint64_t valid_bytes) {
  return file_.Truncate(valid_bytes);
}

}  // namespace socs::persist
