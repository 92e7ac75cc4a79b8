#include "persist/segment_files.h"

#include <limits>
#include <utility>

namespace socs::persist {

StatusOr<SegmentFileSet> SegmentFileSet::Open(const std::string& dir) {
  SegmentFileSet set;
  for (uint32_t k = 0; k < kNumClasses; ++k) {
    auto h = FileHandle::OpenRW(dir + "/segments_cls" + std::to_string(k) +
                                ".dat");
    if (!h.ok()) return h.status();
    set.files_[k] = std::move(*h);
  }
  return set;
}

uint32_t SegmentFileSet::ClassFor(uint64_t bytes) {
  for (uint32_t k = 0; k + 1 < kNumClasses; ++k) {
    if (bytes <= (kBaseClassBytes << k)) return k;
  }
  return kNumClasses - 1;
}

StatusOr<BlobAddress> SegmentFileSet::Append(
    std::span<const std::byte> payload, uint32_t* crc) {
  // The record header stores the length as a u32; a larger payload would be
  // written with a truncated header and fail every subsequent Read.
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "blob payload of " + std::to_string(payload.size()) +
        " bytes exceeds the u32 record-header length field");
  }
  const uint32_t cls = ClassFor(payload.size());
  *crc = Crc32(payload);
  ByteWriter header;
  header.U32(kRecordMagic);
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(*crc);
  header.U32(0);
  auto offset = files_[cls].Append(header.data(), payload);
  if (!offset.ok()) return offset.status();
  dirty_[cls] = true;
  BlobAddress addr;
  addr.file_class = cls;
  addr.offset = *offset;
  addr.length = payload.size();
  return addr;
}

StatusOr<std::vector<std::byte>> SegmentFileSet::Read(const BlobAddress& addr,
                                                      uint32_t* crc) const {
  if (addr.file_class >= kNumClasses) {
    return Status::DataLoss("blob address: bad file class");
  }
  std::array<std::byte, kHeaderBytes> header;
  std::vector<std::byte> payload(addr.length);
  Status st = files_[addr.file_class].ReadAt(addr.offset, header, payload);
  if (!st.ok()) return st;
  ByteReader r(header);
  auto magic = r.U32();
  auto len = r.U32();
  auto stored_crc = r.U32();
  auto reserved = r.U32();
  if (!magic.ok() || !len.ok() || !stored_crc.ok() || !reserved.ok()) {
    return Status::DataLoss("blob record: truncated header");
  }
  if (*magic != kRecordMagic) {
    return Status::DataLoss("blob record: bad magic");
  }
  if (*len != addr.length) {
    return Status::DataLoss("blob record: length disagrees with object table");
  }
  if (Crc32(payload) != *stored_crc) {
    return Status::DataLoss("blob record: checksum mismatch");
  }
  *crc = *stored_crc;
  return payload;
}

SegmentFileSet::ClassSet SegmentFileSet::TakeDirty() {
  return std::exchange(dirty_, ClassSet{});
}

Status SegmentFileSet::Sync(const ClassSet& classes) {
  for (uint32_t k = 0; k < kNumClasses; ++k) {
    if (!classes[k]) continue;
    Status st = files_[k].Sync();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

StatusOr<uint64_t> SegmentFileSet::FileBytes() const {
  uint64_t total = 0;
  for (uint32_t k = 0; k < kNumClasses; ++k) {
    auto sz = files_[k].Size();
    if (!sz.ok()) return sz.status();
    total += *sz;
  }
  return total;
}

}  // namespace socs::persist
