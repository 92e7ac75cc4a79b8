// Size-class append-only segment files: the data half of the persistent
// store. Encoded segment blobs are appended, never overwritten; each record
// carries its own magic + CRC so any prefix of a file is independently
// verifiable. Dead bytes (blobs whose segment was freed or superseded by a
// COW write) are only accounted, never reclaimed in place -- checkpoints are
// the unit of compaction policy, and the gauges tell the operator when one
// would pay off.
//
// Blobs are routed to one of kNumClasses files by payload size: class k holds
// payloads up to 4KiB << k, the last class is unbounded. This keeps small
// segment churn (cracking piece writes) from interleaving with multi-MB
// bulk-loaded columns, so dead-byte hot spots stay confined to one file.
#ifndef SOCS_PERSIST_SEGMENT_FILES_H_
#define SOCS_PERSIST_SEGMENT_FILES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "persist/format.h"

namespace socs::persist {

/// Where a blob lives: which size-class file, byte offset of its record
/// header, and the payload length.
struct BlobAddress {
  uint32_t file_class = 0;
  uint64_t offset = 0;
  uint64_t length = 0;

  bool operator==(const BlobAddress&) const = default;
};

class SegmentFileSet {
 public:
  /// An empty set (no files open); use Open. Public because StatusOr
  /// requires default-constructible values.
  SegmentFileSet() = default;

  static constexpr uint32_t kNumClasses = 8;
  /// Class k accepts payloads up to (4 KiB << k); the last class everything.
  static constexpr uint64_t kBaseClassBytes = 4096;
  /// Record header: u32 magic, u32 payload length, u32 payload CRC,
  /// u32 reserved (zero).
  static constexpr uint32_t kRecordMagic = 0x5E65B10Bu;
  static constexpr uint64_t kHeaderBytes = 16;

  /// Opens (creating as needed) `segments_cls<k>.dat` for every class under
  /// `dir`.
  static StatusOr<SegmentFileSet> Open(const std::string& dir);

  /// Appends one blob record -- header and payload in one gathered write --
  /// and returns where it landed. `*crc` receives the payload CRC, computed
  /// once here for both the header and the caller's object-table entry.
  /// Marks the class dirty; does not sync.
  StatusOr<BlobAddress> Append(std::span<const std::byte> payload,
                               uint32_t* crc);

  /// Reads the payload at `addr` straight into the returned vector,
  /// verifying magic, length, and CRC; `*crc` receives the verified CRC.
  StatusOr<std::vector<std::byte>> Read(const BlobAddress& addr,
                                        uint32_t* crc) const;

  /// One flag per size class.
  using ClassSet = std::array<bool, kNumClasses>;
  /// The classes appended to since the last call; clears the record, so an
  /// append after this call dirties its class again.
  ClassSet TakeDirty();
  /// fsyncs the class files in `classes`. Touches only the open
  /// descriptors, so it may run while another thread appends under the
  /// caller's lock (as may Read).
  Status Sync(const ClassSet& classes);

  /// Which class a payload of `bytes` routes to.
  static uint32_t ClassFor(uint64_t bytes);

  /// Byte accounting, maintained by the store: recovery seeds live bytes
  /// from the object table and dead = file size - live - headers.
  void NoteLive(uint64_t payload_bytes) { live_bytes_ += payload_bytes; }
  void NoteDead(uint64_t payload_bytes) {
    live_bytes_ -= payload_bytes;
    dead_bytes_ += payload_bytes;
  }
  void ResetGauges() { live_bytes_ = dead_bytes_ = 0; }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t dead_bytes() const { return dead_bytes_; }
  /// Total bytes across all class files (payloads + headers).
  StatusOr<uint64_t> FileBytes() const;

 private:
  std::array<FileHandle, kNumClasses> files_;
  ClassSet dirty_{};
  uint64_t live_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
};

}  // namespace socs::persist

#endif  // SOCS_PERSIST_SEGMENT_FILES_H_
