// On-disk primitives of the persist subsystem: CRC-32, bounds-checked
// little-endian readers/writers, positional file handles with gathered
// writes and scattered reads, and the write-new + fsync + rename idiom every
// atomic root flip uses.
//
// Durability discipline (the XTree/LMDB-style COW rulebook):
//   - data files (segment blobs, delta log) are append-only; records carry
//     their own magic + CRC, so a torn tail is detected and truncated, never
//     misread;
//   - roots (superblock, checkpoints) are replaced atomically: write the
//     full new file under a .tmp name, fsync it, rename() over the old name,
//     fsync the directory -- readers see the old or the new root, never a
//     mix.
//
// FaultHook: tests register a callback invoked at named fault points
// ("checkpoint.mid", "log.append.mid", "superblock.post_rename_pre_dirsync",
// ...); a crash-injection child process SIGKILLs itself inside the hook to
// prove recovery handles a crash at exactly that point.
#ifndef SOCS_PERSIST_FORMAT_H_
#define SOCS_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace socs::persist {

/// CRC-32 (ISO-HDLC polynomial, the zlib one) over a byte span. On x86-64
/// CPUs with PCLMULQDQ (checked once at run time) spans of 64 bytes or more
/// are folded with carry-less multiplies, at memory speed; everything else
/// takes Crc32Portable. Both give the same value for every input.
uint32_t Crc32(std::span<const std::byte> bytes);

/// The byte-at-a-time table loop: the path on every other CPU, and the
/// reference the tests hold Crc32 to.
uint32_t Crc32Portable(std::span<const std::byte> bytes);

/// Test seam: called at named fault points during checkpoint/log writes.
/// Production stores leave it empty.
using FaultHook = std::function<void(std::string_view point)>;

/// Little-endian append-only byte builder.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Double(double v);  // IEEE-754 bit pattern
  void Bytes(std::span<const std::byte> v);
  void String(const std::string& s);  // u32 length + bytes

  const std::vector<std::byte>& data() const { return out_; }
  std::vector<std::byte> Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::vector<std::byte> out_;
};

/// Bounds-checked little-endian reader; every accessor fails with DataLoss
/// on truncation instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  StatusOr<uint8_t> U8();
  StatusOr<uint32_t> U32();
  StatusOr<uint64_t> U64();
  StatusOr<double> Double();
  StatusOr<std::vector<std::byte>> Bytes(size_t n);
  StatusOr<std::string> String();  // u32 length + bytes

  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

/// Thin RAII wrapper over a POSIX fd with positional I/O. All methods return
/// Status; the handle never throws and never dies on I/O errors (the store
/// surfaces them through its health API instead).
class FileHandle {
 public:
  FileHandle() = default;
  ~FileHandle();
  FileHandle(FileHandle&& o) noexcept;
  FileHandle& operator=(FileHandle&& o) noexcept;
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  /// Opens (creating if missing) for read + append-position writes.
  static StatusOr<FileHandle> OpenRW(const std::string& path);

  bool valid() const { return fd_ >= 0; }

  /// Appends `head` then `tail` at the current end with one gathered write
  /// (no staging copy); returns the offset written at.
  StatusOr<uint64_t> Append(std::span<const std::byte> head,
                            std::span<const std::byte> tail = {});
  /// Reads exactly `head.size() + tail.size()` bytes at `offset`, scattered
  /// into `head` then `tail`.
  Status ReadAt(uint64_t offset, std::span<std::byte> head,
                std::span<std::byte> tail = {}) const;
  Status Sync();
  Status Truncate(uint64_t size);
  StatusOr<uint64_t> Size() const;

 private:
  int fd_ = -1;
};

/// Reads a whole file into memory (NotFound when absent).
StatusOr<std::vector<std::byte>> ReadFileBytes(const std::string& path);

/// Atomically replaces `path` with `bytes`: writes `path`.tmp, fsyncs it,
/// rename()s over `path`, fsyncs the directory. `hook` (optional) fires with
/// "<tag>.mid" between write and fsync and "<tag>.post_rename_pre_dirsync"
/// after the rename -- the crash-injection points.
Status AtomicReplaceFile(const std::string& path,
                         std::span<const std::byte> bytes,
                         const FaultHook& hook, std::string_view tag);

/// fsyncs the directory containing `path` (durability of renames/creates).
Status FsyncDir(const std::string& dir);

}  // namespace socs::persist

#endif  // SOCS_PERSIST_FORMAT_H_
