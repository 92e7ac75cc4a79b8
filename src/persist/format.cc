#include "persist/format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace socs::persist {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Advances a pre-inverted CRC register over `n` bytes, one table lookup per
/// byte.
uint32_t CrcTableUpdate(uint32_t c, const std::byte* p, size_t n) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ static_cast<uint8_t>(p[i])) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
__m128i Load128(const std::byte* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One folding step: `lane` times the constant pair `k`, plus `next`.
__attribute__((target("pclmul"))) inline __m128i Fold128(__m128i lane,
                                                          __m128i k,
                                                          __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds `n` bytes (a multiple of 16, at least 64) into the pre-inverted CRC
/// register `c` with carry-less multiplies: four 128-bit lanes are folded
/// 512 bits forward per step, then into one lane, then Barrett-reduced to 32
/// bits (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel 2009). Bit-reflected like the table loop;
/// each fold constant is (x^k mod P) reflected and shifted left by one.
__attribute__((target("pclmul"))) uint32_t CrcClmulFold(uint32_t c,
                                                         const std::byte* p,
                                                         size_t n) {
  // x^(512+32), x^(512-32) mod P: fold a lane 512 bits forward.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // x^(128+32), x^(128-32) mod P: fold a lane 128 bits forward.
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64 mod P: fold 96 bits to 64.
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett reduction: P itself and floor(x^64 / P), reflected, unshifted.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold128(x0, k1k2, Load128(p));
    x1 = Fold128(x1, k1k2, Load128(p + 16));
    x2 = Fold128(x2, k1k2, Load128(p + 32));
    x3 = Fold128(x3, k1k2, Load128(p + 48));
  }
  x0 = Fold128(x0, k3k4, x1);
  x0 = Fold128(x0, k3k4, x2);
  x0 = Fold128(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold128(x0, k3k4, Load128(p));

  // 128 -> 96 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, t);
  // 64 -> 32 bits.
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}
#endif

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Transfers all of `iov` at `offset` with `io` (::preadv or ::pwritev),
/// resuming after short transfers and EINTR.
template <typename Io>
Status TransferAll(Io io, int fd, std::array<iovec, 2> iov, off_t offset,
                   const char* what) {
  size_t first = 0;
  while (first < iov.size()) {
    if (iov[first].iov_len == 0) {
      ++first;
      continue;
    }
    const ssize_t n = io(fd, iov.data() + first,
                         static_cast<int>(iov.size() - first), offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    if (n == 0) {
      return Status::DataLoss(std::string(what) + ": file ends early");
    }
    offset += n;
    for (size_t left = static_cast<size_t>(n); left > 0;) {
      const size_t step = std::min(left, iov[first].iov_len);
      iov[first].iov_base = static_cast<std::byte*>(iov[first].iov_base) + step;
      iov[first].iov_len -= step;
      left -= step;
      if (iov[first].iov_len == 0) ++first;
    }
  }
  return Status::OK();
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint32_t Crc32(std::span<const std::byte> bytes) {
#if defined(__x86_64__)
  static const bool kClmul = CpuHasClmul();
  if (kClmul && bytes.size() >= 64) {
    const size_t folded = bytes.size() & ~size_t{15};
    const uint32_t c = CrcClmulFold(0xFFFFFFFFu, bytes.data(), folded);
    return CrcTableUpdate(c, bytes.data() + folded, bytes.size() - folded) ^
           0xFFFFFFFFu;
  }
#endif
  return Crc32Portable(bytes);
}

uint32_t Crc32Portable(std::span<const std::byte> bytes) {
  return CrcTableUpdate(0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteWriter::Double(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

void ByteWriter::Bytes(std::span<const std::byte> v) {
  out_.insert(out_.end(), v.begin(), v.end());
}

void ByteWriter::String(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}

StatusOr<uint8_t> ByteReader::U8() {
  if (remaining() < 1) return Status::DataLoss("truncated record (u8)");
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> ByteReader::U32() {
  if (remaining() < 4) return Status::DataLoss("truncated record (u32)");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::U64() {
  if (remaining() < 8) return Status::DataLoss("truncated record (u64)");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<double> ByteReader::Double() {
  auto bits = U64();
  if (!bits.ok()) return bits.status();
  double v;
  std::memcpy(&v, &*bits, sizeof v);
  return v;
}

StatusOr<std::vector<std::byte>> ByteReader::Bytes(size_t n) {
  if (remaining() < n) return Status::DataLoss("truncated record (bytes)");
  std::vector<std::byte> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

StatusOr<std::string> ByteReader::String() {
  auto len = U32();
  if (!len.ok()) return len.status();
  if (remaining() < *len) return Status::DataLoss("truncated record (string)");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return s;
}

FileHandle::~FileHandle() {
  if (fd_ >= 0) ::close(fd_);
}

FileHandle::FileHandle(FileHandle&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

FileHandle& FileHandle::operator=(FileHandle&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

StatusOr<FileHandle> FileHandle::OpenRW(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open " + path);
  FileHandle h;
  h.fd_ = fd;
  return h;
}

StatusOr<uint64_t> FileHandle::Append(std::span<const std::byte> head,
                                      std::span<const std::byte> tail) {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Errno("lseek");
  // pwritev never writes through iov_base; the casts only drop const.
  const std::array<iovec, 2> iov = {
      iovec{const_cast<std::byte*>(head.data()), head.size()},
      iovec{const_cast<std::byte*>(tail.data()), tail.size()}};
  Status st = TransferAll(::pwritev, fd_, iov, end, "pwritev");
  if (!st.ok()) return st;
  return static_cast<uint64_t>(end);
}

Status FileHandle::ReadAt(uint64_t offset, std::span<std::byte> head,
                          std::span<std::byte> tail) const {
  const std::array<iovec, 2> iov = {iovec{head.data(), head.size()},
                                    iovec{tail.data(), tail.size()}};
  return TransferAll(::preadv, fd_, iov, static_cast<off_t>(offset), "preadv");
}

Status FileHandle::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync");
  return Status::OK();
}

Status FileHandle::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate");
  }
  return Status::OK();
}

StatusOr<uint64_t> FileHandle::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Errno("fstat");
  return static_cast<uint64_t>(st.st_size);
}

StatusOr<std::vector<std::byte>> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file " + path);
    return Errno("open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Errno("fstat " + path);
    ::close(fd);
    return s;
  }
  std::vector<std::byte> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::pread(fd, bytes.data() + done, bytes.size() - done,
                static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = Errno("pread " + path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;  // shrank under us; return what we got
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

Status AtomicReplaceFile(const std::string& path,
                         std::span<const std::byte> bytes,
                         const FaultHook& hook, std::string_view tag) {
  const std::string tmp = path + ".tmp";
  {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return Errno("open " + tmp);
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = Errno("write " + tmp);
        ::close(fd);
        return s;
      }
      done += static_cast<size_t>(n);
    }
    if (hook) hook(std::string(tag) + ".mid");
    if (::fsync(fd) != 0) {
      const Status s = Errno("fsync " + tmp);
      ::close(fd);
      return s;
    }
    ::close(fd);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename " + tmp + " -> " + path);
  }
  if (hook) hook(std::string(tag) + ".post_rename_pre_dirsync");
  return FsyncDir(DirOf(path));
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir " + dir);
  if (::fsync(fd) != 0) {
    const Status s = Errno("fsync dir " + dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace socs::persist
