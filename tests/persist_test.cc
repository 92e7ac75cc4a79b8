// Unit tests for the durable segment store (src/persist): the byte codecs,
// CRC framing and pinned on-disk bytes, size-class blob files, the
// object-table delta log, checkpoint commit + recovery (including fallback
// to an older generation and torn-tail truncation), commits racing mirror
// writes, a failed data fsync parking the store, corruption detection, and
// SaveState / RestoreStrategy roundtrips for every strategy kind.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/adaptive_replication.h"
#include "core/adaptive_segmentation.h"
#include "core/apm.h"
#include "core/cracking.h"
#include "core/deferred_segmentation.h"
#include "core/non_segmented.h"
#include "core/positional_blocks.h"
#include "core/static_partition.h"
#include "core/strategy_restore.h"
#include "persist/format.h"
#include "persist/image.h"
#include "persist/object_table.h"
#include "persist/segment_files.h"
#include "persist/store.h"
#include "test_util.h"
#include "workload/range_generator.h"

namespace socs::persist {
namespace {

using socs::MakeUniformIntColumn;
using socs::UniformRangeGenerator;
using socs::testing::BruteForce;
using socs::testing::SortedValues;

std::string TempDirFor(const char* name) {
  const std::string dir = ::testing::TempDir() + "/socs_persist_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

StatusOr<std::unique_ptr<PersistentStore>> OpenStore(const std::string& dir) {
  PersistentStore::Options opts;
  opts.dir = dir;
  return PersistentStore::Open(std::move(opts));
}

std::vector<std::byte> Payload(size_t n, uint8_t seed) {
  std::vector<std::byte> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 31) & 0xFF);
  }
  return out;
}

/// Flips one byte of `path` at `offset` (negative = from the end).
void FlipByteAt(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  if (offset < 0) {
    f.seekg(0, std::ios::end);
    offset += static_cast<int64_t>(f.tellg());
  }
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(offset);
  f.write(&c, 1);
}

void AppendGarbage(const std::string& path, size_t n) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  for (size_t i = 0; i < n; ++i) f.put(static_cast<char>(0xEE));
}

/// Points size class `k`'s file under `dir` at /dev/null, where writes
/// succeed and fsync fails with EINVAL: a failing data fsync without
/// privileges or a full disk.
void LinkClassToDevNull(const std::string& dir, uint32_t k) {
  std::filesystem::create_symlink(
      "/dev/null", dir + "/segments_cls" + std::to_string(k) + ".dat");
}

DatabaseImage TinyImage() {
  DatabaseImage db;
  TableImage t;
  t.name = "T";
  t.rows = 3;
  ColumnImage c;
  c.name = "x";
  c.segmented = false;
  c.sql_type = 2;
  c.plain_type = 2;
  c.plain_payload = Payload(12, 9);
  t.columns.push_back(c);
  db.tables.push_back(t);
  return db;
}

// --- format ------------------------------------------------------------------

TEST(PersistFormatTest, Crc32MatchesKnownVector) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  std::vector<std::byte> bytes;
  for (const char* p = s; *p; ++p) bytes.push_back(static_cast<std::byte>(*p));
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(Crc32Portable(bytes), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(PersistFormatTest, Crc32AgreesWithPortableReference) {
  // Every length and start alignment the folding path's lane loop and table
  // tail can see, then a buffer long enough for the four-lane loop to run
  // for megabytes.
  Rng rng(17);
  std::vector<std::byte> buf(1100 + 16);
  for (auto& b : buf) b = static_cast<std::byte>(rng.Next());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(Crc32(s), Crc32Portable(s))
          << "offset " << offset << ", length " << len;
    }
  }
  std::vector<std::byte> big(5 * kMiB);
  for (auto& b : big) b = static_cast<std::byte>(rng.Next());
  EXPECT_EQ(Crc32(big), Crc32Portable(big));
}

std::string Hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out += kDigits[static_cast<uint8_t>(b) >> 4];
    out += kDigits[static_cast<uint8_t>(b) & 0xF];
  }
  return out;
}

TEST(PersistFormatTest, OnDiskBytesAreFormatVersionOne) {
  // Pinned to the bytes this format has always written, so a data directory
  // written by an earlier build still opens and restores.
  const std::string dir = TempDirFor("golden");
  {
    auto files = SegmentFileSet::Open(dir);
    ASSERT_TRUE(files.ok());
    uint32_t crc = 0;
    ASSERT_TRUE(files->Append(Payload(24, 1), &crc).ok());
    auto bytes = ReadFileBytes(dir + "/segments_cls0.dat");
    ASSERT_TRUE(bytes.ok());
    // magic, length, payload CRC, reserved; then the payload itself.
    EXPECT_EQ(Hex(*bytes),
              "0bb1655e" "18000000" "5475b129" "00000000"
              "01203f5e7d9cbbdaf91837567594b3d2f1102f4e6d8cabca");
  }
  {
    auto log = DeltaLog::Open(dir + "/delta.log");
    ASSERT_TRUE(log.ok());
    const ObjectEntry e{BlobAddress{1, 4112, 5000}, SegmentCodec::kRle, 9000,
                        0xC0FFEE11u};
    ASSERT_TRUE(log->AppendPut(0x0102030405060708ull, e, nullptr).ok());
    auto bytes = ReadFileBytes(dir + "/delta.log");
    ASSERT_TRUE(bytes.ok());
    // magic, PUT, id, class, offset, length, codec, logical, blob CRC,
    // record CRC.
    EXPECT_EQ(Hex(*bytes),
              "06a117de" "01" "0807060504030201" "01000000" "1010000000000000"
              "8813000000000000" "01" "2823000000000000" "11eeffc0"
              "2d78173e");
  }
  {
    const std::string store_dir = TempDirFor("golden_store");
    auto store = OpenStore(store_dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
    auto bytes = ReadFileBytes(store_dir + "/superblock");
    ASSERT_TRUE(bytes.ok());
    // magic, version 1, generation 1, CRC.
    EXPECT_EQ(Hex(*bytes),
              "105bc550" "01000000" "0100000000000000" "f93a1d42");
  }
}

TEST(PersistFormatTest, WriterReaderRoundtrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.Double(3.14159);
  w.String("hello");
  const std::vector<std::byte> bytes = w.Take();

  ByteReader r(bytes);
  auto u8 = r.U8();
  auto u32 = r.U32();
  auto u64 = r.U64();
  auto d = r.Double();
  ASSERT_TRUE(u8.ok() && u32.ok() && u64.ok() && d.ok());
  EXPECT_EQ(*u8, 0xAB);
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(*d, 3.14159);
  auto s = r.String();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "hello");
  EXPECT_TRUE(r.Done());
  // Reading past the end is DataLoss, not UB.
  auto past = r.U8();
  EXPECT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kDataLoss);
}

TEST(PersistFormatTest, TruncatedStringIsDataLoss) {
  ByteWriter w;
  w.String("truncate me");
  std::vector<std::byte> bytes = w.Take();
  bytes.resize(bytes.size() - 3);
  ByteReader r(bytes);
  auto s = r.String();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
}

// --- segment files -----------------------------------------------------------

TEST(SegmentFilesTest, BlobRoundtripAcrossClasses) {
  const std::string dir = TempDirFor("blobs");
  auto files = SegmentFileSet::Open(dir);
  ASSERT_TRUE(files.ok()) << files.status().ToString();

  const auto small = Payload(100, 1);
  const auto large = Payload(2 * kMiB, 2);
  uint32_t c1 = 0, c2 = 0;
  auto a1 = files->Append(small, &c1);
  auto a2 = files->Append(large, &c2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  // Size classes keep small churn and bulk blobs in different files.
  EXPECT_NE(a1->file_class, a2->file_class);
  EXPECT_EQ(a1->length, small.size());
  // The CRC handed back is the payload's, and Read hands back the same one.
  EXPECT_EQ(c1, Crc32Portable(small));
  EXPECT_EQ(c2, Crc32Portable(large));

  uint32_t rc1 = 0, rc2 = 0;
  auto r1 = files->Read(*a1, &rc1);
  auto r2 = files->Read(*a2, &rc2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, small);
  EXPECT_EQ(*r2, large);
  EXPECT_EQ(rc1, c1);
  EXPECT_EQ(rc2, c2);
}

TEST(SegmentFilesTest, CorruptedPayloadFailsCrc) {
  const std::string dir = TempDirFor("blob_corrupt");
  auto files = SegmentFileSet::Open(dir);
  ASSERT_TRUE(files.ok());
  uint32_t crc = 0;
  auto addr = files->Append(Payload(512, 3), &crc);
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(files->Sync(files->TakeDirty()).ok());
  FlipByteAt(dir + "/segments_cls0.dat", -1);  // last payload byte
  auto read = files->Read(*addr, &crc);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentFilesTest, OversizedPayloadRejectedAtAppend) {
  const std::string dir = TempDirFor("blob_oversize");
  auto files = SegmentFileSet::Open(dir);
  ASSERT_TRUE(files.ok());
  // The record header stores lengths as u32; anything larger must be
  // rejected up front instead of being written with a truncated header.
  // The size check runs before any payload byte is touched, so a span with
  // an inflated extent exercises it without a 4 GiB allocation.
  std::byte dummy{};
  std::span<const std::byte> huge(&dummy, size_t{1} << 32);
  uint32_t crc = 0;
  auto addr = files->Append(huge, &crc);
  EXPECT_FALSE(addr.ok());
  EXPECT_EQ(addr.status().code(), StatusCode::kInvalidArgument);
}

// --- object table + delta log ------------------------------------------------

TEST(ObjectTableTest, SerializeParseRoundtrip) {
  ObjectTable table;
  table[3] = ObjectEntry{BlobAddress{0, 16, 100}, SegmentCodec::kRaw, 100, 7};
  table[9] = ObjectEntry{BlobAddress{2, 0, 4096}, SegmentCodec::kRle, 9000, 8};
  const auto bytes = SerializeObjectTable(table);
  auto parsed = ParseObjectTable(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, table);

  // Trailing garbage is DataLoss, not silently ignored.
  auto longer = bytes;
  longer.push_back(std::byte{1});
  EXPECT_EQ(ParseObjectTable(longer).status().code(), StatusCode::kDataLoss);
}

TEST(DeltaLogTest, ReplayRoundtripAndTornTail) {
  const std::string dir = TempDirFor("delta");
  const std::string path = dir + "/delta.log";
  const ObjectEntry e1{BlobAddress{0, 16, 64}, SegmentCodec::kRaw, 64, 11};
  const ObjectEntry e2{BlobAddress{1, 0, 8192}, SegmentCodec::kDeltaFor, 12000,
                       22};
  {
    auto log = DeltaLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->AppendPut(5, e1, nullptr).ok());
    ASSERT_TRUE(log->AppendPut(6, e2, nullptr).ok());
    ASSERT_TRUE(log->AppendDel(5, nullptr).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  uint64_t clean_bytes = 0;
  {
    auto log = DeltaLog::Open(path);
    ASSERT_TRUE(log.ok());
    auto replay = log->Replay();
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->clean_tail);
    ASSERT_EQ(replay->records.size(), 3u);
    EXPECT_EQ(replay->records[0].op, DeltaLog::kOpPut);
    EXPECT_EQ(replay->records[0].id, 5u);
    EXPECT_EQ(replay->records[0].entry, e1);
    EXPECT_EQ(replay->records[1].entry, e2);
    EXPECT_EQ(replay->records[2].op, DeltaLog::kOpDel);
    EXPECT_EQ(replay->records[2].id, 5u);
    clean_bytes = replay->valid_bytes;
  }
  // A torn record at the tail (half-written before a crash) is detected,
  // the valid prefix replays, and TruncateTo removes the garbage.
  AppendGarbage(path, 13);
  {
    auto log = DeltaLog::Open(path);
    ASSERT_TRUE(log.ok());
    auto replay = log->Replay();
    ASSERT_TRUE(replay.ok());
    EXPECT_FALSE(replay->clean_tail);
    EXPECT_EQ(replay->records.size(), 3u);
    EXPECT_EQ(replay->valid_bytes, clean_bytes);
    ASSERT_TRUE(log->TruncateTo(replay->valid_bytes).ok());
    auto again = log->Replay();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->clean_tail);
    EXPECT_EQ(again->records.size(), 3u);
  }
}

// --- store: init, replay, checkpoint, fallbacks ------------------------------

TEST(PersistentStoreTest, FreshDirInitializesGenerationZero) {
  const std::string dir = TempDirFor("fresh");
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().generation, 0u);
  EXPECT_TRUE((*store)->image().tables.empty());
  EXPECT_TRUE((*store)->LiveSegments().empty());
  EXPECT_TRUE((*store)->health().ok());
}

TEST(PersistentStoreTest, DeltaLogReplaysWithoutCheckpoint) {
  const std::string dir = TempDirFor("replay");
  const auto p1 = Payload(777, 4);
  const auto p2 = Payload(3000, 5);
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(1, p1, SegmentCodec::kRaw, 777);
    (*store)->PersistSegment(2, p2, SegmentCodec::kRle, 6000);
    (*store)->ForgetSegment(1);
    ASSERT_TRUE((*store)->health().ok()) << (*store)->health().ToString();
  }
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().delta_records, 3u);
  EXPECT_EQ((*store)->LiveSegments(), std::vector<SegmentId>{2});
  auto blob = (*store)->ReadSegment(2);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->physical, p2);
  EXPECT_EQ(blob->codec, SegmentCodec::kRle);
  EXPECT_EQ(blob->logical_bytes, 6000u);
}

TEST(PersistentStoreTest, CheckpointCommitsAndReopens) {
  const std::string dir = TempDirFor("ckpt");
  const auto p1 = Payload(500, 6);
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(7, p1, SegmentCodec::kRaw, 500);
    auto gen = (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture());
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(*gen, 1u);
    EXPECT_EQ((*store)->stats().delta_records_since_checkpoint, 0u);
  }
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().generation, 1u);
  EXPECT_EQ((*store)->recovery().delta_records, 0u);
  EXPECT_FALSE((*store)->recovery().fell_back);
  ASSERT_EQ((*store)->image().tables.size(), 1u);
  EXPECT_EQ((*store)->image().tables[0].name, "T");
  EXPECT_EQ((*store)->image().tables[0].rows, 3u);
  ASSERT_EQ((*store)->image().tables[0].columns.size(), 1u);
  EXPECT_EQ((*store)->image().tables[0].columns[0].plain_payload,
            Payload(12, 9));
  auto blob = (*store)->ReadSegment(7);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->physical, p1);
}

TEST(PersistentStoreTest, SegmentFreedDuringCaptureStaysReadable) {
  // The capture/serialize race: a segment the image references is freed
  // between BeginCapture and WriteCheckpoint (a reorganization ran during
  // capture). The committed checkpoint must keep its blob readable, and
  // Rebase must be able to resurrect it.
  const std::string dir = TempDirFor("capture_race");
  const auto p = Payload(900, 7);
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(11, p, SegmentCodec::kRaw, 900);
    const uint64_t seq = (*store)->BeginCapture();
    (*store)->ForgetSegment(11);  // freed mid-capture
    auto gen = (*store)->WriteCheckpoint(TinyImage(), seq);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
  {
    // The committed checkpoint retains the entry (the image being captured
    // may reference it): readable after reopen, and Rebase keeps it when the
    // restored image does reference it.
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->HasSegment(11));
    auto blob = (*store)->ReadSegment(11);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    EXPECT_EQ(blob->physical, p);
    ASSERT_TRUE((*store)->Rebase({11}).ok());
    EXPECT_EQ((*store)->LiveSegments(), std::vector<SegmentId>{11});
  }
  {
    // ...and drops it (bytes become dead extents) when the image does not.
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Rebase({}).ok());
    EXPECT_TRUE((*store)->LiveSegments().empty());
    EXPECT_FALSE((*store)->HasSegment(11));
  }
}

TEST(PersistentStoreTest, CorruptBlobIsDataLossNotWrongBytes) {
  const std::string dir = TempDirFor("bad_blob");
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  (*store)->PersistSegment(4, Payload(256, 8), SegmentCodec::kRaw, 256);
  FlipByteAt(dir + "/segments_cls0.dat", -1);
  auto blob = (*store)->ReadSegment(4);
  EXPECT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kDataLoss);
}

TEST(PersistentStoreTest, TruncatedDeltaTailRecoversCleanly) {
  const std::string dir = TempDirFor("torn_delta");
  const auto p = Payload(128, 10);
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(3, p, SegmentCodec::kRaw, 128);
  }
  AppendGarbage(dir + "/delta_0.log", 9);  // torn record at the tail
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().delta_tail_truncated);
  EXPECT_EQ((*store)->recovery().delta_records, 1u);
  auto blob = (*store)->ReadSegment(3);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->physical, p);
  // The tail was truncated away: appends after recovery start at a clean
  // boundary and a further reopen replays every record.
  (*store)->PersistSegment(8, Payload(64, 11), SegmentCodec::kRaw, 64);
  ASSERT_TRUE((*store)->health().ok());
  store->reset();
  auto again = OpenStore(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->recovery().delta_tail_truncated);
  EXPECT_EQ((*again)->recovery().delta_records, 2u);
}

TEST(PersistentStoreTest, CorruptSuperblockFallsBackToNewestCheckpoint) {
  const std::string dir = TempDirFor("bad_super");
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(1, Payload(100, 12), SegmentCodec::kRaw, 100);
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
  }
  FlipByteAt(dir + "/superblock", 8);
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().fell_back);
  EXPECT_EQ((*store)->recovery().generation, 1u);
  EXPECT_TRUE((*store)->ReadSegment(1).ok());
}

TEST(PersistentStoreTest, CorruptCheckpointFallsBackToPreviousGeneration) {
  const std::string dir = TempDirFor("bad_ckpt");
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    (*store)->PersistSegment(1, Payload(100, 13), SegmentCodec::kRaw, 100);
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
  }
  FlipByteAt(dir + "/checkpoint_2.ckpt", 64);
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().fell_back);
  EXPECT_EQ((*store)->recovery().generation, 1u);
  EXPECT_TRUE((*store)->ReadSegment(1).ok());
}

/// Opens `dir`, persists segment 1 with `payload`, and commits checkpoints
/// until the store sits at generation 6 -- past any fixed low-generation
/// window, with retention having deleted generations 0..4.
void AdvanceToGenerationSix(const std::string& dir,
                            const std::vector<std::byte>& payload) {
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  (*store)->PersistSegment(1, payload, SegmentCodec::kRaw, payload.size());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
  }
  ASSERT_EQ((*store)->stats().generation, 6u);
  ASSERT_FALSE(std::filesystem::exists(dir + "/checkpoint_4.ckpt"));
}

TEST(PersistentStoreTest, HighGenerationSuperblockLossFindsNewestCheckpoint) {
  // Retention keeps only {G-1, G}, so at generation 6 nothing exists below
  // generation 5. A corrupt superblock must still lead the directory scan to
  // the surviving checkpoints -- never to "fresh directory" re-initialization
  // over a populated store.
  const std::string dir = TempDirFor("high_gen_super");
  const auto p = Payload(200, 14);
  AdvanceToGenerationSix(dir, p);
  FlipByteAt(dir + "/superblock", 8);
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().fell_back);
  EXPECT_EQ((*store)->recovery().generation, 6u);
  auto blob = (*store)->ReadSegment(1);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->physical, p);
}

TEST(PersistentStoreTest, HighGenerationTornCheckpointFallsBackOne) {
  // Readable superblock pointing at a torn checkpoint G: recovery must fall
  // back to G-1 whatever G is, not report DataLoss because no checkpoint
  // lives at a small fixed generation.
  const std::string dir = TempDirFor("high_gen_ckpt");
  const auto p = Payload(200, 15);
  AdvanceToGenerationSix(dir, p);
  FlipByteAt(dir + "/checkpoint_6.ckpt", 64);
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovery().fell_back);
  EXPECT_EQ((*store)->recovery().generation, 5u);
  auto blob = (*store)->ReadSegment(1);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->physical, p);
}

TEST(PersistentStoreTest, AllRootsCorruptRefusesSilently) {
  // Every checkpoint unreadable: Open must refuse with DataLoss rather than
  // silently reinitializing an empty store over existing data.
  const std::string dir = TempDirFor("all_bad");
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
  }
  FlipByteAt(dir + "/superblock", 8);
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("checkpoint_", 0) == 0) FlipByteAt(e.path().string(), 40);
  }
  auto store = OpenStore(dir);
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
}

TEST(PersistentStoreTest, FailedDataFsyncParksTheStore) {
  const std::string dir = TempDirFor("fsync_fails");
  for (uint32_t k = 0; k < SegmentFileSet::kNumClasses; ++k) {
    LinkClassToDevNull(dir, k);
  }
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    (*store)->PersistSegment(1, Payload(100, 16), SegmentCodec::kRaw, 100);
    ASSERT_TRUE((*store)->health().ok());
    auto gen = (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture());
    ASSERT_FALSE(gen.ok());
    // Parked: the failure is the store's health, nothing was committed, and
    // a retry is refused instead of trusting a second fsync.
    EXPECT_EQ((*store)->health().ToString(), gen.status().ToString());
    EXPECT_EQ((*store)->stats().generation, 0u);
    auto retry =
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture());
    EXPECT_FALSE(retry.ok());
    EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint_1.ckpt"));
  }
  // The superblock on disk still names generation 0.
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().generation, 0u);
}

TEST(PersistentStoreTest, ClassDirtiedDuringCommitIsSyncedByNextCheckpoint) {
  // Class 1 (4-8 KiB payloads) is /dev/null, so whether a checkpoint fails
  // tells whether it synced that class.
  const std::string dir = TempDirFor("dirty_mid_commit");
  LinkClassToDevNull(dir, 1);
  ASSERT_EQ(SegmentFileSet::ClassFor(6000), 1u);
  PersistentStore* store_ptr = nullptr;
  bool mirrored = false;
  PersistentStore::Options opts;
  opts.dir = dir;
  opts.fault_hook = [&](std::string_view point) {
    if (store_ptr == nullptr || mirrored || point != "checkpoint.mid") return;
    // A mirror write after the snapshot, while the commit's I/O runs.
    mirrored = true;
    store_ptr->PersistSegment(2, Payload(6000, 18), SegmentCodec::kRaw, 6000);
  };
  auto store = PersistentStore::Open(std::move(opts));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  store_ptr = store->get();
  (*store)->PersistSegment(1, Payload(100, 17), SegmentCodec::kRaw, 100);
  auto first = (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(mirrored);
  EXPECT_TRUE((*store)->HasSegment(2));
  auto second =
      (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture());
  EXPECT_FALSE(second.ok());
  EXPECT_FALSE((*store)->health().ok());
  EXPECT_EQ((*store)->stats().generation, 1u);
}

TEST(PersistentStoreTest, MirrorStreamRacesCheckpoints) {
  // Mirror writes keep arriving while checkpoints commit; every checkpoint
  // must still name only durable, readable blobs.
  const std::string dir = TempDirFor("commit_race");
  constexpr SegmentId kSegments = 600;
  const auto blob = [](SegmentId id) {
    return Payload(64 + (id * 977) % 12000, static_cast<uint8_t>(id));
  };
  std::set<SegmentId> live;
  for (SegmentId id = 1; id <= kSegments; ++id) {
    live.insert(id);
    if (id % 3 == 0) live.erase(id - 1);
  }
  uint64_t generation = 0;
  {
    auto store = OpenStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    PersistentStore* s = store->get();
    std::atomic<bool> done{false};
    std::thread mirror([&] {
      for (SegmentId id = 1; id <= kSegments; ++id) {
        const auto p = blob(id);
        s->PersistSegment(id, p, SegmentCodec::kRaw, p.size());
        if (id % 3 == 0) s->ForgetSegment(id - 1);
      }
      done = true;
    });
    int rounds = 0;
    while (!done || rounds < 3) {
      auto gen = s->WriteCheckpoint(TinyImage(), s->BeginCapture());
      EXPECT_TRUE(gen.ok()) << gen.status().ToString();
      ++rounds;
    }
    mirror.join();
    auto gen = s->WriteCheckpoint(TinyImage(), s->BeginCapture());
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    generation = *gen;
    EXPECT_TRUE(s->health().ok());
    const std::vector<SegmentId> ids = s->LiveSegments();
    EXPECT_EQ(std::set<SegmentId>(ids.begin(), ids.end()), live);
  }
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery().generation, generation);
  EXPECT_FALSE((*store)->recovery().fell_back);
  for (SegmentId id : (*store)->AllSegments()) {
    auto got = (*store)->ReadSegment(id);
    ASSERT_TRUE(got.ok()) << "segment " << id << ": "
                          << got.status().ToString();
    EXPECT_EQ(got->physical, blob(id)) << "segment " << id;
  }
  // Every live segment is in the recovered table.
  ASSERT_TRUE(
      (*store)->Rebase(std::vector<SegmentId>(live.begin(), live.end())).ok());
  EXPECT_EQ((*store)->LiveSegments().size(), live.size());
}

TEST(PersistentStoreTest, RetentionKeepsTwoGenerations) {
  const std::string dir = TempDirFor("retention");
  auto store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*store)->WriteCheckpoint(TinyImage(), (*store)->BeginCapture()).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/checkpoint_2.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint_3.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/checkpoint_4.ckpt"));
}

// --- SaveState / RestoreStrategy roundtrips for every strategy kind ----------

/// Drives `strat` through a workload, snapshots it, restores the snapshot
/// over the same space (its segments are still live there), and checks that
/// the restored strategy has identical geometry and answers queries exactly.
void VerifyStateRoundtrip(AccessStrategy<int32_t>& strat,
                          const std::vector<int32_t>& data,
                          const ValueRange& domain, SegmentSpace* space,
                          int seed, int warmup_queries = 40) {
  UniformRangeGenerator gen(domain, 0.05, seed);
  for (int i = 0; i < warmup_queries; ++i) strat.RunRange(gen.Next().range);

  StrategyState saved;
  ASSERT_TRUE(strat.SaveState(&saved).ok());
  auto state = StrategyState::Parse(saved.Serialize());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  auto restored = RestoreStrategy<int32_t>(*state, space);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Identical learned geometry...
  const auto before = strat.Segments();
  const auto after = (*restored)->Segments();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].range, before[i].range);
    EXPECT_EQ(after[i].count, before[i].count);
  }
  // ...and exact answers (queries may adapt the restored copy further; the
  // original is not used past this point).
  Rng rng(seed + 1);
  for (int i = 0; i < 25; ++i) {
    const double lo =
        rng.NextUniform(domain.lo, domain.lo + domain.Span() * 0.9);
    const ValueRange q(lo, lo + rng.NextUniform(10, domain.Span() * 0.05));
    std::vector<int32_t> got;
    (*restored)->RunRange(q, &got);
    ASSERT_EQ(SortedValues(got), BruteForce(data, q)) << "query " << i;
  }
}

std::unique_ptr<SegmentationModel> TestModel() {
  return std::make_unique<Apm>(3 * kKiB, 12 * kKiB);
}

TEST(StrategyRestoreTest, NonSegmented) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 21);
  NonSegmented<int32_t> strat(data, ValueRange(0, 100000), &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 21);
}

TEST(StrategyRestoreTest, StaticPartition) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 22);
  StaticPartition<int32_t> strat(data, ValueRange(0, 100000), 10, &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 22);
}

TEST(StrategyRestoreTest, PositionalBlocks) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 23);
  PositionalBlocks<int32_t> strat(data, ValueRange(0, 100000), 8 * kKiB,
                                  &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 23);
}

TEST(StrategyRestoreTest, CrackingColumn) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 24);
  CrackingColumn<int32_t> strat(data, ValueRange(0, 100000), &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 24);
}

TEST(StrategyRestoreTest, AdaptiveSegmentation) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 25);
  AdaptiveSegmentation<int32_t> strat(data, ValueRange(0, 100000), TestModel(),
                                      &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 25);
}

TEST(StrategyRestoreTest, DeferredSegmentation) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 26);
  DeferredSegmentation<int32_t>::Options opts;
  opts.batch_queries = 5;
  DeferredSegmentation<int32_t> strat(data, ValueRange(0, 100000), TestModel(),
                                      &space, opts);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 26);
}

TEST(StrategyRestoreTest, AdaptiveReplication) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(20000, 100000, 27);
  AdaptiveReplication<int32_t> strat(data, ValueRange(0, 100000), TestModel(),
                                     &space);
  VerifyStateRoundtrip(strat, data, ValueRange(0, 100000), &space, 27);
}

TEST(StrategyRestoreTest, UnknownKindRejected) {
  StrategyState st;
  st.PutString("kind", "time_travel");
  st.PutU64("value_size", 4);
  st.PutDouble("domain.lo", 0);
  st.PutDouble("domain.hi", 1);
  SegmentSpace space;
  auto restored = RestoreStrategy<int32_t>(st, &space);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(StrategyRestoreTest, MissingSegmentIsDataLoss) {
  SegmentSpace space;
  auto data = MakeUniformIntColumn(5000, 50000, 28);
  AdaptiveSegmentation<int32_t> strat(data, ValueRange(0, 50000), TestModel(),
                                      &space);
  StrategyState st;
  ASSERT_TRUE(strat.SaveState(&st).ok());
  SegmentSpace empty;  // the referenced segments are not here
  auto restored = RestoreStrategy<int32_t>(st, &empty);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace socs::persist
