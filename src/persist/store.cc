#include "persist/store.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace socs::persist {

StatusOr<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    Options opts) {
  auto store = std::unique_ptr<PersistentStore>(
      new PersistentStore(std::move(opts)));
  auto files = SegmentFileSet::Open(store->opts_.dir);
  if (!files.ok()) return files.status();
  store->files_.emplace(std::move(*files));

  RecoveryInfo info;
  auto super_bytes = ReadFileBytes(store->SuperblockPath());
  std::optional<uint64_t> super_gen;
  if (super_bytes.ok()) {
    auto gen = ParseSuperblock(*super_bytes);
    if (gen.ok()) {
      super_gen = *gen;
    } else {
      info.fell_back = true;
      info.notes.push_back("superblock unreadable: " +
                           gen.status().ToString());
    }
  } else if (super_bytes.status().code() != StatusCode::kNotFound) {
    return super_bytes.status();
  }

  bool loaded = false;
  if (super_gen) {
    Status st = store->LoadGeneration(*super_gen, &info);
    if (st.ok()) {
      loaded = true;
    } else {
      info.fell_back = true;
      info.notes.push_back("generation " + std::to_string(*super_gen) +
                           " unreadable: " + st.ToString());
    }
  }
  if (!loaded) {
    // No (or bad) superblock pointer: walk checkpoints on disk, newest
    // first. This covers both "superblock corrupt" and "checkpoint G torn,
    // fall back to G-1".
    std::vector<uint64_t> gens = store->CheckpointGenerationsOnDisk();
    std::sort(gens.rbegin(), gens.rend());
    for (uint64_t gen : gens) {
      if (super_gen && gen == *super_gen) continue;  // already failed
      Status st = store->LoadGeneration(gen, &info);
      if (st.ok()) {
        loaded = true;
        if (super_gen) info.fell_back = true;
        break;
      }
      info.fell_back = true;
      info.notes.push_back("generation " + std::to_string(gen) +
                           " unreadable: " + st.ToString());
    }
  }
  if (!loaded) {
    if (super_gen || !store->CheckpointGenerationsOnDisk().empty()) {
      // Files exist but none is readable: refuse to silently re-initialize
      // over a damaged store.
      return Status::DataLoss(
          "no readable checkpoint in " + store->opts_.dir + " (" +
          std::to_string(info.notes.size()) + " candidates failed)");
    }
    // Fresh directory: initialize generation 0 (empty table, empty image).
    store->generation_ = 0;
    std::vector<std::byte> ckpt =
        BuildCheckpoint(0, ObjectTable{}, DatabaseImage{});
    Status st = AtomicReplaceFile(store->CheckpointPath(0), ckpt,
                                  store->opts_.fault_hook, "checkpoint");
    if (!st.ok()) return st;
    st = AtomicReplaceFile(store->SuperblockPath(), BuildSuperblock(0),
                           store->opts_.fault_hook, "superblock");
    if (!st.ok()) return st;
    auto log = DeltaLog::Open(store->DeltaPath(0));
    if (!log.ok()) return log.status();
    store->delta_.emplace(std::move(*log));
    info.notes.push_back("initialized fresh store");
  }

  // Seed the byte gauges from the recovered table: table entries are live,
  // retained dead entries count as dead, the remainder of the files is
  // unaccounted dead extents or header overhead.
  store->files_->ResetGauges();
  for (const auto& [id, e] : store->table_) {
    (void)id;
    store->files_->NoteLive(e.addr.length);
  }
  for (const auto& [id, d] : store->dead_) {
    (void)id;
    store->files_->NoteLive(d.entry.addr.length);
    store->files_->NoteDead(d.entry.addr.length);
  }
  info.generation = store->generation_;
  store->recovery_ = info;
  return store;
}

StatusOr<uint64_t> PersistentStore::ParseSuperblock(
    std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  auto magic = r.U32();
  auto version = r.U32();
  auto gen = r.U64();
  auto crc = r.U32();
  if (!magic.ok() || !version.ok() || !gen.ok() || !crc.ok() || !r.Done()) {
    return Status::DataLoss("superblock: truncated");
  }
  if (*magic != kSuperMagic) return Status::DataLoss("superblock: bad magic");
  if (*version != kVersion) {
    return Status::DataLoss("superblock: unsupported version " +
                            std::to_string(*version));
  }
  if (Crc32(bytes.subspan(0, 16)) != *crc) {
    return Status::DataLoss("superblock: checksum mismatch");
  }
  return *gen;
}

std::vector<std::byte> PersistentStore::BuildSuperblock(uint64_t gen) {
  ByteWriter w;
  w.U32(kSuperMagic);
  w.U32(kVersion);
  w.U64(gen);
  w.U32(Crc32(w.data()));
  return w.Take();
}

ObjectTable PersistentStore::CheckpointTable(uint64_t capture_seq) const {
  ObjectTable merged = table_;
  for (const auto& [id, d] : dead_) {
    // Freed during/after the image capture: the image may reference it.
    if (d.seq >= capture_seq) merged.emplace(id, d.entry);
  }
  return merged;
}

std::vector<std::byte> PersistentStore::BuildCheckpoint(
    uint64_t gen, const ObjectTable& table, const DatabaseImage& db) {
  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U32(kVersion);
  w.U64(gen);
  const std::vector<std::byte> table_bytes = SerializeObjectTable(table);
  w.U64(table_bytes.size());
  w.Bytes(table_bytes);
  SerializeDatabaseImage(db, &w);
  w.U32(Crc32(w.data()));
  return w.Take();
}

Status PersistentStore::ParseCheckpoint(std::span<const std::byte> bytes,
                                        uint64_t expect_gen,
                                        ObjectTable* table,
                                        DatabaseImage* image) {
  if (bytes.size() < 4) return Status::DataLoss("checkpoint: truncated");
  ByteReader tail(bytes.subspan(bytes.size() - 4));
  auto crc = tail.U32();
  if (!crc.ok()) return crc.status();
  std::span<const std::byte> body = bytes.subspan(0, bytes.size() - 4);
  if (Crc32(body) != *crc) {
    return Status::DataLoss("checkpoint: checksum mismatch");
  }
  ByteReader r(body);
  auto magic = r.U32();
  auto version = r.U32();
  auto gen = r.U64();
  if (!magic.ok()) return magic.status();
  if (!version.ok()) return version.status();
  if (!gen.ok()) return gen.status();
  if (*magic != kCheckpointMagic) {
    return Status::DataLoss("checkpoint: bad magic");
  }
  if (*version != kVersion) {
    return Status::DataLoss("checkpoint: unsupported version");
  }
  if (*gen != expect_gen) {
    return Status::DataLoss("checkpoint: generation mismatch (file says " +
                            std::to_string(*gen) + ")");
  }
  auto table_len = r.U64();
  if (!table_len.ok()) return table_len.status();
  auto table_bytes = r.Bytes(*table_len);
  if (!table_bytes.ok()) return table_bytes.status();
  auto parsed = ParseObjectTable(*table_bytes);
  if (!parsed.ok()) return parsed.status();
  auto img = ParseDatabaseImage(&r);
  if (!img.ok()) return img.status();
  if (!r.Done()) return Status::DataLoss("checkpoint: trailing bytes");
  *table = std::move(*parsed);
  *image = std::move(*img);
  return Status::OK();
}

Status PersistentStore::LoadGeneration(uint64_t gen, RecoveryInfo* info) {
  auto bytes = ReadFileBytes(CheckpointPath(gen));
  if (!bytes.ok()) return bytes.status();
  ObjectTable table;
  DatabaseImage image;
  Status st = ParseCheckpoint(*bytes, gen, &table, &image);
  if (!st.ok()) return st;

  auto log = DeltaLog::Open(DeltaPath(gen));
  if (!log.ok()) return log.status();
  auto replay = log->Replay();
  if (!replay.ok()) return replay.status();
  std::map<SegmentId, DeadEntry> dead;
  for (const DeltaLog::Record& rec : replay->records) {
    if (rec.op == DeltaLog::kOpPut) {
      table[rec.id] = rec.entry;
      dead.erase(rec.id);
    } else {
      // The log is newer than the image: the image's strategies may still
      // reference this segment, so keep its entry readable for Rebase.
      auto it = table.find(rec.id);
      if (it != table.end()) {
        dead[rec.id] = DeadEntry{it->second, 0};
        table.erase(it);
      }
    }
  }
  if (!replay->clean_tail) {
    st = log->TruncateTo(replay->valid_bytes);
    if (!st.ok()) return st;
    info->delta_tail_truncated = true;
    info->notes.push_back("delta_" + std::to_string(gen) +
                          ".log: torn tail truncated at byte " +
                          std::to_string(replay->valid_bytes));
  }
  info->delta_records += replay->records.size();

  table_ = std::move(table);
  dead_ = std::move(dead);
  image_ = std::move(image);
  delta_.emplace(std::move(*log));
  generation_ = gen;
  delta_records_ = replay->records.size();
  return Status::OK();
}

std::vector<uint64_t> PersistentStore::CheckpointGenerationsOnDisk() const {
  // Enumerate checkpoint_<G>.ckpt files by reading the directory. Retention
  // keeps only the newest two generations, so nothing can be assumed about
  // which generation numbers exist -- probing fixed gens would miss every
  // checkpoint once G grows past the probe window and misclassify a
  // populated store as fresh.
  std::vector<uint64_t> gens;
  DIR* d = ::opendir(opts_.dir.c_str());
  if (d == nullptr) return gens;
  constexpr std::string_view kPrefix = "checkpoint_";
  constexpr std::string_view kSuffix = ".ckpt";
  while (const dirent* e = ::readdir(d)) {
    const std::string_view name = e->d_name;
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    if (name.substr(name.size() - kSuffix.size()) != kSuffix) continue;
    const std::string digits(name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    errno = 0;
    char* end = nullptr;
    const unsigned long long gen = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end != digits.c_str() + digits.size()) continue;
    gens.push_back(gen);
  }
  ::closedir(d);
  return gens;
}

void PersistentStore::Park(Status st) {
  if (first_error_.ok() && !st.ok()) first_error_ = std::move(st);
}

void PersistentStore::PersistSegment(SegmentId id,
                                     std::span<const std::byte> physical,
                                     SegmentCodec codec,
                                     uint64_t logical_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!first_error_.ok()) return;  // store already failed; stay quiet
  ++op_seq_;
  ObjectEntry entry;
  auto addr = files_->Append(physical, &entry.crc);
  if (!addr.ok()) {
    Park(addr.status());
    return;
  }
  entry.addr = *addr;
  entry.codec = codec;
  entry.logical_bytes = logical_bytes;
  auto old = table_.find(id);
  if (old != table_.end()) files_->NoteDead(old->second.addr.length);
  files_->NoteLive(entry.addr.length);
  table_[id] = entry;
  dead_.erase(id);
  Park(delta_->AppendPut(id, entry, opts_.fault_hook));
  ++delta_records_;
}

void PersistentStore::ForgetSegment(SegmentId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!first_error_.ok()) return;
  ++op_seq_;
  auto it = table_.find(id);
  if (it == table_.end()) return;
  files_->NoteDead(it->second.addr.length);
  dead_[id] = DeadEntry{it->second, op_seq_};
  table_.erase(it);
  Park(delta_->AppendDel(id, opts_.fault_hook));
  ++delta_records_;
}

uint64_t PersistentStore::BeginCapture() const {
  std::lock_guard<std::mutex> lk(mu_);
  return op_seq_;
}

StatusOr<uint64_t> PersistentStore::WriteCheckpoint(const DatabaseImage& db,
                                                    uint64_t capture_seq) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  // The snapshot: the root's object table and the classes holding blobs it
  // may reference that no earlier checkpoint synced. Appends from here on go
  // to the current generation's log and re-dirty their class for the next
  // checkpoint; none of them can be referenced by `db`, which was captured
  // before this call.
  uint64_t next = 0;
  ObjectTable table;
  SegmentFileSet::ClassSet dirty{};
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_.ok()) return first_error_;
    next = generation_ + 1;
    table = CheckpointTable(capture_seq);
    dirty = files_->TakeDirty();
  }

  // 1. Data first: every blob the checkpoint's object table points at must
  //    be durable before the root can reference it. A failed fsync parks the
  //    store: the kernel reports a writeback error once and may have dropped
  //    the pages, so a later fsync's success would prove nothing -- and the
  //    dirty record was already taken.
  if (opts_.fsync_data) {
    Status st = files_->Sync(dirty);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lk(mu_);
      Park(st);
      return st;
    }
  }

  // 2. The new root, written beside the old one.
  Status st = AtomicReplaceFile(CheckpointPath(next),
                                BuildCheckpoint(next, table, db),
                                opts_.fault_hook, "checkpoint");
  if (!st.ok()) return st;

  // 3. A fresh, empty delta log for the new generation. Truncate defensively:
  //    a crashed earlier attempt at this generation may have left records.
  auto log = DeltaLog::Open(DeltaPath(next));
  if (!log.ok()) return log.status();
  st = log->TruncateTo(0);
  if (!st.ok()) return st;
  // The truncation must be durable before the flip: if this generation was
  // committed once before and fallen back from, a power loss after the flip
  // must not resurrect its old records (their CRCs are valid, and replaying
  // them could remap live segment ids to stale extents).
  st = log->Sync();
  if (!st.ok()) return st;

  // 4. The commit point.
  if (opts_.fault_hook) opts_.fault_hook("superblock.pre_flip");
  st = AtomicReplaceFile(SuperblockPath(), BuildSuperblock(next),
                         opts_.fault_hook, "superblock");
  if (!st.ok()) return st;

  {
    std::lock_guard<std::mutex> lk(mu_);
    delta_.emplace(std::move(*log));
    generation_ = next;
    delta_records_ = 0;

    // Dead entries already covered by the previous checkpoint's capture can
    // go: no retained root needs them (two-generation retention).
    for (auto it = dead_.begin(); it != dead_.end();) {
      it = it->second.seq < prev_capture_seq_ ? dead_.erase(it)
                                              : std::next(it);
    }
    prev_capture_seq_ = capture_seq;
  }

  // 5. Retention: the previous generation stays as the fallback root;
  //    anything older goes.
  if (next >= 2) {
    for (uint64_t gen = next - 1; gen-- > 0;) {
      const std::string ckpt = CheckpointPath(gen);
      const std::string log_path = DeltaPath(gen);
      const bool had = ::access(ckpt.c_str(), F_OK) == 0 ||
                       ::access(log_path.c_str(), F_OK) == 0;
      ::unlink(ckpt.c_str());
      ::unlink(log_path.c_str());
      if (!had) break;
    }
  }
  return next;
}

bool PersistentStore::HasSegment(SegmentId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return table_.count(id) > 0 || dead_.count(id) > 0;
}

StatusOr<SegmentBlob> PersistentStore::ReadSegment(SegmentId id) const {
  ObjectEntry entry;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = table_.find(id);
    if (it != table_.end()) {
      entry = it->second;
    } else if (auto dit = dead_.find(id); dit != dead_.end()) {
      entry = dit->second.entry;
    } else {
      return Status::NotFound("segment " + std::to_string(id) +
                              " not in object table");
    }
  }
  uint32_t crc = 0;
  auto payload = files_->Read(entry.addr, &crc);
  if (!payload.ok()) return payload.status();
  if (crc != entry.crc) {
    return Status::DataLoss("segment " + std::to_string(id) +
                            ": blob checksum disagrees with object table");
  }
  SegmentBlob blob;
  blob.physical = std::move(*payload);
  blob.codec = entry.codec;
  blob.logical_bytes = entry.logical_bytes;
  return blob;
}

std::vector<SegmentId> PersistentStore::LiveSegments() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SegmentId> ids;
  ids.reserve(table_.size());
  for (const auto& [id, e] : table_) {
    (void)e;
    ids.push_back(id);
  }
  return ids;
}

std::vector<SegmentId> PersistentStore::AllSegments() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SegmentId> ids;
  ids.reserve(table_.size() + dead_.size());
  for (const auto& [id, e] : table_) {
    (void)e;
    ids.push_back(id);
  }
  for (const auto& [id, d] : dead_) {
    (void)d;
    ids.push_back(id);
  }
  return ids;
}

Status PersistentStore::Rebase(const std::vector<SegmentId>& referenced) {
  std::lock_guard<std::mutex> lk(mu_);
  ObjectTable next;
  for (SegmentId id : referenced) {
    if (auto it = table_.find(id); it != table_.end()) {
      next.emplace(id, it->second);
    } else if (auto dit = dead_.find(id); dit != dead_.end()) {
      // Freed after the image was captured; the image wins -- resurrect.
      next.emplace(id, dit->second.entry);
    } else {
      return Status::DataLoss("rebase references unknown segment " +
                              std::to_string(id));
    }
  }
  table_ = std::move(next);
  dead_.clear();
  files_->ResetGauges();
  for (const auto& [id, e] : table_) {
    (void)id;
    files_->NoteLive(e.addr.length);
  }
  return Status::OK();
}

Status PersistentStore::health() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_error_;
}

PersistentStore::Stats PersistentStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.generation = generation_;
  s.live_segments = table_.size();
  s.live_payload_bytes = files_->live_bytes();
  s.dead_payload_bytes = files_->dead_bytes();
  s.delta_records_since_checkpoint = delta_records_;
  return s;
}

}  // namespace socs::persist
