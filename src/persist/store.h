// PersistentStore: the durable, crash-safe face of the segment store.
//
// On disk, a data directory holds:
//   superblock            -- magic, version, generation G, CRC; flipped
//                            atomically (write-new + fsync + rename), it is
//                            the single commit point of a checkpoint
//   checkpoint_<G>.ckpt   -- object table + database image at generation G
//   delta_<G>.log         -- object-table mutations since checkpoint G
//   segments_cls<k>.dat   -- append-only size-class blob files (shared by
//                            all generations; the object table is the only
//                            map from ids to extents)
//
// Runtime: the store implements SegmentDurability, so an attached
// SegmentSpace mirrors every segment materialization/free into the blob
// files plus a delta-log record. Checkpoints serialize the full object table
// and the engine-provided DatabaseImage, then flip the superblock; the
// previous generation's checkpoint + log are kept (fallback) and G-2 is
// deleted. A checkpoint holds the store lock only to snapshot and to
// install; its fsyncs and file writes run beside the mirror writes.
//
// Recovery (Open): read the superblock; load its checkpoint; replay the
// generation's delta log, truncating a torn tail. A corrupt or missing
// superblock falls back to the newest readable checkpoint on disk; a corrupt
// checkpoint G falls back to G-1. Every fallback is reported in RecoveryInfo
// -- the store recovers to the last durable state or says why it cannot,
// it never serves bytes that fail their checksum.
#ifndef SOCS_PERSIST_STORE_H_
#define SOCS_PERSIST_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "persist/format.h"
#include "persist/image.h"
#include "persist/object_table.h"
#include "persist/segment_files.h"
#include "storage/durability.h"

namespace socs::persist {

/// One recovered segment payload, ready for SegmentSpace::RestoreSegment.
struct SegmentBlob {
  std::vector<std::byte> physical;
  SegmentCodec codec = SegmentCodec::kRaw;
  uint64_t logical_bytes = 0;
};

/// What Open() found and did; surfaced to the operator at boot.
struct RecoveryInfo {
  uint64_t generation = 0;
  /// Delta-log records replayed on top of the checkpoint.
  uint64_t delta_records = 0;
  /// True when the log ended in a torn record that was truncated away.
  bool delta_tail_truncated = false;
  /// True when the superblock or its checkpoint was unreadable and the
  /// store fell back to an older durable generation.
  bool fell_back = false;
  std::vector<std::string> notes;
};

class PersistentStore : public SegmentDurability {
 public:
  struct Options {
    std::string dir;
    /// fsync blob files on every checkpoint, so committed checkpoints
    /// survive power loss. Checkpoints always fsync their own root files.
    /// Note that delta-log appends between checkpoints are never fsynced in
    /// either mode: against power loss, durability granularity is the
    /// checkpoint interval regardless of this flag (process crashes --
    /// SIGKILL -- lose nothing, because appends reach the kernel page cache
    /// synchronously). With this off, even checkpointed blob data rides the
    /// page cache -- the crash-injection tests run that mode.
    bool fsync_data = true;
    /// Test seam: invoked at named fault points (persist/format.h).
    FaultHook fault_hook;
  };

  struct Stats {
    uint64_t generation = 0;
    uint64_t live_segments = 0;
    uint64_t live_payload_bytes = 0;
    uint64_t dead_payload_bytes = 0;
    uint64_t delta_records_since_checkpoint = 0;
  };

  /// Opens (recovering) or initializes (empty dir) a store. The directory
  /// must exist.
  static StatusOr<std::unique_ptr<PersistentStore>> Open(Options opts);

  // --- SegmentDurability (called under the owning column's latch) ----------
  void PersistSegment(SegmentId id, std::span<const std::byte> physical,
                      SegmentCodec codec, uint64_t logical_bytes) override;
  void ForgetSegment(SegmentId id) override;

  // --- checkpointing --------------------------------------------------------

  /// Marks the start of an image capture; pass the returned sequence number
  /// to WriteCheckpoint. Segments freed at or after this point stay readable
  /// in the committed checkpoint, because the image being captured may still
  /// reference them (reorganizations run concurrently with capture).
  uint64_t BeginCapture() const;

  /// Commits generation G+1: syncs data files, writes the checkpoint
  /// (object table + `db`), starts an empty delta log, flips the superblock,
  /// prunes generation G-1. Returns the new generation.
  ///
  /// The store lock is held only for the snapshot (a copy of the object
  /// table the checkpoint names, and the set of size classes dirtied since
  /// the last snapshot, cleared there) and for installing the new log and
  /// generation after the flip. Serialization and I/O run unlocked, so
  /// mirror writes proceed; they land in generation G's log and their
  /// classes are synced by the next checkpoint. Checkpoints are serialized
  /// among themselves. A failed data fsync parks the store (see health()).
  StatusOr<uint64_t> WriteCheckpoint(const DatabaseImage& db,
                                     uint64_t capture_seq);

  // --- recovery reads -------------------------------------------------------

  /// The database image loaded by Open (empty for a fresh store).
  const DatabaseImage& image() const { return image_; }
  const RecoveryInfo& recovery() const { return recovery_; }

  bool HasSegment(SegmentId id) const;
  /// Reads and checksum-verifies one segment's blob (live or dead-but-
  /// retained -- recovery may resurrect the latter).
  StatusOr<SegmentBlob> ReadSegment(SegmentId id) const;
  /// Ids in the live object table.
  std::vector<SegmentId> LiveSegments() const;
  /// Live plus dead-but-retained ids: everything recovery materializes
  /// before the restored strategies declare what they actually reference.
  std::vector<SegmentId> AllSegments() const;

  /// Post-restore rebase: `referenced` is the union of every restored
  /// strategy's segment list -- the truth as of the recovered image, which
  /// may disagree with the replayed delta log in both directions (the log
  /// is newer than the image). Referenced entries are resurrected into the
  /// live table; everything else is dropped (bytes stay on disk as dead
  /// extents). Purely in-RAM: crashing before the following checkpoint
  /// just replays the same recovery.
  Status Rebase(const std::vector<SegmentId>& referenced);

  // --- health ---------------------------------------------------------------

  /// First durability error, if any. The SegmentDurability callbacks are
  /// void; a failed append parks its error here instead of crashing the
  /// strategy that triggered it. A failed data fsync in WriteCheckpoint
  /// parks too, and is never retried: the kernel reports a writeback error
  /// once and may drop the pages, so a later fsync's success would prove
  /// nothing. A parked store stops mirroring and refuses checkpoints.
  Status health() const;
  Stats stats() const;

 private:
  explicit PersistentStore(Options opts) : opts_(std::move(opts)) {}

  static constexpr uint32_t kSuperMagic = 0x50C55B10u;
  static constexpr uint32_t kCheckpointMagic = 0x50C5C4B7u;
  static constexpr uint32_t kVersion = 1;

  std::string SuperblockPath() const { return opts_.dir + "/superblock"; }
  std::string CheckpointPath(uint64_t gen) const {
    return opts_.dir + "/checkpoint_" + std::to_string(gen) + ".ckpt";
  }
  std::string DeltaPath(uint64_t gen) const {
    return opts_.dir + "/delta_" + std::to_string(gen) + ".log";
  }

  /// The live table plus the dead entries freed at or after `capture_seq`
  /// (locked by caller).
  ObjectTable CheckpointTable(uint64_t capture_seq) const;
  /// Serializes {table, db} into checkpoint bytes.
  static std::vector<std::byte> BuildCheckpoint(uint64_t gen,
                                                const ObjectTable& table,
                                                const DatabaseImage& db);
  /// Parses checkpoint bytes; fills table + image.
  static Status ParseCheckpoint(std::span<const std::byte> bytes,
                                uint64_t expect_gen, ObjectTable* table,
                                DatabaseImage* image);
  /// Tries to load generation `gen`'s checkpoint + replay its delta log.
  Status LoadGeneration(uint64_t gen, RecoveryInfo* info);
  /// Superblock bytes for generation `gen`.
  static std::vector<std::byte> BuildSuperblock(uint64_t gen);
  static StatusOr<uint64_t> ParseSuperblock(std::span<const std::byte> bytes);
  /// Generations with a checkpoint file in the directory (unordered),
  /// found by enumerating checkpoint_<G>.ckpt names.
  std::vector<uint64_t> CheckpointGenerationsOnDisk() const;

  void Park(Status st);

  Options opts_;

  struct DeadEntry {
    ObjectEntry entry;
    /// Operation sequence number at DEL time; checkpoints serialize dead
    /// entries whose seq is at or past the image's capture point.
    uint64_t seq = 0;
  };

  /// Serializes WriteCheckpoint; held across its I/O, which runs outside
  /// mu_. Taken before mu_, never while holding it.
  std::mutex commit_mu_;

  mutable std::mutex mu_;
  ObjectTable table_;
  /// Entries DEL'd but retained: their blobs stay readable, and those DEL'd
  /// during or after an image capture are serialized into that image's
  /// checkpoint (the image may still reference them; the recovery-time
  /// Rebase sorts truth out). Pruned two checkpoints after death.
  std::map<SegmentId, DeadEntry> dead_;
  uint64_t op_seq_ = 0;
  uint64_t prev_capture_seq_ = 0;
  std::optional<SegmentFileSet> files_;
  std::optional<DeltaLog> delta_;
  uint64_t generation_ = 0;
  uint64_t delta_records_ = 0;
  Status first_error_;  // parked durability error
  DatabaseImage image_;
  RecoveryInfo recovery_;
};

}  // namespace socs::persist

#endif  // SOCS_PERSIST_STORE_H_
