// Phase-stamped migration journal — crash-safe MHA placement and fold-back.
//
// The five-phase MHA pipeline moves real bytes in its placement phase; a
// crash mid-migration must never strand a half-reordered file.  The journal
// is a write-ahead record, persisted synchronously through mha::kv (the
// paper's "synchronously written to the storage in order to survive power
// failures" discipline, extended from the DRT/RST to the migration itself):
//
//   kPlanned        - plan serialised (regions + layouts + every DRT entry);
//                     nothing touched on the PFS yet
//   kRegionsCreated - region files exist (possibly only some, on a crash)
//   kCopying        - data copy in flight; entry i's progress record is the
//                     bytes of it copied so far (core::Mover stamps it after
//                     every chunk; length == done), and recovery resumes the
//                     entry from there
//   kCopied         - every byte copied; DRT/RST not yet authoritative
//   kCommitted      - the atomic switch point: the journaled DRT/RST are now
//                     the truth and the redirector may serve from regions
//   kFoldback       - OnlineMha is copying region bytes back to the original
//                     file before re-planning (copies are idempotent)
//
// Recovery invariants (enforced by core::recover_migration):
//   * before kCopying  -> roll BACK (original file untouched; drop regions)
//   * kCopying/kCopied -> roll FORWARD (copy each entry from its progress
//                         on; copies original -> region are idempotent)
//   * kCommitted       -> migration is complete; rebuild the redirector
//   * kFoldback        -> re-run the fold-back (idempotent region ->
//                         original copies), then drop regions
//
// The journal deliberately speaks only offsets/lengths/names (no core
// types), so it sits beside the injector in the fault library and the core
// layers above translate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "kv/kvstore.hpp"

namespace mha::fault {

enum class JournalPhase : int {
  kNone = 0,
  kPlanned = 1,
  kRegionsCreated = 2,
  kCopying = 3,
  kCopied = 4,
  kCommitted = 5,
  kFoldback = 6,
};

const char* to_string(JournalPhase phase);

/// One region file the migration creates: name plus per-server stripe
/// widths (the RST row).
struct JournalRegion {
  std::string name;
  std::vector<common::ByteCount> widths;

  friend bool operator==(const JournalRegion&, const JournalRegion&) = default;
};

/// One byte move: [o_offset, o_offset+length) of the original file lands at
/// r_offset of r_file (mirrors core::DrtEntry without depending on it).
struct JournalEntry {
  common::Offset o_offset = 0;
  common::ByteCount length = 0;
  std::string r_file;
  common::Offset r_offset = 0;

  friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
};

class MigrationJournal {
 public:
  /// Opens (creating if absent) the journal at `path` and loads any state a
  /// previous run left behind.  Records are fsynced on every mutation.
  common::Status open(const std::string& path);
  common::Status close();
  bool is_open() const { return store_.is_open(); }

  /// True when a previous migration left unfinished state to recover.
  bool active() const {
    return phase_ != JournalPhase::kNone && phase_ != JournalPhase::kCommitted;
  }

  /// Starts a journaled migration: serialises the whole plan, then stamps
  /// kPlanned.  Fails if a previous migration is still unresolved.
  common::Status begin(const std::string& o_file, std::vector<JournalRegion> regions,
                       std::vector<JournalEntry> entries);

  /// Like begin(), but stamps kFoldback (OnlineMha's copy-back pass).
  common::Status begin_foldback(const std::string& o_file,
                                std::vector<JournalRegion> regions,
                                std::vector<JournalEntry> entries);

  common::Status set_phase(JournalPhase phase);
  JournalPhase phase() const { return phase_; }

  /// Marks the first `bytes` of entry `index` as copied (full length == done).
  common::Status set_copy_progress(std::size_t index, common::ByteCount bytes);
  common::ByteCount copy_progress(std::size_t index) const;

  /// The atomic switch: stamps kCommitted and fsyncs.  After this returns
  /// ok, the journaled DRT/RST are authoritative.
  common::Status commit() { return set_phase(JournalPhase::kCommitted); }

  /// Erases every record (migration fully resolved).
  common::Status clear();

  const std::string& o_file() const { return o_file_; }
  const std::vector<JournalRegion>& regions() const { return regions_; }
  const std::vector<JournalEntry>& entries() const { return entries_; }

  /// What open()'s replay found on disk — lets recovery distinguish "journal
  /// cleanly says phase N" from "phase N, but a torn record was truncated
  /// away" (the crash hit mid-append; the phase on disk is the last durable
  /// one, which is exactly the fold-back the format is designed for).
  const kv::LoadReport& load_report() const { return store_.last_load(); }

  /// Read-only CRC audit of the backing log (the scrubber's KV sweep).
  common::Result<kv::LogVerifyReport> verify_log() const { return store_.verify_log(); }

 private:
  common::Status begin_with_phase(const std::string& o_file,
                                  std::vector<JournalRegion> regions,
                                  std::vector<JournalEntry> entries,
                                  JournalPhase first_phase);
  common::Status persist_plan();
  common::Status load();

  kv::KvStore store_;
  JournalPhase phase_ = JournalPhase::kNone;
  std::string o_file_;
  std::vector<JournalRegion> regions_;
  std::vector<JournalEntry> entries_;
  std::vector<common::ByteCount> progress_;
};

}  // namespace mha::fault
