// Crash recovery for journaled migrations (the other half of the
// fault::MigrationJournal contract).
//
// After a crash — in placement or in OnlineMha's fold-back — the journal on
// disk names the interrupted migration's phase, plan and per-entry copy
// progress.  recover_migration() applies the recovery invariants documented
// in fault/journal.hpp:
//
//   * before kCopying  -> roll BACK: the original file is untouched, so any
//                         region files that were created are dropped
//   * kCopying/kCopied -> roll FORWARD: missing region files are re-created
//                         from their journaled widths, each entry is copied
//                         from its journaled byte progress on (copies
//                         original -> region are idempotent), then the
//                         migration commits
//   * kCommitted       -> the migration already succeeded; the DRT is
//                         rebuilt from the journal so the caller can
//                         re-attach a Redirector
//   * kFoldback        -> the idempotent region -> original copies are
//                         re-run, then the regions are dropped
//
// Either way the journal is cleared and the file system is left in exactly
// one of two consistent states: fully migrated (with a DRT to serve from)
// or fully original.
#pragma once

#include <vector>

#include "common/result.hpp"
#include "core/drt.hpp"
#include "fault/journal.hpp"
#include "pfs/file_system.hpp"

namespace mha::core {

enum class RecoveryAction {
  kNone = 0,        ///< journal held no unfinished migration
  kRolledBack,      ///< pre-copy crash: regions dropped, original untouched
  kRolledForward,   ///< copy finished and committed (or already committed)
  kFoldedBack,      ///< fold-back re-run, regions dropped
};

const char* to_string(RecoveryAction action);

struct RecoveryReport {
  RecoveryAction action = RecoveryAction::kNone;
  std::size_t regions_removed = 0;
  std::size_t regions_created = 0;   ///< region files re-created from widths
  common::ByteCount bytes_copied = 0;
  /// Rebuilt reordering table; meaningful only when `has_drt` (the
  /// migration ended committed and a Redirector should be re-attached).
  Drt drt;
  bool has_drt = false;
  /// True when the journal's open() replay truncated a torn record off the
  /// log tail — the crash hit mid-append, so recovery acted on the last
  /// *durable* phase rather than the one being written.
  bool journal_torn = false;
};

/// The journal's record of `entries` (one JournalEntry each, in order):
/// what placement and OnlineMha's fold-back journal, and what recovery
/// rebuilds a DRT from.
std::vector<fault::JournalEntry> journal_entries(const std::vector<DrtEntry>& entries);

/// Resolves whatever migration `journal` recorded against `pfs`, clearing
/// the journal on success.  Safe to call on a journal with no active
/// migration (returns kNone).
common::Result<RecoveryReport> recover_migration(pfs::HybridPfs& pfs,
                                                 fault::MigrationJournal& journal);

}  // namespace mha::core
