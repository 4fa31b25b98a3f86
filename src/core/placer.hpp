// The placement phase (§III-G): realises a ReorganizePlan on the PFS.
//
// For every region the Placer creates a region file striped with its
// optimized <h, s> pair (the pair is recorded in the Region Stripe Table —
// in this implementation the MDS's per-file layout store, persisted through
// the KV backend when the PFS was opened with an RST path), then migrates
// the data: each DRT entry's bytes are copied from the original file into
// the region file.  Migration is the paper's off-line step, so it runs on a
// dedicated virtual timeline and its traffic is excluded from measurement
// windows (the caller resets stats afterwards).
#pragma once

#include <vector>

#include "common/result.hpp"
#include "core/mover.hpp"
#include "core/reorganizer.hpp"
#include "core/rssd.hpp"
#include "fault/journal.hpp"
#include "pfs/file_system.hpp"

namespace mha::core {

struct PlacementReport {
  common::ByteCount bytes_migrated = 0;
  common::Seconds migration_time = 0.0;  ///< virtual time the copy took
  std::size_t regions_created = 0;
  // Heterogeneity-aware replication (ApplyOptions::replicate_hot).
  std::size_t replicas_created = 0;
  common::ByteCount bytes_replicated = 0;
  /// (region, replica) file-name pairs placement created; the pipeline
  /// stamps the DRT's replica column from these.
  std::vector<std::pair<std::string, std::string>> replica_pairs;
};

struct ApplyOptions {
  /// Copy granularity of the migration and the replica fill: both run
  /// through one core::Mover, one read + one write per chunk, each chunk
  /// issued when the previous one's write completes.
  common::ByteCount chunk = kCopyChunk;
  /// Borrowed migration journal (may be nullptr).  When set, placement is
  /// crash-safe: the full plan is journaled before any PFS mutation, each
  /// phase is stamped as it completes, each entry's copy progress (bytes
  /// copied) is stamped after every chunk, and the final commit() is the
  /// atomic DRT/RST switch.  A crash at any point is recoverable via
  /// core::recover_migration, which resumes an entry from its progress.
  fault::MigrationJournal* journal = nullptr;
  /// Test hook simulating a crash: called with each named crash point
  /// ("planned", "regions-created", "copying", "copied-entry-<i>", "copied",
  /// "committed", "replica-<g>", "replicated"); returning true aborts
  /// placement there, leaving exactly the on-disk journal state a real
  /// crash would.
  CrashHook crash_at;
  /// Heterogeneity-aware replication: after the migration commits, write a
  /// secondary copy of each hot (HServer-resident, h > 0) region onto the
  /// cost-model-chosen SServer (least projected transfer time under the
  /// cluster's Eq. 2 parameters; ties go to the lowest index).  Replicas
  /// are derived data and deliberately NOT part of the migration journal: a
  /// crash between commit and replica completion leaves a partial
  /// "<region>.rep" file that a re-deploy or the rebuilder re-creates from
  /// the intact primary.
  bool replicate_hot = false;
};

class Placer {
 public:
  /// `stripe_pairs` is index-aligned with `plan.regions`.
  static common::Result<PlacementReport> apply(pfs::HybridPfs& pfs,
                                               const ReorganizePlan& plan,
                                               const std::vector<StripePair>& stripe_pairs,
                                               const ApplyOptions& options = {});
};

}  // namespace mha::core
