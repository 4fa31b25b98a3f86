// Throttled online rebuild after permanent server loss (the repair
// subsystem's write side; membership.hpp is the read side).
//
// kill_server() makes a loss real in both planes: the membership view marks
// the server kDead (request paths start failing over) and the PFS drops
// every extent it stored (the bytes are gone, not merely unreachable — the
// zero-data-loss gates in bench/ext_repair would be vacuous otherwise).
//
// The Rebuilder then re-protects every region the loss orphaned:
//
//   * a region whose *primary* file striped onto the dead server is re-homed
//     into a fresh file ("<region>.rb<epoch>") laid out over the survivors,
//     its content read through the normal failover path (live stripes from
//     the old primary, dead stripes from the replica) — then the DRT's
//     interned name is retargeted in place, so every existing entry follows
//     with no table rewrite;
//   * a region whose *replica* sat on the dead server gets a fresh copy
//     ("<region>.rep<epoch>") on a surviving SServer, re-filled from the
//     primary.
//
// Rebuild is crash-safe and resumable through the same MigrationJournal
// discipline placement uses (plan journaled before any mutation, per-task
// copy progress in bytes, commit as the atomic switch).  The copy is a
// core::Mover pumped from the caller's quiescent instants: throttled to a
// configurable byte rate on the virtual timeline and charged to a
// caller-chosen QoS job, so the fair-share scheduler can hold it to the
// lowest tier while foreground traffic keeps its p99.
//
// Writes racing the copy are handled at switch time: the redirector marks
// DRT entries dirty on every intercepted write, and the switch re-copies
// every dirty entry's range (idempotent, quiescent instant) before the
// retarget, so a region rebuilt under a live write workload still reads
// back byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/page_cache.hpp"
#include "core/mover.hpp"
#include "core/redirector.hpp"
#include "fault/journal.hpp"
#include "pfs/file_system.hpp"
#include "repair/membership.hpp"

namespace mha::repair {

/// Permanent loss in both planes: membership kDead (+ an unbounded injector
/// crash window when one is given) and the server's extent stores wiped.
void kill_server(Membership& membership, pfs::HybridPfs& pfs, std::size_t server,
                 common::Seconds now, fault::FaultInjector* injector = nullptr);

struct RebuildOptions {
  /// Copy granularity of the re-home copy and the switch-time dirty
  /// re-copy (core::Mover: one read + one write per chunk).
  common::ByteCount chunk = 1 * 1024 * 1024;
  /// Throttle: rebuild copy bytes per virtual second (0 = unthrottled).  The
  /// next chunk issues at max(this chunk's write completion, its issue +
  /// chunk / rate), and step(now) only issues chunks whose instant has
  /// arrived, so the rebuild spreads over the foreground workload instead
  /// of flooding it.  The dirty re-copy at the switch is not throttled.
  double rate = 0.0;
  /// QoS job every rebuild request (copy and dirty re-copy) is charged
  /// against, under an infinite deadline (register a batch-tier job and
  /// fair-share holds the rebuild below foreground tenants).
  common::JobId job = common::kDefaultJob;
  /// Client page cache over the original file (borrowed; may be null).  The
  /// switch runs the migration protocol against it: prepare_migration
  /// (flush) over every affected logical range before the retarget,
  /// invalidate after — cached pages never go stale across a rebuild.
  cache::CachedFile* cache = nullptr;
  /// Crash-injection hook, Placer::ApplyOptions::crash_at style.  Points:
  /// "planned", "created", "copying", "copied-task-<i>", "copied",
  /// "switched-task-<i>", "switched".  Returning true aborts there, leaving
  /// exactly the journal state a real crash would; a fresh Rebuilder over
  /// the same journal path resume()s to completion, each task from its
  /// journaled byte progress.
  core::CrashHook crash_at;
};

struct RebuildReport {
  std::size_t tasks = 0;
  std::size_t primaries_rebuilt = 0;
  std::size_t replicas_rebuilt = 0;
  /// Regions with data on a dead server and no surviving copy (unreplicated
  /// cold regions) — genuinely lost; reads over their dead stripes stay
  /// kUnavailable.
  std::size_t lost_regions = 0;
  common::ByteCount bytes_copied = 0;
  /// Dirty-entry ranges re-copied at switch time (writes raced the copy).
  common::ByteCount bytes_recopied = 0;
  common::Seconds finished_at = 0.0;

  std::string table() const;
};

class Rebuilder {
 public:
  /// All references borrowed and must outlive the rebuilder.  `journal_path`
  /// names the MigrationJournal KV file ("" = unjournaled, tests only).
  Rebuilder(pfs::HybridPfs& pfs, core::Redirector& redirector, Membership& membership,
            std::string journal_path, RebuildOptions options = {});
  // pump_ points at journal_, so a copy or move would point at another
  // object's journal.
  Rebuilder(const Rebuilder&) = delete;
  Rebuilder& operator=(const Rebuilder&) = delete;

  /// Enumerates orphaned regions/replicas under the current membership view,
  /// journals the plan and creates the destination files.  Fails if the
  /// journal holds an unresolved rebuild (resume() instead).
  common::Status plan(common::Seconds now);

  /// Pumps the throttled copy: issues chunks whose pacing instant is <= now,
  /// and — once every task is copied — runs the switch (dirty re-copy, DRT
  /// retarget, redirector refresh, cache invalidate, journal commit).
  /// Call from a quiescent instant (the replayer's barrier hook).
  common::Status step(common::Seconds now);

  /// plan() (unless already planned) + copy/switch straight through,
  /// honouring pacing only in virtual time.
  common::Status run_to_completion(common::Seconds now);

  /// Rolls a crashed rebuild forward from its journal: re-creates missing
  /// destinations, re-copies unfinished tasks (idempotent), redoes the
  /// switch (already-retargeted names are detected and skipped) and commits.
  common::Status resume(common::Seconds now);

  bool planned() const { return planned_; }
  bool done() const { return done_; }
  /// Pacing instant of the next chunk (copy front; step(now) is a no-op
  /// while now < next_issue()).
  common::Seconds next_issue() const { return pump_.next_issue(); }
  const RebuildReport& report() const { return report_; }

 private:
  enum class TaskKind : std::uint8_t { kPrimary = 0, kReplica = 1 };

  struct Task {
    TaskKind kind = TaskKind::kPrimary;
    std::string base;      ///< region base name (suffixes stripped)
    std::string old_name;  ///< file being replaced
    std::string new_name;  ///< "<base>.rb<epoch>" / "<base>.rep<epoch>"
    std::vector<common::ByteCount> widths;  ///< destination layout
    common::ByteCount length = 0;
    common::FileId source = common::kInvalidFileId;  ///< copy source
    common::FileId dest = common::kInvalidFileId;
  };

  /// Creates (or, resumed, opens) each task's destination and queues its
  /// copy on pump_.
  common::Status create_dests();
  /// Restarts pump_ at `now` with no tasks (create_dests() queues them).
  void start_pump(common::Seconds now);
  /// Pumps chunks issued by `horizon`; once every task is copied, runs the
  /// switch at max(now, copy end).
  common::Status copy_pump(common::Seconds now, common::Seconds horizon);
  common::Status finish(common::Seconds now);
  /// Surviving SServer for a fresh replica/fallback stripe: lowest index not
  /// dead and (when possible) not already holding primary stripes of `avoid`.
  common::Result<std::size_t> pick_sserver(const std::vector<common::ByteCount>& avoid);

  pfs::HybridPfs& pfs_;
  core::Redirector& redirector_;
  Membership& membership_;
  std::string journal_path_;
  RebuildOptions options_;
  fault::MigrationJournal journal_;
  std::vector<Task> tasks_;
  RebuildReport report_;
  bool planned_ = false;
  bool done_ = false;
  /// The throttled copy of tasks_ (task i is journal entry i).
  core::Mover pump_;
};

}  // namespace mha::repair
