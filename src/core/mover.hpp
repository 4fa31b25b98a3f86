// The one bulk data mover.  Placement's migration and replica fill (§III-G),
// OnlineMha's fold-back, recovery's roll-forward and fold-back, and the
// rebuilder's re-home and switch-time dirty re-copy all copy through it.
// Tasks copy in order, chunk by chunk, on the mover's own virtual timeline:
//
//   * a chunk is one pfs.read at its issue instant, then one pfs.write at
//     the read's completion; the next chunk issues at
//     max(write completion, issue + chunk / rate), so rate 0 is a closed loop;
//   * with a journal, task i's progress is its bytes copied, stamped after
//     every chunk, and task i resumes from copy_progress(i);
//   * after task i, the crash point "<crash_prefix><i>" (when a prefix is set);
//   * with a job, every request is charged to it under an infinite deadline.
//
// pump(now) stops before the first chunk whose issue instant is after now;
// run() copies everything.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "fault/journal.hpp"
#include "pfs/file_system.hpp"

namespace mha::core {

/// Copy granularity of the off-line paths (placement, fold-back, recovery).
inline constexpr common::ByteCount kCopyChunk = 4 * 1024 * 1024;

/// Test hook simulating a crash: called with each named crash point;
/// returning true aborts there, leaving exactly the on-disk state a real
/// crash would.
using CrashHook = std::function<bool(std::string_view)>;

/// One crash-point hook site: kIoError when `hook` fires at `point`.
inline common::Status crash_point(const CrashHook& hook, std::string_view point) {
  if (!hook || !hook(point)) return common::Status::ok();
  return common::Status::io_error("injected crash at " + std::string(point));
}

struct CopyTask {
  common::FileId from = common::kInvalidFileId;
  common::Offset from_off = 0;
  common::FileId to = common::kInvalidFileId;
  common::Offset to_off = 0;
  common::ByteCount len = 0;
};

struct MoverOptions {
  common::ByteCount chunk = kCopyChunk;
  double rate = 0.0;  ///< bytes per virtual second; 0 = closed loop
  std::optional<common::JobId> job = {};  ///< unset: the caller's tenant
  fault::MigrationJournal* journal = nullptr;  ///< task i is entry i
  std::string crash_prefix = {};  ///< "" = no per-task crash point
  CrashHook crash_at = {};
};

class Mover {
 public:
  Mover(pfs::HybridPfs& pfs, MoverOptions options, common::Seconds start = 0.0)
      : pfs_(&pfs), options_(std::move(options)), issue_(start) {}

  /// Queues a task; with a journal it starts at its journaled progress.
  void add(const CopyTask& task);

  /// Copies every chunk whose issue instant is <= now.
  common::Status pump(common::Seconds now);
  common::Status run() { return pump(std::numeric_limits<common::Seconds>::infinity()); }

  bool done() const { return next_ == tasks_.size(); }
  /// Issue instant of the next chunk; once done, the end of the copy.
  common::Seconds next_issue() const { return issue_; }
  common::ByteCount bytes_copied() const { return copied_; }

 private:
  struct Queued {
    CopyTask task;
    common::ByteCount pos;  ///< bytes of the task copied so far
  };

  pfs::HybridPfs* pfs_;
  MoverOptions options_;
  std::vector<Queued> tasks_;
  std::size_t next_ = 0;  ///< first task not finished
  common::Seconds issue_;
  common::ByteCount copied_ = 0;
  std::vector<std::uint8_t> buffer_;
};

}  // namespace mha::core
