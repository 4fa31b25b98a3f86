#include "core/mover.hpp"

#include <algorithm>

namespace mha::core {

namespace {

/// Stamps a QoS job (and an infinite deadline) on the PFS for one pump,
/// restoring the caller's tenant on every exit path.
class JobScope {
 public:
  JobScope(pfs::HybridPfs& pfs, common::JobId job)
      : pfs_(pfs), prev_job_(pfs.active_job()), prev_deadline_(pfs.active_deadline()) {
    pfs_.set_active_job(job);
    pfs_.set_active_deadline(std::numeric_limits<double>::infinity());
  }
  ~JobScope() {
    pfs_.set_active_job(prev_job_);
    pfs_.set_active_deadline(prev_deadline_);
  }

 private:
  pfs::HybridPfs& pfs_;
  common::JobId prev_job_;
  common::Seconds prev_deadline_;
};

}  // namespace

void Mover::add(const CopyTask& task) {
  // A resumed copy restarts the task where its journaled progress says
  // (chunk copies are idempotent, so a torn chunk just re-copies).
  const common::ByteCount pos =
      options_.journal != nullptr
          ? std::min(task.len, options_.journal->copy_progress(tasks_.size()))
          : 0;
  tasks_.push_back(Queued{task, pos});
}

common::Status Mover::pump(common::Seconds now) {
  if (options_.chunk == 0) return common::Status::invalid_argument("mover: zero chunk");
  std::optional<JobScope> scope;
  if (options_.job) scope.emplace(*pfs_, *options_.job);
  for (; next_ < tasks_.size(); ++next_) {
    Queued& queued = tasks_[next_];
    const CopyTask& task = queued.task;
    while (queued.pos < task.len) {
      if (issue_ > now) return common::Status::ok();
      const common::ByteCount piece = std::min(options_.chunk, task.len - queued.pos);
      buffer_.resize(piece);
      auto read =
          pfs_->read(task.from, task.from_off + queued.pos, buffer_.data(), piece, issue_);
      if (!read.is_ok()) return read.status();
      auto write = pfs_->write(task.to, task.to_off + queued.pos, buffer_.data(), piece,
                               read->completion);
      if (!write.is_ok()) return write.status();
      const common::Seconds pace =
          options_.rate > 0.0 ? static_cast<double>(piece) / options_.rate : 0.0;
      issue_ = std::max(write->completion, issue_ + pace);
      queued.pos += piece;
      copied_ += piece;
      if (options_.journal != nullptr) {
        MHA_RETURN_IF_ERROR(options_.journal->set_copy_progress(next_, queued.pos));
      }
    }
    if (!options_.crash_prefix.empty()) {
      MHA_RETURN_IF_ERROR(
          crash_point(options_.crash_at, options_.crash_prefix + std::to_string(next_)));
    }
  }
  return common::Status::ok();
}

}  // namespace mha::core
