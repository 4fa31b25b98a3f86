#include "workloads/replayer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <queue>

#include "common/crc32.hpp"
#include "io/mpi_file.hpp"
#include "io/tracer.hpp"
#include "trace/analysis.hpp"

namespace mha::workloads {

namespace {

int world_size_of(const trace::Trace& trace) {
  int max_rank = 0;
  for (const trace::TraceRecord& r : trace.records) max_rank = std::max(max_rank, r.rank);
  return max_rank + 1;
}

/// Shadow flat file for byte-level verification.
class Shadow {
 public:
  Shadow(bool enabled, common::ByteCount extent, const io::IoInterceptor* interceptor)
      : enabled_(enabled), interceptor_(interceptor) {
    if (!enabled_) return;
    std::vector<std::uint8_t> seed(extent);
    layouts::populate_fill(0, seed.data(), extent);
    store_.write(0, seed);
  }

  void on_write(common::Offset offset, const std::uint8_t* data, common::ByteCount size) {
    if (enabled_) store_.write(offset, data, size);
  }

  common::Status check_read(common::Offset offset, const std::uint8_t* actual,
                            common::ByteCount size) {
    if (!enabled_) return common::Status::ok();
    if (expected_.size() < size) expected_.resize(size);
    store_.read(offset, expected_.data(), size);
    if (std::memcmp(actual, expected_.data(), size) == 0) return common::Status::ok();
    // Bulk compare failed.  The report names everything a debugger wants:
    // the whole-request CRCs (expected vs. actual), the first divergent
    // origin offset, and — when the run was redirected — which region file
    // actually served that byte (via the interceptor's locate()).
    const std::uint8_t* bad = std::mismatch(actual, actual + size, expected_.data()).first;
    const common::Offset at = offset + static_cast<common::ByteCount>(bad - actual);
    char crcs[64];
    std::snprintf(crcs, sizeof(crcs), "expected crc %08x, actual crc %08x",
                  common::crc32(expected_.data(), size), common::crc32(actual, size));
    const std::string where =
        interceptor_ != nullptr ? interceptor_->locate(at) : std::string();
    return common::Status::corruption(
        "replay verification failed over [" + std::to_string(offset) + ", " +
        std::to_string(offset + size) + "): " + crcs + "; first mismatch at origin offset " +
        std::to_string(at) + (where.empty() ? "" : " (served from " + where + ")"));
  }

 private:
  bool enabled_;
  const io::IoInterceptor* interceptor_;
  pfs::ExtentStore store_;
  /// Reused expected-bytes scratch (zero steady-state allocations).
  std::vector<std::uint8_t> expected_;
};

/// Attaches the options' scheduler to the PFS for the replay window and
/// detaches it on every exit path.
class SchedulerGuard {
 public:
  SchedulerGuard(pfs::HybridPfs& pfs, sched::Scheduler* scheduler) : pfs_(pfs) {
    if (scheduler != nullptr) pfs_.set_scheduler(scheduler);
  }
  ~SchedulerGuard() { pfs_.set_scheduler(nullptr); }

 private:
  pfs::HybridPfs& pfs_;
};

/// Same idiom for the fault context.
class FaultGuard {
 public:
  FaultGuard(pfs::HybridPfs& pfs, fault::FaultContext* fault) : pfs_(pfs) {
    if (fault != nullptr) pfs_.set_fault_context(fault);
  }
  ~FaultGuard() { pfs_.set_fault_context(nullptr); }

 private:
  pfs::HybridPfs& pfs_;
};

/// Restores the PFS to the default job on every exit path, so a multi-tenant
/// replay never leaves its last tenant's stamp on later single-tenant work.
class JobGuard {
 public:
  explicit JobGuard(pfs::HybridPfs& pfs) : pfs_(pfs) {}
  ~JobGuard() { pfs_.set_active_job(common::kDefaultJob); }

 private:
  pfs::HybridPfs& pfs_;
};

/// Same idiom for the overload guard; also resets the active deadline so a
/// guarded replay never leaves a stale finite deadline on later work.
class OverloadGuardGuard {
 public:
  OverloadGuardGuard(pfs::HybridPfs& pfs, guard::OverloadGuard* g) : pfs_(pfs) {
    if (g != nullptr) pfs_.set_guard(g);
  }
  ~OverloadGuardGuard() {
    pfs_.set_guard(nullptr);
    pfs_.set_active_deadline(std::numeric_limits<double>::infinity());
  }

 private:
  pfs::HybridPfs& pfs_;
};

}  // namespace

common::Result<ReplayResult> replay(pfs::HybridPfs& pfs,
                                    const layouts::Deployment& deployment,
                                    const trace::Trace& trace,
                                    const ReplayOptions& options) {
  if (trace.records.empty()) return common::Status::invalid_argument("replay: empty trace");
  const int world = world_size_of(trace);
  SchedulerGuard scheduler_guard(pfs, options.scheduler);
  FaultGuard fault_guard(pfs, options.fault_context);
  JobGuard job_guard(pfs);
  OverloadGuardGuard overload_guard(pfs, options.guard);
  if (options.guard != nullptr && options.jobs != nullptr) {
    // Seed the guard's job -> tier map from the registry's priority classes
    // so tiered shedding sees the same classes the fair-share policies do.
    for (std::size_t j = 0; j < options.jobs->size(); ++j) {
      options.guard->set_job_tier(
          static_cast<common::JobId>(j),
          static_cast<std::uint8_t>(options.jobs->priority(static_cast<common::JobId>(j))));
    }
  }
  if (options.scheduler != nullptr) {
    options.scheduler->reserve_metrics(trace.records.size(), pfs.num_servers());
  }
  io::MpiSim mpi(world);
  auto file = io::MpiFile::open(pfs, mpi, deployment.file_name);
  if (!file.is_ok()) return file.status();
  if (deployment.interceptor != nullptr) file->set_interceptor(deployment.interceptor.get());

  io::Tracer tracer(deployment.file_name, options.tracer_overhead);
  if (options.trace_run) file->set_tracer(&tracer);

  // Cached replays route every record through the page cache; the collective
  // batched path is disabled because the cache issues its own bulk
  // dispatches (fills, prefetches, coalesced flushes).
  std::optional<cache::CachedFile> cached;
  if (options.cache != nullptr) cached.emplace(*file, mpi, pfs, *options.cache);
  const bool use_batch = options.batch_requests && !cached.has_value();

  Shadow shadow(options.verify_data, trace::extent_end(trace.records),
                deployment.interceptor.get());
  const bool fill_payload = options.verify_data || pfs.stores_data();

  ReplayResult result;
  std::vector<std::uint8_t> buffer;
  buffer.reserve(trace::max_request_size(trace.records));
  common::Percentiles latency_pcts;
  latency_pcts.reserve(trace.records.size());

  if (options.jobs != nullptr) {
    // Pre-count each tenant's requests so the per-tenant percentile stores
    // never grow on the request path (same zero-alloc contract as the
    // aggregate collector above).
    result.tenants.resize(std::max<std::size_t>(options.jobs->size(), 1));
    std::vector<std::size_t> per_job(result.tenants.size(), 0);
    for (const trace::TraceRecord& r : trace.records) {
      ++per_job[options.jobs->job_of_rank(r.rank)];
    }
    for (std::size_t j = 0; j < per_job.size(); ++j) {
      result.tenants[j].percentiles.reserve(per_job[j]);
    }
  }

  const auto job_of = [&](const trace::TraceRecord& r) {
    return options.jobs != nullptr ? options.jobs->job_of_rank(r.rank)
                                   : common::kDefaultJob;
  };
  const auto allowance_of = [&](common::JobId job) {
    const auto tier = options.jobs != nullptr
                          ? static_cast<std::size_t>(options.jobs->priority(job))
                          : static_cast<std::size_t>(qos::PriorityClass::kNormal);
    return options.goodput_allowance[tier];
  };
  // End-to-end deadline of a request issued now: the rank's clock (request
  // issue, not the trace's nominal t_start) plus its tier's allowance.
  // Enforced only under a guard.
  const auto deadline_of = [&](const trace::TraceRecord& r, common::JobId job) {
    return options.guard != nullptr ? mpi.now(r.rank) + allowance_of(job)
                                    : std::numeric_limits<double>::infinity();
  };

  // Per-record bookkeeping of both issue paths: failure class, shadow
  // write/verify over `data` (the record's payload or destination), bytes,
  // latency, goodput vs late.  Non-ok only when the replay must abort.
  const auto account = [&](const trace::TraceRecord& r, const common::Status& status,
                           common::Seconds duration,
                           const std::uint8_t* data) -> common::Status {
    const common::JobId job = job_of(r);
    ++result.requests;
    if (!status.is_ok()) {
      // Corruption is never an overload symptom — always fatal.
      if (!options.tolerate_failures || status.code() == common::ErrorCode::kCorruption) {
        return status;
      }
      if (status.code() == common::ErrorCode::kOverloaded) {
        ++result.shed_requests;
        if (!result.tenants.empty()) ++result.tenants[job].shed;
      } else {
        ++result.failed_requests;
        if (!result.tenants.empty()) ++result.tenants[job].failed;
      }
      return common::Status::ok();
    }
    if (r.op == common::OpType::kWrite) {
      shadow.on_write(r.offset, data, r.size);
      result.bytes_written += r.size;
    } else {
      MHA_RETURN_IF_ERROR(shadow.check_read(r.offset, data, r.size));
      result.bytes_read += r.size;
    }
    result.request_latency.add(duration);
    latency_pcts.add(duration);
    if (!result.tenants.empty()) result.tenants[job].observe(duration, r.size);
    if (duration <= allowance_of(job)) {
      result.goodput_bytes += r.size;
      if (!result.tenants.empty()) result.tenants[job].goodput_bytes += r.size;
    } else {
      ++result.late_requests;
      if (!result.tenants.empty()) ++result.tenants[job].late;
    }
    return common::Status::ok();
  };

  auto issue = [&](const trace::TraceRecord& r) -> common::Status {
    buffer.resize(r.size);
    const common::JobId job = job_of(r);
    if (options.jobs != nullptr) pfs.set_active_job(job);
    if (options.guard != nullptr) pfs.set_active_deadline(deadline_of(r, job));
    const bool write = r.op == common::OpType::kWrite;
    if (write && fill_payload) replay_write_fill(r.offset, buffer.data(), r.size);
    const common::Result<io::OpResult> op =
        cached.has_value()
            ? (write ? cached->write_at(r.rank, r.offset, buffer.data(), r.size)
                     : cached->read_at(r.rank, r.offset, buffer.data(), r.size))
            : (write ? file->write_at(r.rank, r.offset, buffer.data(), r.size)
                     : file->read_at(r.rank, r.offset, buffer.data(), r.size));
    return account(r, op.is_ok() ? common::Status::ok() : op.status(),
                   op.is_ok() ? op->duration() : 0.0, buffer.data());
  };

  // Batched synchronous issue: the current maximal run of same-op,
  // distinct-rank records (in plan order) plus its payload arena.  One
  // arena resize per run; slices address each record's bytes, so the whole
  // run moves through one collective call with zero per-record allocation.
  std::vector<const trace::TraceRecord*> run;
  std::vector<std::uint8_t> rank_used(static_cast<std::size_t>(world), 0);
  std::vector<std::uint8_t> batch_buf;
  std::vector<io::BatchOp> batch_ops;
  io::BatchOutcomeVec batch_outcomes;

  auto flush_run = [&]() -> common::Status {
    common::Status failure = common::Status::ok();
    if (run.size() == 1) {
      // A lone record pays none of the batch assembly.
      failure = issue(*run[0]);
    } else if (!run.empty()) {
      const common::OpType op = run[0]->op;
      common::ByteCount total = 0;
      for (const trace::TraceRecord* r : run) total += r->size;
      if (batch_buf.size() < total) batch_buf.resize(total);
      batch_ops.clear();
      common::ByteCount off = 0;
      for (const trace::TraceRecord* r : run) {
        const common::JobId job = job_of(*r);
        std::uint8_t* slice = batch_buf.data() + off;
        if (op == common::OpType::kWrite && fill_payload) {
          replay_write_fill(r->offset, slice, r->size);
        }
        batch_ops.push_back(io::BatchOp{
            r->rank, r->offset, r->size, op == common::OpType::kRead ? slice : nullptr,
            op == common::OpType::kWrite ? slice : nullptr, job, deadline_of(*r, job)});
        off += r->size;
      }
      const std::span<const io::BatchOp> ops(batch_ops.data(), batch_ops.size());
      if (op == common::OpType::kRead) {
        file->read_at_batch(ops, batch_outcomes);
      } else {
        file->write_at_batch(ops, batch_outcomes);
      }
      for (std::size_t i = 0; i < run.size() && failure.is_ok(); ++i) {
        const io::BatchOpOutcome& oc = batch_outcomes[i];
        const std::uint8_t* data =
            op == common::OpType::kRead ? ops[i].read_out : ops[i].write_data;
        failure = account(*run[i], oc.status, oc.op.duration(), data);
      }
    }
    for (const trace::TraceRecord* r : run) {
      rank_used[static_cast<std::size_t>(r->rank)] = 0;
    }
    run.clear();
    return failure;
  };

  if (options.mode == ReplayMode::kSynchronous) {
    // Iterations are groups of records sharing a t_start; a barrier closes
    // each iteration, so arrivals inside one iteration are simultaneous —
    // exactly the congestion window the scheduler's plan() may reorder.
    std::map<common::Seconds, std::vector<const trace::TraceRecord*>> iterations;
    for (const trace::TraceRecord& r : trace.records) {
      iterations[r.t_start].push_back(&r);
    }
    for (const auto& [t, group] : iterations) {
      std::vector<std::size_t> order(group.size());
      for (std::size_t i = 0; i < group.size(); ++i) order[i] = i;
      if (options.scheduler != nullptr) {
        std::vector<common::Request> batch;
        batch.reserve(group.size());
        for (const trace::TraceRecord* r : group) {
          const common::JobId job = job_of(*r);
          batch.push_back(common::Request{r->rank, r->op, r->offset, r->size, r->t_start,
                                          job, r->t_start + allowance_of(job)});
        }
        order = options.scheduler->plan(batch);
      }
      for (std::size_t i : order) {
        const trace::TraceRecord* r = group[i];
        if (!use_batch) {
          MHA_RETURN_IF_ERROR(issue(*r));
          continue;
        }
        // A run breaks on an op-type change or a rank repeat: the second
        // request of one rank must see its first one's completion (the
        // closed-loop contract), so it belongs to the next batch.
        if (!run.empty() &&
            (r->op != run[0]->op || rank_used[static_cast<std::size_t>(r->rank)] != 0)) {
          MHA_RETURN_IF_ERROR(flush_run());
        }
        run.push_back(r);
        rank_used[static_cast<std::size_t>(r->rank)] = 1;
      }
      MHA_RETURN_IF_ERROR(flush_run());
      mpi.barrier();
      if (cached.has_value()) {
        // Close-to-open epoch boundary: flush + invalidate at the barrier
        // (no-op in the other consistency modes).
        auto epoch = cached->epoch_close();
        if (!epoch.is_ok()) return epoch.status();
      }
      if (options.on_barrier) options.on_barrier(mpi.max_time());
    }
  } else {
    // Discrete-event free-running replay: per-rank cursors, always dispatch
    // the rank whose clock is earliest so server queues see time order.
    std::vector<std::vector<const trace::TraceRecord*>> per_rank(
        static_cast<std::size_t>(world));
    for (const trace::TraceRecord& r : trace.records) {
      per_rank[static_cast<std::size_t>(r.rank)].push_back(&r);
    }
    using Entry = std::pair<common::Seconds, int>;  // (clock, rank)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<std::size_t> cursor(static_cast<std::size_t>(world), 0);
    for (int rank = 0; rank < world; ++rank) {
      if (!per_rank[static_cast<std::size_t>(rank)].empty()) heap.emplace(0.0, rank);
    }
    while (!heap.empty()) {
      const auto [t, rank] = heap.top();
      heap.pop();
      auto& queue = per_rank[static_cast<std::size_t>(rank)];
      auto& pos = cursor[static_cast<std::size_t>(rank)];
      MHA_RETURN_IF_ERROR(issue(*queue[pos]));
      if (++pos < queue.size()) heap.emplace(mpi.now(rank), rank);
    }
  }

  result.makespan = mpi.max_time();
  if (cached.has_value()) {
    // Tail flush: whatever is still dirty leaves as coalesced bulk runs at
    // the replay's end; its completion extends the measured window (the
    // absorbed writes were never free, just deferred).
    auto tail = cached->flush_all(mpi.max_time());
    if (!tail.is_ok()) return tail.status();
    result.makespan = std::max(result.makespan, *tail);
    if (options.cache_metrics != nullptr) *options.cache_metrics = cached->metrics();
  }
  result.aggregate_bandwidth =
      result.makespan > 0.0 ? static_cast<double>(result.bytes_total()) / result.makespan : 0.0;
  result.goodput_bandwidth =
      result.makespan > 0.0 ? static_cast<double>(result.goodput_bytes) / result.makespan : 0.0;
  result.latency_p50 = latency_pcts.percentile(50);
  result.latency_p99 = latency_pcts.percentile(99);
  result.server_stats.reserve(pfs.num_servers());
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    result.server_stats.push_back(pfs.server_stats(i));
  }
  if (options.trace_run) result.captured = tracer.take_trace();
  if (options.scheduler != nullptr) result.scheduler_metrics = options.scheduler->metrics();
  return result;
}

common::Result<ReplayResult> run_scheme(layouts::LayoutScheme& scheme,
                                        const sim::ClusterConfig& config,
                                        const trace::Trace& trace,
                                        const ReplayOptions& options, bool store_data) {
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = store_data || options.verify_data;
  pfs::HybridPfs pfs(config, pfs_options);
  auto deployment = scheme.prepare(pfs, trace);
  if (!deployment.is_ok()) return deployment.status();
  return replay(pfs, *deployment, trace, options);
}

}  // namespace mha::workloads
