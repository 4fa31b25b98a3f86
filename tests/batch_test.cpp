// Batched-vs-serial equivalence: the batched end-to-end request path
// (HybridPfs::read_batch/write_batch, MpiFile::*_at_batch, the replayer's
// per-iteration batching) must be OBSERVABLY IDENTICAL to issuing the same
// requests serially in batch order — byte-identical extent-store contents,
// identical per-server and per-job accounting, identical Statuses and
// timings — across every (scheme x scheduler x guard) combination, at any
// thread count.  The batch is an optimisation of the how, never of the what.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "exec/thread_pool.hpp"
#include "guard/guard.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "qos/job.hpp"
#include "sched/scheduler.hpp"
#include "workloads/dlpipe.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace mha {
namespace {

using namespace mha::common::literals;

// ---------------------------------------------------------------- harness

struct ComboSpec {
  const char* scheme = "DEF";           // DEF | MHA
  const char* workload = "ior";         // ior | dlpipe
  sched::SchedulerKind scheduler = sched::SchedulerKind::kFcfs;
  bool use_scheduler = false;           // false => direct FCFS (null scheduler)
  bool use_guard = false;
  bool use_jobs = false;
};

std::string combo_name(const ::testing::TestParamInfo<ComboSpec>& info) {
  const ComboSpec& c = info.param;
  std::string name = std::string(c.scheme) + "_" + c.workload;
  name += c.use_scheduler ? std::string("_") + to_string(c.scheduler) : "_direct";
  if (c.use_guard) name += "_guard";
  if (c.use_jobs) name += "_jobs";
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

trace::Trace make_trace(const std::string& kind) {
  if (kind == "dlpipe") {
    workloads::DlPipeConfig config;
    config.num_procs = 6;
    config.sample_size = 96_KiB;  // sub-stripe and unaligned chunks
    config.dataset_size = 3_MiB;
    config.epochs = 2;
    config.seed = 5;
    return workloads::dl_pipeline(config);
  }
  workloads::IorMixedSizesConfig config;
  config.num_procs = 6;
  config.request_sizes = {16_KiB, 96_KiB};
  config.file_size = 4_MiB;
  config.op = common::OpType::kWrite;
  config.per_rank_sizes = true;
  config.file_name = "batch.ior";
  config.seed = 3;
  return workloads::ior_mixed_sizes(config);
}

std::unique_ptr<layouts::LayoutScheme> make_scheme(const std::string& name) {
  return name == "MHA" ? layouts::make_mha() : layouts::make_def();
}

/// Everything one replay leaves behind that equivalence must pin: the full
/// ReplayResult plus the byte-accurate server images (the pfs is kept alive
/// so the stores can be walked after the run).
struct RunOutput {
  common::Status status;
  workloads::ReplayResult result;
  std::unique_ptr<pfs::HybridPfs> pfs;
};

RunOutput run_combo(const ComboSpec& combo, const trace::Trace& trace,
                    bool batch_requests) {
  RunOutput out;
  pfs::PfsOptions pfs_options;
  pfs_options.store_data = true;
  out.pfs = std::make_unique<pfs::HybridPfs>(sim::ClusterConfig{}, pfs_options);

  auto scheme = make_scheme(combo.scheme);
  auto deployment = scheme->prepare(*out.pfs, trace);
  if (!deployment.is_ok()) {
    out.status = deployment.status();
    return out;
  }

  workloads::ReplayOptions options;
  options.batch_requests = batch_requests;

  std::unique_ptr<sched::Scheduler> scheduler;
  if (combo.use_scheduler) {
    scheduler = sched::make_scheduler(combo.scheduler);
    options.scheduler = scheduler.get();
  }
  qos::JobTable jobs;
  if (combo.use_jobs) {
    jobs.assign_ranks(jobs.add("latency", 1.0, qos::PriorityClass::kInteractive), 0, 3);
    jobs.assign_ranks(jobs.add("batch", 2.0, qos::PriorityClass::kBatch), 3, 3);
    options.jobs = &jobs;
  }
  std::unique_ptr<guard::OverloadGuard> overload_guard;
  if (combo.use_guard) {
    overload_guard =
        std::make_unique<guard::OverloadGuard>(out.pfs->num_servers(), guard::GuardOptions{});
    options.guard = overload_guard.get();
    // Finite allowances so deadline stamping and late/goodput accounting are
    // live; generous enough that most requests still land.
    options.goodput_allowance = {2.0, 1.0, 0.5};
    options.tolerate_failures = true;
  }

  auto result = workloads::replay(*out.pfs, *deployment, trace, options);
  if (!result.is_ok()) {
    out.status = result.status();
    return out;
  }
  out.result = std::move(*result);
  return out;
}

void expect_stats_equal(const sim::ServerStats& a, const sim::ServerStats& b,
                        const std::string& where) {
  EXPECT_EQ(a.sub_requests, b.sub_requests) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.busy_time, b.busy_time) << where;
  EXPECT_EQ(a.queue_wait, b.queue_wait) << where;
  EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << where;
}

/// Asserts the two runs are observably identical: replay aggregates,
/// per-server and per-job ledgers, and every byte of every server's stores.
void expect_equivalent(const RunOutput& serial, const RunOutput& batched) {
  ASSERT_TRUE(serial.status.is_ok()) << serial.status.to_string();
  ASSERT_TRUE(batched.status.is_ok()) << batched.status.to_string();
  const workloads::ReplayResult& a = serial.result;
  const workloads::ReplayResult& b = batched.result;

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.late_requests, b.late_requests);

  ASSERT_EQ(a.server_stats.size(), b.server_stats.size());
  for (std::size_t s = 0; s < a.server_stats.size(); ++s) {
    expect_stats_equal(a.server_stats[s], b.server_stats[s],
                       "server " + std::to_string(s));
  }

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const qos::TenantLatency& ta = a.tenants[t];
    const qos::TenantLatency& tb = b.tenants[t];
    EXPECT_EQ(ta.requests, tb.requests) << "tenant " << t;
    EXPECT_EQ(ta.bytes, tb.bytes) << "tenant " << t;
    EXPECT_EQ(ta.goodput_bytes, tb.goodput_bytes) << "tenant " << t;
    EXPECT_EQ(ta.shed, tb.shed) << "tenant " << t;
    EXPECT_EQ(ta.failed, tb.failed) << "tenant " << t;
    EXPECT_EQ(ta.late, tb.late) << "tenant " << t;
  }

  // Per-job server ledgers and the byte-accurate content plane.
  ASSERT_EQ(serial.pfs->num_servers(), batched.pfs->num_servers());
  ASSERT_EQ(serial.pfs->mds().file_count(), batched.pfs->mds().file_count());
  for (std::size_t s = 0; s < serial.pfs->num_servers(); ++s) {
    const pfs::DataServer& sa = serial.pfs->data_server(s);
    const pfs::DataServer& sb = batched.pfs->data_server(s);
    const auto& rows_a = sa.sim().job_stats();
    const auto& rows_b = sb.sim().job_stats();
    ASSERT_EQ(rows_a.size(), rows_b.size()) << "server " << s;
    for (std::size_t j = 0; j < rows_a.size(); ++j) {
      const std::string where = "server " + std::to_string(s) + " job " + std::to_string(j);
      EXPECT_EQ(rows_a[j].sub_requests, rows_b[j].sub_requests) << where;
      EXPECT_EQ(rows_a[j].bytes_read, rows_b[j].bytes_read) << where;
      EXPECT_EQ(rows_a[j].bytes_written, rows_b[j].bytes_written) << where;
      EXPECT_EQ(rows_a[j].busy_time, rows_b[j].busy_time) << where;
      EXPECT_EQ(rows_a[j].queue_wait, rows_b[j].queue_wait) << where;
      EXPECT_EQ(rows_a[j].bytes_wasted, rows_b[j].bytes_wasted) << where;
    }
    for (common::FileId f = 0; f < serial.pfs->mds().file_count(); ++f) {
      const pfs::ExtentStore* store_a = sa.store(f);
      const pfs::ExtentStore* store_b = sb.store(f);
      ASSERT_EQ(store_a == nullptr, store_b == nullptr)
          << "server " << s << " file " << f;
      if (store_a == nullptr) continue;
      const std::string where = "server " + std::to_string(s) + " file " + std::to_string(f);
      EXPECT_EQ(store_a->stored_bytes(), store_b->stored_bytes()) << where;
      EXPECT_EQ(store_a->extent_count(), store_b->extent_count()) << where;
      ASSERT_EQ(store_a->end_offset(), store_b->end_offset()) << where;
      EXPECT_EQ(store_a->read(0, store_a->end_offset()),
                store_b->read(0, store_b->end_offset()))
          << where;
    }
  }
}

// --------------------------------------------------- replay-level sweeps

class BatchEquivalence : public ::testing::TestWithParam<ComboSpec> {};

TEST_P(BatchEquivalence, BatchedReplayMatchesSerial) {
  const ComboSpec combo = GetParam();
  const trace::Trace trace = make_trace(combo.workload);
  RunOutput serial = run_combo(combo, trace, /*batch_requests=*/false);
  RunOutput batched = run_combo(combo, trace, /*batch_requests=*/true);
  expect_equivalent(serial, batched);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, BatchEquivalence,
    ::testing::Values(
        ComboSpec{"DEF", "ior"}, ComboSpec{"MHA", "ior"}, ComboSpec{"MHA", "dlpipe"},
        ComboSpec{"DEF", "ior", sched::SchedulerKind::kLoadAware, true},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kHedgedRead, true},
        ComboSpec{"MHA", "dlpipe", sched::SchedulerKind::kLoadAware, true},
        ComboSpec{"DEF", "ior", sched::SchedulerKind::kFcfs, false, true, false},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, true, true},
        ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, false, true},
        ComboSpec{"MHA", "dlpipe", sched::SchedulerKind::kFcfs, false, true, true}),
    combo_name);

// Thread-count invariance: the same combos fanned out on an 8-thread pool
// must report the results the 1-thread loop above produced — replay is
// deterministic and the batch path shares nothing across cells.
TEST(BatchEquivalenceThreads, EightThreadPoolMatchesSerialLoop) {
  const std::vector<ComboSpec> combos = {
      ComboSpec{"DEF", "ior"},
      ComboSpec{"MHA", "dlpipe"},
      ComboSpec{"MHA", "ior", sched::SchedulerKind::kLoadAware, true},
      ComboSpec{"MHA", "ior", sched::SchedulerKind::kFcfs, false, true, true},
  };
  std::vector<RunOutput> serial;
  for (const ComboSpec& combo : combos) {
    serial.push_back(run_combo(combo, make_trace(combo.workload), true));
  }
  const std::size_t saved = exec::default_threads();
  exec::set_default_threads(8);
  auto pooled = exec::default_pool().parallel_map(combos.size(), [&](std::size_t i) {
    return run_combo(combos[i], make_trace(combos[i].workload), true);
  });
  exec::set_default_threads(saved);
  for (std::size_t i = 0; i < combos.size(); ++i) {
    expect_equivalent(serial[i], pooled[i]);
  }
}

// A zero allowance makes every completed request late: none of its bytes
// are goodput.  Pinned on both issue paths — per record and batched — since
// each keeps the replay's late/goodput ledger.
TEST(BatchReplayAccounting, ZeroAllowanceMakesEveryRequestLate) {
  const trace::Trace trace = make_trace("ior");
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per record");
    pfs::HybridPfs pfs(sim::ClusterConfig{});
    auto scheme = layouts::make_def();
    auto deployment = scheme->prepare(pfs, trace);
    ASSERT_TRUE(deployment.is_ok()) << deployment.status().to_string();
    workloads::ReplayOptions options;
    options.batch_requests = batched;
    options.goodput_allowance = {0.0, 0.0, 0.0};
    auto result = workloads::replay(pfs, *deployment, trace, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_GT(result->requests, 0u);
    EXPECT_EQ(result->late_requests, result->requests);
    EXPECT_EQ(result->goodput_bytes, 0u);
  }
}

// ------------------------------------------------ pfs-level direct tests

struct PfsWorld {
  pfs::HybridPfs pfs{sim::ClusterConfig{}};
  common::FileId file = 0;
  PfsWorld() { file = *pfs.create_file("direct.f"); }
};

pfs::BatchRequest make_req(common::FileId file, common::Offset offset,
                           common::ByteCount size, std::uint32_t group,
                           const std::uint8_t* write_data = nullptr,
                           std::uint8_t* read_out = nullptr) {
  pfs::BatchRequest r;
  r.file = file;
  r.offset = offset;
  r.size = size;
  r.group = group;
  r.write_data = write_data;
  r.read_out = read_out;
  return r;
}

TEST(BatchDirect, BadFileIdMatchesSerialStatus) {
  PfsWorld world;
  std::vector<std::uint8_t> data(4_KiB, 0x11);
  const common::Status serial =
      world.pfs.write(world.file + 1, 0, data.data(), data.size(), 0.0).status();
  ASSERT_FALSE(serial.is_ok());

  std::vector<pfs::BatchRequest> reqs = {
      make_req(world.file + 1, 0, data.size(), 0, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.is_ok());
  EXPECT_EQ(results[0].status.to_string(), serial.to_string());
  EXPECT_FALSE(results[0].skipped);
}

TEST(BatchDirect, GroupMembersAfterFailureAreSkipped) {
  PfsWorld world;
  std::vector<std::uint8_t> data(8_KiB, 0x22);
  // Group 0: a failing member (bad file) then a sibling that must be
  // skipped, never dispatched.  Group 1: an independent request that must
  // still land.
  std::vector<pfs::BatchRequest> reqs = {
      make_req(world.file + 7, 0, 4_KiB, 0, data.data()),
      make_req(world.file, 4_KiB, 4_KiB, 0, data.data()),
      make_req(world.file, 64_KiB, 4_KiB, 1, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].status.is_ok());
  EXPECT_TRUE(results[1].skipped);
  EXPECT_TRUE(results[1].status.is_ok());
  EXPECT_EQ(results[1].io.sub_requests, 0u);
  EXPECT_FALSE(results[2].skipped);
  EXPECT_TRUE(results[2].status.is_ok());
  EXPECT_GT(results[2].io.sub_requests, 0u);

  // The skipped member wrote nothing anywhere.
  common::ByteCount stored = 0;
  for (std::size_t s = 0; s < world.pfs.num_servers(); ++s) {
    stored += world.pfs.data_server(s).stored_bytes(world.file);
  }
  EXPECT_EQ(stored, 4_KiB);
}

TEST(BatchDirect, ZeroSizeRequestMatchesSerial) {
  PfsWorld world;
  std::vector<std::uint8_t> data(1, 0x33);
  auto serial = world.pfs.write(world.file, 0, data.data(), 0, 0.0);
  std::vector<pfs::BatchRequest> reqs = {make_req(world.file, 0, 0, 0, data.data())};
  pfs::BatchResultVec results;
  world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.is_ok(), serial.is_ok());
  if (serial.is_ok()) {
    EXPECT_EQ(results[0].io.sub_requests, serial->sub_requests);
    EXPECT_EQ(results[0].io.completion, serial->completion);
  }
}

TEST(BatchDirect, OverlappingWritesResolveInBatchOrder) {
  // Two same-batch writes overlapping by half: later-in-batch must win on
  // the overlap, exactly as two serial writes would.
  std::vector<std::uint8_t> first(8_KiB, 0xAA);
  std::vector<std::uint8_t> second(8_KiB, 0xBB);

  PfsWorld serial_world;
  (void)serial_world.pfs.write(serial_world.file, 0, first.data(), first.size(), 0.0);
  (void)serial_world.pfs.write(serial_world.file, 4_KiB, second.data(), second.size(),
                               0.0);

  PfsWorld batch_world;
  std::vector<pfs::BatchRequest> reqs = {
      make_req(batch_world.file, 0, first.size(), 0, first.data()),
      make_req(batch_world.file, 4_KiB, second.size(), 1, second.data())};
  pfs::BatchResultVec results;
  batch_world.pfs.write_batch(reqs, results);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.is_ok());
  ASSERT_TRUE(results[1].status.is_ok());

  ASSERT_EQ(serial_world.pfs.num_servers(), batch_world.pfs.num_servers());
  for (std::size_t s = 0; s < serial_world.pfs.num_servers(); ++s) {
    const pfs::ExtentStore* store_a = serial_world.pfs.data_server(s).store(serial_world.file);
    const pfs::ExtentStore* store_b = batch_world.pfs.data_server(s).store(batch_world.file);
    ASSERT_EQ(store_a == nullptr, store_b == nullptr) << "server " << s;
    if (store_a == nullptr) continue;
    ASSERT_EQ(store_a->end_offset(), store_b->end_offset()) << "server " << s;
    EXPECT_EQ(store_a->read(0, store_a->end_offset()),
              store_b->read(0, store_b->end_offset()))
        << "server " << s;
  }
}

TEST(BatchDirect, CorruptionFallsBackToSerialStatus) {
  // Seed identical content into two worlds, corrupt the same stored byte in
  // both, and compare the batched read (which verifies coalesced runs, then
  // redoes the batch request by request on failure) against serial reads.
  std::vector<std::uint8_t> data(256_KiB);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  PfsWorld serial_world;
  PfsWorld batch_world;
  (void)serial_world.pfs.write(serial_world.file, 0, data.data(), data.size(), 0.0);
  (void)batch_world.pfs.write(batch_world.file, 0, data.data(), data.size(), 0.0);
  for (pfs::HybridPfs* p : {&serial_world.pfs, &batch_world.pfs}) {
    pfs::ExtentStore* store = p->data_server(0).mutable_store(0);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->corrupt_flip(1024, 0x40));
  }

  std::vector<std::uint8_t> serial_out(data.size(), 0xEE);
  common::Status first_failure;
  common::Offset pos = 0;
  for (std::size_t i = 0; i < 4; ++i, pos += 64_KiB) {
    auto r = serial_world.pfs.read(serial_world.file, pos, serial_out.data() + pos,
                                   64_KiB, 0.0);
    if (!r.is_ok() && first_failure.is_ok()) first_failure = r.status();
  }
  ASSERT_FALSE(first_failure.is_ok());

  std::vector<std::uint8_t> batch_out(data.size(), 0xEE);
  std::vector<pfs::BatchRequest> reqs;
  for (std::size_t i = 0; i < 4; ++i) {
    reqs.push_back(make_req(batch_world.file, static_cast<common::Offset>(i) * 64_KiB,
                            64_KiB, static_cast<std::uint32_t>(i), nullptr,
                            batch_out.data() + i * 64_KiB));
  }
  pfs::BatchResultVec results;
  batch_world.pfs.read_batch(reqs, results);
  ASSERT_EQ(results.size(), 4u);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (!results[i].status.is_ok()) {
      ++failures;
      EXPECT_EQ(results[i].status.to_string(), first_failure.to_string());
    }
  }
  EXPECT_EQ(failures, 1u);
  // Bytes delivered are identical to the serial reads (including the
  // untouched destination of the failing request).
  EXPECT_EQ(batch_out, serial_out);
}

}  // namespace
}  // namespace mha
