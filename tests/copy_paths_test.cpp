// Every bulk-copy path, pinned: the Placer's migration and replica fill,
// OnlineMha's fold-back, recover_migration's roll-forward and fold-back, and
// the rebuilder's throttled pump and switch-time dirty re-copy.
//
// Each path runs on a tiny 2H+2S cluster whose devices make every instant
// matter (a queued HDD access pays a quarter of the seek, so busy time moves
// with the issue instants, and queue wait moves with them too).  The
// expected values are exact, doubles included: a copy is the same reads and
// writes at the same instants whatever code issues them, so any difference
// is a moved timeline, not rounding.  Entries span several chunks of every
// chunk size in use (the Placer's configured one, the 4 MiB default of the
// other off-line paths, the rebuilder's), each with a short last chunk.
//
// The resume cases check that a copy interrupted mid-task continues from
// its journaled byte progress rather than from the task's start.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/online.hpp"
#include "core/placer.hpp"
#include "core/recovery.hpp"
#include "core/redirector.hpp"
#include "fault/journal.hpp"
#include "io/mpi_file.hpp"
#include "layouts/scheme.hpp"
#include "repair/membership.hpp"
#include "repair/rebuilder.hpp"

namespace mha {
namespace {

using common::OpType;
using namespace common::literals;

std::string temp_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return testing::TempDir() + "copy_paths_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".db";
}

sim::ClusterConfig tiny_cluster() {
  sim::DeviceProfile hdd;
  hdd.name = "hdd";
  hdd.startup_read = 4e-3;
  hdd.startup_write = 6e-3;
  hdd.per_byte_read = 1e-8;
  hdd.per_byte_write = 1.5e-8;
  hdd.queued_startup_factor = 0.25;
  sim::DeviceProfile ssd;
  ssd.name = "ssd";
  ssd.startup_read = 1e-4;
  ssd.startup_write = 2e-4;
  ssd.per_byte_read = 2e-9;
  ssd.per_byte_write = 4e-9;
  ssd.queued_startup_factor = 1.0;
  sim::ClusterConfig config;
  config.num_hservers = 2;
  config.num_sservers = 2;
  config.hdd = hdd;
  config.ssd = ssd;
  config.network = sim::null_network();
  return config;
}

/// One server's (or one job's share of one server's) counters.
struct ServerRow {
  std::uint64_t sub_requests = 0;
  common::ByteCount bytes_read = 0;
  common::ByteCount bytes_written = 0;
  common::Seconds busy_time = 0.0;
  common::Seconds queue_wait = 0.0;

  friend bool operator==(const ServerRow&, const ServerRow&) = default;
};

/// Prints a row as the initializer that would expect it (17 significant
/// digits, so a printed double reads back bit-identical).
void PrintTo(const ServerRow& row, std::ostream* os) {
  char text[160];
  std::snprintf(text, sizeof text, "{%llu, %llu, %llu, %.17g, %.17g}",
                static_cast<unsigned long long>(row.sub_requests),
                static_cast<unsigned long long>(row.bytes_read),
                static_cast<unsigned long long>(row.bytes_written), row.busy_time,
                row.queue_wait);
  *os << text;
}

std::vector<ServerRow> server_rows(const pfs::HybridPfs& pfs) {
  std::vector<ServerRow> rows;
  for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
    const sim::ServerStats& stats = pfs.server_stats(s);
    rows.push_back(ServerRow{stats.sub_requests, stats.bytes_read, stats.bytes_written,
                             stats.busy_time, stats.queue_wait});
  }
  return rows;
}

std::vector<ServerRow> job_rows(pfs::HybridPfs& pfs, common::JobId job) {
  std::vector<ServerRow> rows;
  for (std::size_t s = 0; s < pfs.num_servers(); ++s) {
    const sim::JobServerStats& stats = pfs.data_server(s).sim().job_stats(job);
    rows.push_back(ServerRow{stats.sub_requests, stats.bytes_read, stats.bytes_written,
                             stats.busy_time, stats.queue_wait});
  }
  return rows;
}

std::vector<std::uint8_t> pattern(common::Offset offset, common::ByteCount size) {
  std::vector<std::uint8_t> out(size);
  layouts::populate_fill(offset, out.data(), size);
  return out;
}

core::DrtEntry drt_entry(common::Offset o_offset, common::ByteCount length, const char* r_file,
                         common::Offset r_offset) {
  core::DrtEntry e;
  e.o_offset = o_offset;
  e.length = length;
  e.r_file = r_file;
  e.r_offset = r_offset;
  return e;
}

core::Region region(const char* name, common::ByteCount length) {
  core::Region r;
  r.name = name;
  r.length = length;
  return r;
}

// ------------------------------------------------------------ the world ---

/// "orig" holds 6 MiB; the plan moves five of its ranges into three
/// regions.  r0 and r1 have HServer stripes (hot: replicate_hot copies them
/// onto an SServer), r2 is SServer-only (cold).  Entry 4 is 5 MiB: several
/// chunks at 1.5 MiB (Placer), 4 MiB (recovery) and 128 KiB (rebuilder).
class CopyPaths : public ::testing::Test {
 protected:
  static constexpr common::ByteCount kOriginal = 6_MiB;
  static constexpr common::JobId kRebuildJob = 7;

  void SetUp() override {
    journal_path_ = temp_path("journal");
    pfs_ = std::make_unique<pfs::HybridPfs>(tiny_cluster());
    original_ = *pfs_->create_file("orig");
    ASSERT_TRUE(layouts::populate_file(*pfs_, original_, kOriginal).is_ok());

    plan_.drt = core::Drt("orig");
    plan_.regions = {region("orig.mha.r0", 192_KiB), region("orig.mha.r1", 5_MiB),
                     region("orig.mha.r2", 64_KiB)};
    for (const core::DrtEntry& entry :
         {drt_entry(0, 64_KiB, "orig.mha.r0", 128_KiB),
          drt_entry(256_KiB, 64_KiB, "orig.mha.r0", 0),
          drt_entry(448_KiB, 64_KiB, "orig.mha.r0", 64_KiB),
          drt_entry(512_KiB, 64_KiB, "orig.mha.r2", 0),
          drt_entry(1_MiB, 5_MiB, "orig.mha.r1", 0)}) {
      ASSERT_TRUE(plan_.drt.insert(entry).is_ok());
    }
    Quiesce();
  }
  void TearDown() override { std::remove(journal_path_.c_str()); }

  /// Starts a fresh measurement window: empty queues at t=0, zero stats.
  void Quiesce() {
    pfs_->reset_stats();
    pfs_->reset_clocks();
  }

  /// Journaled, replicating placement with a 1.5 MiB chunk, aborted at
  /// `crash_site` when one is given.
  common::Result<core::PlacementReport> Place(const std::string& crash_site = {}) {
    fault::MigrationJournal journal;
    MHA_RETURN_IF_ERROR(journal.open(journal_path_));
    core::ApplyOptions options;
    options.chunk = 1536_KiB;
    options.journal = &journal;
    options.replicate_hot = true;
    options.crash_at = [crash_site](std::string_view point) { return point == crash_site; };
    return core::Placer::apply(*pfs_, plan_,
                               {core::StripePair{16_KiB, 48_KiB},
                                core::StripePair{16_KiB, 48_KiB}, core::StripePair{0, 32_KiB}},
                               options);
  }

  core::RecoveryReport Recover() {
    fault::MigrationJournal journal;
    EXPECT_TRUE(journal.open(journal_path_).is_ok());
    auto recovery = core::recover_migration(*pfs_, journal);
    EXPECT_TRUE(recovery.is_ok()) << recovery.status().to_string();
    return recovery.is_ok() ? std::move(recovery).take() : core::RecoveryReport{};
  }

  /// Every range `drt` maps holds its origin bytes.
  void ExpectRegionsHoldOrigin(const core::Drt& drt) {
    for (const core::DrtEntry& entry : drt.entries()) {
      auto region = pfs_->open(entry.r_file);
      ASSERT_TRUE(region.is_ok()) << entry.r_file;
      EXPECT_EQ(*pfs_->read_bytes(*region, entry.r_offset, entry.length, 0.0),
                pattern(entry.o_offset, entry.length))
          << entry.r_file << " @" << entry.r_offset;
    }
  }

  std::string journal_path_;
  std::unique_ptr<pfs::HybridPfs> pfs_;
  common::FileId original_ = common::kInvalidFileId;
  core::ReorganizePlan plan_;
};

// ------------------------------------------------------------ timelines ---

TEST_F(CopyPaths, PlacerMigrationAndReplicaFillTimeline) {
  auto report = Place();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->bytes_migrated, 192_KiB + 5_MiB + 64_KiB);
  EXPECT_EQ(report->replicas_created, 2u);
  EXPECT_EQ(report->bytes_replicated, 192_KiB + 5_MiB);
  EXPECT_EQ(report->migration_time, 0.13999318400000002);
  EXPECT_EQ(server_rows(*pfs_), (std::vector<ServerRow>{
                                    {18, 2195456, 688128, 0.11627648, 0},
                                    {15, 1998848, 688128, 0.1023104, 0},
                                    {18, 3358720, 2277376, 0.018526944000000004, 0},
                                    {20, 3391488, 7290880, 0.038946495999999997, 0},
                                }));
  ExpectRegionsHoldOrigin(plan_.drt);
}

TEST_F(CopyPaths, RecoveryRollForwardAndFoldBackTimeline) {
  // Roll forward: placement crashed once entry 1 was copied, so recovery
  // copies entries 2, 3 and 4 (the last in a 4 MiB and a 1 MiB chunk).
  ASSERT_FALSE(Place("copied-entry-1").is_ok());
  Quiesce();
  const core::RecoveryReport forward = Recover();
  EXPECT_EQ(forward.action, core::RecoveryAction::kRolledForward);
  EXPECT_EQ(forward.bytes_copied, 64_KiB + 64_KiB + 5_MiB);
  EXPECT_EQ(server_rows(*pfs_), (std::vector<ServerRow>{
                                    {5, 1376256, 655360, 0.047592959999999997, 0},
                                    {4, 1310720, 655360, 0.042937599999999999, 0},
                                    {6, 1310720, 2015232, 0.011682368000000002, 0},
                                    {7, 1376256, 2048000, 0.012044512000000002, 0},
                                }));
  ExpectRegionsHoldOrigin(forward.drt);

  // Fold back: a fold-back journaled over the migrated state and then
  // interrupted before any copy; recovery copies every entry back.
  {
    fault::MigrationJournal journal;
    ASSERT_TRUE(journal.open(journal_path_).is_ok());
    std::vector<fault::JournalRegion> regions;
    for (const core::Region& r : plan_.regions) {
      auto id = pfs_->open(r.name);
      ASSERT_TRUE(id.is_ok());
      regions.push_back(fault::JournalRegion{r.name, pfs_->mds().info(*id).layout.widths()});
    }
    std::vector<fault::JournalEntry> entries;
    for (const core::DrtEntry& e : plan_.drt.entries()) {
      entries.push_back(fault::JournalEntry{e.o_offset, e.length, e.r_file, e.r_offset});
    }
    ASSERT_TRUE(journal.begin_foldback("orig", std::move(regions), std::move(entries)).is_ok());
  }
  Quiesce();
  const core::RecoveryReport back = Recover();
  EXPECT_EQ(back.action, core::RecoveryAction::kFoldedBack);
  EXPECT_EQ(back.bytes_copied, 192_KiB + 5_MiB + 64_KiB);
  EXPECT_EQ(server_rows(*pfs_), (std::vector<ServerRow>{
                                    {9, 688128, 1507328, 0.075491199999999994, 0},
                                    {6, 688128, 1310720, 0.054542079999999993, 0},
                                    {8, 2080768, 1310720, 0.010404416, 0},
                                    {7, 2048000, 1376256, 0.010601023999999999, 0},
                                }));
  EXPECT_EQ(*pfs_->read_bytes(original_, 0, kOriginal, 0.0), pattern(0, kOriginal));
}

TEST_F(CopyPaths, RebuildPumpAndDirtyRecopyTimeline) {
  auto placed = Place();
  ASSERT_TRUE(placed.is_ok()) << placed.status().to_string();
  for (const auto& [primary, replica] : placed->replica_pairs) {
    ASSERT_TRUE(plan_.drt.set_replica(primary, replica).is_ok());
  }
  auto redirector = core::Redirector::create(*pfs_, plan_.drt);
  ASSERT_TRUE(redirector.is_ok());
  repair::Membership membership(pfs_->num_servers());
  pfs_->set_membership(&membership);
  Quiesce();

  // HServer 0 dies: r0 and r1 are re-homed from their live stripes plus
  // their replicas, paced at 8 MiB/s in 128 KiB chunks under job 7.
  repair::kill_server(membership, *pfs_, 0, 0.0);
  repair::RebuildOptions options;
  options.chunk = 128_KiB;
  options.rate = 8.0 * 1024 * 1024;
  options.job = kRebuildJob;
  repair::Rebuilder rebuilder(*pfs_, *redirector, membership, journal_path_, options);
  ASSERT_TRUE(rebuilder.plan(0.0).is_ok());

  std::vector<common::Seconds> issues;
  for (const common::Seconds now : {0.0, 0.05, 0.1, 0.4}) {
    ASSERT_TRUE(rebuilder.step(now).is_ok());
    issues.push_back(rebuilder.next_issue());
  }
  ASSERT_FALSE(rebuilder.done());

  // A client write races the copy and dirties entry 0 (r0 @ 128 KiB), so
  // the switch re-copies that entry at its quiescent instant.
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(*pfs_, mpi, "orig");
  ASSERT_TRUE(file.is_ok());
  file->set_interceptor(&*redirector);
  const std::vector<std::uint8_t> data = pattern(0, 8_KiB);
  ASSERT_TRUE(file->write_at(0, 0, data.data(), data.size()).is_ok());

  ASSERT_TRUE(rebuilder.run_to_completion(0.4).is_ok());
  ASSERT_TRUE(rebuilder.done());
  issues.push_back(rebuilder.next_issue());

  const repair::RebuildReport& report = rebuilder.report();
  EXPECT_EQ(report.primaries_rebuilt, 2u);
  EXPECT_EQ(report.bytes_copied, 192_KiB + 5_MiB);
  EXPECT_EQ(report.bytes_recopied, 64_KiB);
  EXPECT_EQ(issues, (std::vector<common::Seconds>{0.015625, 0.0546875, 0.1015625, 0.4140625,
                                                  0.6484375}));
  EXPECT_EQ(report.finished_at, 0.65299794799999999);
  EXPECT_EQ(server_rows(*pfs_), (std::vector<ServerRow>{
                                    {0, 0, 0, 0, 0},
                                    {84, 704512, 786432, 0.43684159999999927, 0},
                                    {87, 2129920, 2416640, 0.027026399999999996,
                                     0.40306148399999997},
                                    {84, 2670592, 2310144, 0.027281759999999985, 0},
                                }));
  EXPECT_EQ(job_rows(*pfs_, kRebuildJob), (std::vector<ServerRow>{
                                              {0, 0, 0, 0, 0},
                                              {84, 704512, 786432, 0.43684159999999927, 0},
                                              {86, 2129920, 2408448, 0.026793631999999994, 0},
                                              {84, 2670592, 2310144, 0.027281759999999985, 0},
                                          }));
  ExpectRegionsHoldOrigin(redirector->drt());
}

/// OnlineMha's fold-back is private; the second adapt_now() reaches it (fold
/// the first layout back, then place the second).  The trace's 5 MiB reads
/// make 5 MiB DRT entries, so the fold-back copies them in 4 MiB chunks.
TEST(CopyPathsOnline, FoldBackTimeline) {
  const std::string journal_path = temp_path("online");
  pfs::HybridPfs pfs(tiny_cluster());
  trace::Trace trace;
  trace.file_name = "dyn";
  double t = 0.0;
  for (int loop = 0; loop < 2; ++loop) {
    for (int rank = 0; rank < 4; ++rank) {
      const common::Offset base = static_cast<common::Offset>(loop * 4 + rank) * (5_MiB + 16);
      trace::TraceRecord small;
      small.rank = rank;
      small.op = OpType::kRead;
      small.offset = base;
      small.size = 16;
      small.t_start = t;
      trace::TraceRecord large = small;
      large.offset = base + 16;
      large.size = 5_MiB;
      large.t_start = t + 0.01;
      trace.records.push_back(small);
      trace.records.push_back(large);
    }
    t += 0.02;
  }
  const common::ByteCount extent = trace::extent_end(trace.records);
  auto original = pfs.create_file("dyn");
  ASSERT_TRUE(original.is_ok());
  ASSERT_TRUE(layouts::populate_file(pfs, *original, extent).is_ok());

  core::OnlineOptions options;
  options.window = 64;
  options.min_records = 8;
  options.mha.journal_path = journal_path;
  auto online = core::OnlineMha::create(pfs, "dyn", options);
  ASSERT_TRUE(online.is_ok());
  for (const trace::TraceRecord& r : trace.records) (*online)->observe(r);
  ASSERT_TRUE((*online)->adapt_now().is_ok());
  pfs.reset_stats();
  pfs.reset_clocks();
  ASSERT_TRUE((*online)->adapt_now().is_ok());
  EXPECT_EQ((*online)->adaptations(), 2u);
  EXPECT_EQ(server_rows(pfs), (std::vector<ServerRow>{
                                  {64, 12222592, 12222592, 0.62256479999999981,
                                   0.36903283200000003},
                                  {48, 12222464, 12222464, 0.54556159999999987, 0},
                                  {64, 29720704, 29720704, 0.18792422400000003, 0},
                                  {64, 29720576, 29720576, 0.18792345599999993, 0},
                              }));
  EXPECT_EQ(*pfs.read_bytes(*original, 0, extent, 0.0), pattern(0, extent));
  std::remove(journal_path.c_str());
}

// --------------------------------------------------------------- resume ---

/// A rebuild dropped after one throttled step resumes from the journaled
/// progress of its first task: the fresh rebuilder copies the rest only.
TEST_F(CopyPaths, RebuilderResumesAfterOneThrottledStep) {
  auto placed = Place();
  ASSERT_TRUE(placed.is_ok()) << placed.status().to_string();
  for (const auto& [primary, replica] : placed->replica_pairs) {
    ASSERT_TRUE(plan_.drt.set_replica(primary, replica).is_ok());
  }
  auto redirector = core::Redirector::create(*pfs_, plan_.drt);
  ASSERT_TRUE(redirector.is_ok());
  repair::Membership membership(pfs_->num_servers());
  pfs_->set_membership(&membership);
  repair::kill_server(membership, *pfs_, 0, 0.0);

  repair::RebuildOptions options;
  options.chunk = 64_KiB;
  options.rate = 64.0 * 1024;  // one chunk per virtual second
  {
    repair::Rebuilder rebuilder(*pfs_, *redirector, membership, journal_path_, options);
    ASSERT_TRUE(rebuilder.plan(1.0).is_ok());
    ASSERT_TRUE(rebuilder.step(1.0).is_ok());
    EXPECT_EQ(rebuilder.report().bytes_copied, 64_KiB);
  }
  repair::Rebuilder resumed(*pfs_, *redirector, membership, journal_path_, options);
  ASSERT_TRUE(resumed.resume(2.0).is_ok());
  ASSERT_TRUE(resumed.run_to_completion(2.0).is_ok());
  ASSERT_TRUE(resumed.done());
  EXPECT_EQ(resumed.report().bytes_copied, 192_KiB + 5_MiB - 64_KiB);
  ExpectRegionsHoldOrigin(redirector->drt());
}

}  // namespace
}  // namespace mha
