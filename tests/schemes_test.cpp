// Layout schemes and the replayer, exercised together: data integrity under
// every scheme, and the paper's qualitative performance orderings.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "layouts/scheme.hpp"
#include "trace/analysis.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"
#include "workloads/replayer.hpp"

namespace mha::layouts {
namespace {

using common::OpType;
using namespace mha::common::literals;

sim::ClusterConfig paper_cluster() {
  sim::ClusterConfig c;
  c.num_hservers = 6;
  c.num_sservers = 2;
  return c;
}

trace::Trace small_mixed_trace(OpType op, const std::string& name = "mix.dat") {
  workloads::IorMixedSizesConfig config;
  config.num_procs = 8;
  config.request_sizes = {32_KiB, 128_KiB};
  config.file_size = 24_MiB;
  config.op = op;
  config.file_name = name;
  config.seed = 77;
  return workloads::ior_mixed_sizes(config);
}

// ------------------------------------------------------------ integrity ---

class SchemeIntegrityTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<LayoutScheme> make(const std::string& name) {
    if (name == "DEF") return make_def();
    if (name == "AAL") return make_aal();
    if (name == "HARL") return make_harl();
    return make_mha();
  }
};

// Every scheme must serve byte-identical data through its deployment, for
// both read-heavy and write-then-read flows (verified against a shadow).
TEST_P(SchemeIntegrityTest, ReadsVerifyAgainstShadow) {
  auto scheme = make(GetParam());
  workloads::ReplayOptions options;
  options.verify_data = true;
  auto result = workloads::run_scheme(*scheme, paper_cluster(),
                                      small_mixed_trace(OpType::kRead), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(result->bytes_read, 0u);
}

TEST_P(SchemeIntegrityTest, WritesThenReadsVerify) {
  auto scheme = make(GetParam());
  // Build a write trace, then append a read-back of every written extent.
  trace::Trace trace = small_mixed_trace(OpType::kWrite);
  const std::size_t writes = trace.records.size();
  double t = trace.records.back().t_start + 1.0;
  for (std::size_t i = 0; i < writes; ++i) {
    trace::TraceRecord r = trace.records[i];
    r.op = OpType::kRead;
    r.t_start = t;
    t += 1e-3;
    trace.records.push_back(r);
  }
  workloads::ReplayOptions options;
  options.verify_data = true;
  options.mode = workloads::ReplayMode::kSynchronous;
  auto result = workloads::run_scheme(*scheme, paper_cluster(), trace, options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->bytes_read, result->bytes_written);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeIntegrityTest,
                         ::testing::Values("DEF", "AAL", "HARL", "MHA"));

// ------------------------------------------------------------- ordering ---

double bandwidth(LayoutScheme& scheme, const trace::Trace& trace) {
  auto result = workloads::run_scheme(scheme, paper_cluster(), trace, {});
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result->aggregate_bandwidth : 0.0;
}

TEST(SchemeOrdering, MhaBeatsDefAndHarlOnPaperWorkload) {
  // The Fig. 7 shape: 32 processes, 128 KiB + 256 KiB mix.
  for (OpType op : {OpType::kRead, OpType::kWrite}) {
    workloads::IorMixedSizesConfig config;
    config.num_procs = 32;
    config.request_sizes = {128_KiB, 256_KiB};
    config.file_size = 64_MiB;
    config.op = op;
    config.file_name = "fig7.dat";
    const auto trace = workloads::ior_mixed_sizes(config);
    auto def = make_def();
    auto harl = make_harl();
    auto mha = make_mha();
    const double bw_def = bandwidth(*def, trace);
    const double bw_harl = bandwidth(*harl, trace);
    const double bw_mha = bandwidth(*mha, trace);
    EXPECT_GT(bw_mha, bw_def) << to_string(op);
    // MHA >= HARL up to simulator noise (the two tie when HARL's compromise
    // pair happens to match the per-class optima, as on 2x size mixes).
    EXPECT_GE(bw_mha, bw_harl * 0.97) << to_string(op);
    EXPECT_GT(bw_harl, bw_def) << to_string(op);
  }
}

TEST(SchemeOrdering, MhaNearHarlOnSmallMixedTrace) {
  // On tiny workloads MHA's per-region optimization cannot account for
  // cross-region SServer contention (Algorithm 2 optimizes each region in
  // isolation — a limitation inherited from the paper), so we only require
  // MHA to stay within a few percent of HARL while beating DEF.
  for (OpType op : {OpType::kRead, OpType::kWrite}) {
    auto trace = small_mixed_trace(op);
    auto def = make_def();
    auto harl = make_harl();
    auto mha = make_mha();
    const double bw_def = bandwidth(*def, trace);
    const double bw_harl = bandwidth(*harl, trace);
    const double bw_mha = bandwidth(*mha, trace);
    EXPECT_GT(bw_mha, bw_def) << to_string(op);
    EXPECT_GE(bw_mha, bw_harl * 0.94) << to_string(op);
    EXPECT_GT(bw_harl, bw_def * 0.95) << to_string(op);
  }
}

TEST(SchemeOrdering, MhaComparableToHarlOnUniformPattern) {
  // "MHA is comparable to HARL, because it degrades to HARL for uniform
  // access patterns."
  workloads::IorMixedSizesConfig config;
  config.num_procs = 8;
  config.request_sizes = {64_KiB};
  config.file_size = 16_MiB;
  config.file_name = "uniform.dat";
  const auto trace = workloads::ior_mixed_sizes(config);
  auto harl = make_harl();
  auto mha = make_mha();
  const double bw_harl = bandwidth(*harl, trace);
  const double bw_mha = bandwidth(*mha, trace);
  EXPECT_NEAR(bw_mha / bw_harl, 1.0, 0.15);
}

TEST(SchemeOrdering, MhaBeatsDefOnLanlPattern) {
  workloads::LanlConfig config;
  config.num_procs = 4;
  config.loops = 64;
  const auto trace = workloads::lanl_app2(config);
  auto def = make_def();
  auto mha = make_mha();
  EXPECT_GT(bandwidth(*mha, trace), bandwidth(*def, trace));
}

// ------------------------------------------------------------- replayer ---

TEST(Replayer, EmptyTraceRejected) {
  auto def = make_def();
  trace::Trace empty;
  empty.file_name = "f";
  EXPECT_FALSE(workloads::run_scheme(*def, paper_cluster(), empty, {}).is_ok());
}

TEST(Replayer, ModesAgreeOnBytes) {
  const auto trace = small_mixed_trace(OpType::kWrite);
  auto def_a = make_def();
  auto def_b = make_def();
  workloads::ReplayOptions sync;
  sync.mode = workloads::ReplayMode::kSynchronous;
  workloads::ReplayOptions indep;
  indep.mode = workloads::ReplayMode::kIndependent;
  auto a = workloads::run_scheme(*def_a, paper_cluster(), trace, sync);
  auto b = workloads::run_scheme(*def_b, paper_cluster(), trace, indep);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->bytes_written, b->bytes_written);
  EXPECT_EQ(a->requests, b->requests);
  // Independent mode never waits at barriers, so it cannot be slower.
  EXPECT_LE(b->makespan, a->makespan + 1e-9);
}

TEST(Replayer, ServerStatsCoverAllServers) {
  const auto trace = small_mixed_trace(OpType::kWrite);
  auto def = make_def();
  auto result = workloads::run_scheme(*def, paper_cluster(), trace, {});
  ASSERT_TRUE(result.is_ok());
  ASSERT_EQ(result->server_stats.size(), 8u);
  common::ByteCount total = 0;
  for (const auto& st : result->server_stats) total += st.bytes_total();
  EXPECT_EQ(total, result->bytes_written);
}

TEST(Replayer, TraceRunCapturesApplicationTrace) {
  const auto trace = small_mixed_trace(OpType::kWrite);
  auto def = make_def();
  workloads::ReplayOptions options;
  options.trace_run = true;
  options.tracer_overhead = 1e-5;
  auto result = workloads::run_scheme(*def, paper_cluster(), trace, options);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->captured.records.size(), trace.records.size());
  EXPECT_EQ(result->captured.file_name, trace.file_name);
  // Captured durations are positive (virtual service time).
  EXPECT_GT(result->captured.records.front().duration, 0.0);
}

TEST(Replayer, CapturedTraceDrivesPipeline) {
  // The full paper workflow: profile run under DEF, feed the captured trace
  // to MHA, replay faster.
  const auto trace = small_mixed_trace(OpType::kWrite);
  auto def = make_def();
  workloads::ReplayOptions profiling;
  profiling.trace_run = true;
  auto first_run = workloads::run_scheme(*def, paper_cluster(), trace, profiling);
  ASSERT_TRUE(first_run.is_ok());

  auto mha = make_mha();
  auto second_run = workloads::run_scheme(*mha, paper_cluster(), first_run->captured, {});
  ASSERT_TRUE(second_run.is_ok()) << second_run.status().to_string();
  EXPECT_GT(second_run->aggregate_bandwidth, first_run->aggregate_bandwidth);
}

TEST(PopulateByte, DeterministicAndSpread) {
  EXPECT_EQ(populate_byte(0), populate_byte(0));
  int distinct = 0;
  std::set<std::uint8_t> seen;
  for (common::Offset o = 0; o < 1000; ++o) seen.insert(populate_byte(o));
  distinct = static_cast<int>(seen.size());
  EXPECT_GT(distinct, 100);  // not a constant pattern
}

TEST(PopulateByte, BlockFillsMatchPerByteFormsPastFourGiB) {
  // The fills carry a 32-bit accumulator; the bytes must still match the
  // 64-bit per-byte forms where the offset no longer fits 32 bits.
  for (const common::Offset start : {common::Offset{0}, common::Offset{4_GiB - 7},
                                     common::Offset{(1ULL << 40) + 3}}) {
    std::vector<std::uint8_t> plain(300), replay(300);
    populate_fill(start, plain.data(), plain.size());
    workloads::replay_write_fill(start, replay.data(), replay.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(plain[i], populate_byte(start + i)) << start << "+" << i;
      ASSERT_EQ(replay[i], workloads::replay_write_byte(start + i)) << start << "+" << i;
    }
  }
}

// ------------------------------------------------------ scheme specifics ---

TEST(SchemeSpecifics, DefUsesFixed64KStripesEverywhere) {
  pfs::HybridPfs pfs(paper_cluster());
  auto def = make_def();
  const auto trace = small_mixed_trace(OpType::kWrite);
  ASSERT_TRUE(def->prepare(pfs, trace).is_ok());
  const auto& info = pfs.mds().info(*pfs.mds().lookup(trace.file_name));
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    EXPECT_EQ(info.layout.width(i), pfs::kDefaultStripe);
  }
}

TEST(SchemeSpecifics, AalStripeTracksMeanRequestSize) {
  // AAL: uniform stripe = mean request size / server count (4 KiB floor).
  pfs::HybridPfs pfs(paper_cluster());
  auto aal = make_aal();
  workloads::IorMixedSizesConfig config;
  config.num_procs = 4;
  config.request_sizes = {256_KiB};  // mean 256 KiB / 8 servers = 32 KiB
  config.file_size = 8_MiB;
  config.file_name = "aal.dat";
  const auto trace = workloads::ior_mixed_sizes(config);
  ASSERT_TRUE(aal->prepare(pfs, trace).is_ok());
  const auto& info = pfs.mds().info(*pfs.mds().lookup("aal.dat"));
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    EXPECT_EQ(info.layout.width(i), 32_KiB);  // heterogeneity-blind: uniform
  }
}

TEST(SchemeSpecifics, HarlCreatesOffsetRegionFiles) {
  pfs::HybridPfs pfs(paper_cluster());
  auto harl = make_harl();
  const auto trace = small_mixed_trace(OpType::kWrite);
  auto deployment = harl->prepare(pfs, trace);
  ASSERT_TRUE(deployment.is_ok());
  ASSERT_NE(deployment->interceptor, nullptr);
  std::size_t regions = 0;
  for (const std::string& name : pfs.mds().list_files()) {
    if (name.find(".harl.r") != std::string::npos) ++regions;
  }
  EXPECT_GE(regions, 2u);
  EXPECT_NE(deployment->description.find("offset regions"), std::string::npos);
}

TEST(SchemeSpecifics, MhaOptionsPropagate) {
  pfs::HybridPfs pfs(paper_cluster());
  core::MhaOptions options;
  options.reorganizer.region_suffix = ".custom.r";
  auto mha = make_mha(options);
  const auto trace = small_mixed_trace(OpType::kWrite);
  ASSERT_TRUE(mha->prepare(pfs, trace).is_ok());
  bool saw_custom = false;
  for (const std::string& name : pfs.mds().list_files()) {
    if (name.find(".custom.r") != std::string::npos) saw_custom = true;
  }
  EXPECT_TRUE(saw_custom);
}

TEST(SchemeSpecifics, PrepareFailsOnPreexistingFile) {
  pfs::HybridPfs pfs(paper_cluster());
  const auto trace = small_mixed_trace(OpType::kWrite);
  ASSERT_TRUE(pfs.create_file(trace.file_name).is_ok());
  for (auto& scheme : all_schemes()) {
    EXPECT_FALSE(scheme->prepare(pfs, trace).is_ok()) << scheme->name();
  }
}

TEST(SchemeSpecifics, CarlPlacesHotRegionsSsdOnlyAndStaysConsistent) {
  // Integrity under the exclusive-tier placement.
  auto carl = make_carl(0.5);
  workloads::ReplayOptions verify;
  verify.verify_data = true;
  auto result = workloads::run_scheme(*carl, paper_cluster(),
                                      small_mixed_trace(OpType::kRead), verify);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  // The paper's criticism (§VI): CARL's exclusive tiers waste parallelism,
  // so MHA must beat it on the same workload.
  auto trace = small_mixed_trace(OpType::kWrite);
  auto carl2 = make_carl(0.5);
  auto mha = make_mha();
  EXPECT_GT(bandwidth(*mha, trace), bandwidth(*carl2, trace));
}

TEST(AllSchemesFactory, ReturnsPaperOrder) {
  const auto schemes = all_schemes();
  ASSERT_EQ(schemes.size(), 4u);
  EXPECT_EQ(schemes[0]->name(), "DEF");
  EXPECT_EQ(schemes[1]->name(), "AAL");
  EXPECT_EQ(schemes[2]->name(), "HARL");
  EXPECT_EQ(schemes[3]->name(), "MHA");
}

}  // namespace
}  // namespace mha::layouts
