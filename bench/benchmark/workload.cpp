#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32.hpp"
#include "guard/chaos.hpp"
#include "io/mpi_file.hpp"
#include "qos/job_fair.hpp"
#include "workloads/apps.hpp"
#include "workloads/btio.hpp"
#include "workloads/dlpipe.hpp"

namespace mha::benchmark {

namespace {

constexpr common::ByteCount kMiB = 1024 * 1024;

// The chaos fault schedule (the guard/chaos cell's): every HServer browns out
// x6 from t=0.02 s for good, and HServers 1 and 4 also drop 25% of their
// sub-requests.
constexpr common::Seconds kChaosStart = 0.02;
constexpr common::Seconds kForever = 1e9;
constexpr double kBrownoutFactor = 6.0;
constexpr double kTransientProbability = 0.25;

constexpr std::uint64_t kDlProfileSeed = 1;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

guard::ChaosOptions chaos_options(const WorkloadConfig& config) {
  guard::ChaosOptions options;
  options.load = config.smoke ? 1.0 : 4.0;
  options.scale = config.smoke ? 0.05 : 1.0;
  options.seed = config.seed;
  return options;
}

trace::Trace make_trace(const WorkloadConfig& config,
                        std::unique_ptr<qos::MultiTenantDriver>* tenants) {
  switch (config.id) {
    case WorkloadId::kCkptLanl: {
      workloads::LanlConfig lanl;
      lanl.num_procs = 8;
      lanl.loops = config.smoke ? 4 : 48;
      return workloads::lanl_app2(lanl);
    }
    case WorkloadId::kDlShuffle: {
      workloads::DlPipeConfig dl =
          workloads::dl_resnet(8, (config.smoke ? 2 : 16) * kMiB, config.seed);
      dl.epochs = config.smoke ? 2 : 8;
      return workloads::dl_pipeline(dl);
    }
    case WorkloadId::kBtioCached: {
      workloads::BtioConfig btio;
      btio.num_procs = config.smoke ? 9 : 16;
      btio.time_steps = config.smoke ? 4 : 40;
      btio.scale = config.smoke ? 1024 : 128;
      return workloads::btio(btio);
    }
    case WorkloadId::kChaosQos: {
      *tenants =
          std::make_unique<qos::MultiTenantDriver>(guard::chaos_tenants(chaos_options(config)));
      return (*tenants)->combined_trace();
    }
  }
  return {};
}

/// Appends "name=<hex double>" so equal text means bit-identical values.
void put(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%a ", name, v);
  out += buf;
}

void put(std::string& out, const char* name, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 " ", name, v);
  out += buf;
}

template <typename Stats>
void put_stats(std::string& out, const Stats& s) {
  put(out, "subs", static_cast<std::uint64_t>(s.sub_requests));
  put(out, "rd", static_cast<std::uint64_t>(s.bytes_read));
  put(out, "wr", static_cast<std::uint64_t>(s.bytes_written));
  put(out, "busy", s.busy_time);
  put(out, "wait", s.queue_wait);
  put(out, "wasted", static_cast<std::uint64_t>(s.bytes_wasted));
}

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Merged [begin, end) extents of every write in the trace.
std::vector<std::pair<common::Offset, common::Offset>> written_extents(const trace::Trace& t) {
  std::vector<std::pair<common::Offset, common::Offset>> extents;
  for (const trace::TraceRecord& r : t.records) {
    if (r.op == common::OpType::kWrite && r.size > 0) {
      extents.emplace_back(r.offset, r.offset + r.size);
    }
  }
  std::sort(extents.begin(), extents.end());
  std::vector<std::pair<common::Offset, common::Offset>> merged;
  for (const auto& e : extents) {
    if (!merged.empty() && e.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, e.second);
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

}  // namespace

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kCkptLanl:
      return "ckpt_lanl_mha";
    case WorkloadId::kDlShuffle:
      return "dl_shuffle_mha";
    case WorkloadId::kBtioCached:
      return "btio_cached_def";
    case WorkloadId::kChaosQos:
      return "chaos_qos_mha";
  }
  return "?";
}

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (WorkloadId id : kAllWorkloads) {
    if (name == workload_name(id)) return id;
  }
  return std::nullopt;
}

bool byte_accurate(WorkloadId id) { return id != WorkloadId::kChaosQos; }

bool uses_mha(WorkloadId id) { return id != WorkloadId::kBtioCached; }

sim::ClusterConfig cluster_config() {
  sim::ClusterConfig cluster;
  cluster.num_hservers = 6;
  cluster.num_sservers = 2;
  return cluster;
}

common::Result<World> build_world(const WorkloadConfig& config, bool store_data,
                                  SetupTiming* timing) {
  const auto start = std::chrono::steady_clock::now();
  World world;
  world.trace = make_trace(config, &world.tenants);
  // DL: MHA plans from the trace of a profiling run with a fixed shuffle
  // seed, and the passes replay this run's shuffle — the paper's trace once,
  // run many workflow.  Planned on each seed's own shuffle, MHA flips between
  // two stripe plans from seed to seed, and host cost with it.
  trace::Trace profile;
  if (config.id == WorkloadId::kDlShuffle) {
    WorkloadConfig profiling = config;
    profiling.seed = kDlProfileSeed;
    profile = make_trace(profiling, nullptr);
  }
  const trace::Trace& plan_trace = profile.records.empty() ? world.trace : profile;
  const double trace_s = seconds_since(start);
  if (world.trace.records.empty()) return common::Status::invalid_argument("empty trace");

  pfs::PfsOptions pfs_options;
  pfs_options.store_data = store_data;
  world.pfs = std::make_unique<pfs::HybridPfs>(cluster_config(), pfs_options);
  auto scheme = uses_mha(config.id) ? layouts::make_mha() : layouts::make_def();
  auto deployment = scheme->prepare(*world.pfs, plan_trace);
  if (!deployment.is_ok()) return deployment.status();
  world.deployment = std::move(deployment).take();
  if (timing != nullptr) {
    timing->trace_s = trace_s;
    timing->total_s = seconds_since(start);
  }
  return world;
}

PassControls::PassControls(const WorkloadConfig& config, const World& world, bool verify) {
  options_.mode = workloads::ReplayMode::kSynchronous;
  // LANL only writes, so its check is the read-back; chaos stores no bytes.
  options_.verify_data = verify && (config.id == WorkloadId::kDlShuffle ||
                                    config.id == WorkloadId::kBtioCached);
  if (config.id == WorkloadId::kBtioCached) {
    // The default config is the write-back pool the workload is defined
    // with: 256 x 64 KiB pages, half of BTIO's file.
    cache_.emplace();
    options_.cache = &*cache_;
    options_.cache_metrics = &cache_metrics_;
  }
  if (config.id == WorkloadId::kChaosQos) {
    const sim::ClusterConfig cluster = cluster_config();
    const std::size_t servers = cluster.num_hservers + cluster.num_sservers;
    const qos::JobTable& jobs = world.tenants->jobs();
    scheduler_ = qos::make_job_fair(jobs);
    guard_.emplace(servers, guard::chaos_guard_options());
    injector_.emplace(config.seed * 7919 + 17);
    for (std::size_t s = 0; s < cluster.num_hservers; ++s) {
      fault::FaultWindow w;
      w.server = s;
      w.kind = fault::FaultKind::kBrownout;
      w.start = kChaosStart;
      w.end = kForever;
      w.factor = kBrownoutFactor;
      injector_->add(w);
    }
    for (std::size_t s : {std::size_t{1}, std::size_t{4}}) {
      fault::FaultWindow w;
      w.server = s;
      w.kind = fault::FaultKind::kTransient;
      w.start = kChaosStart;
      w.end = kForever;
      w.probability = kTransientProbability;
      injector_->add(w);
    }
    fault_context_.emplace(*injector_, fault::RetryPolicy{}, config.seed * 31 + 5);
    options_.jobs = &jobs;
    options_.scheduler = scheduler_.get();
    options_.guard = &*guard_;
    options_.fault_context = &*fault_context_;
    options_.tolerate_failures = true;
    options_.goodput_allowance = guard::chaos_allowances();
  }
}

std::string sim_fingerprint(const workloads::ReplayResult& result,
                            const PassControls& controls, const pfs::HybridPfs& pfs) {
  std::string out;
  put(out, "makespan", result.makespan);
  put(out, "requests", static_cast<std::uint64_t>(result.requests));
  put(out, "read", static_cast<std::uint64_t>(result.bytes_read));
  put(out, "written", static_cast<std::uint64_t>(result.bytes_written));
  put(out, "goodput", static_cast<std::uint64_t>(result.goodput_bytes));
  put(out, "p50", result.latency_p50);
  put(out, "p99", result.latency_p99);
  put(out, "lat_sum", result.request_latency.sum());
  put(out, "lat_n", static_cast<std::uint64_t>(result.request_latency.count()));
  put(out, "shed", static_cast<std::uint64_t>(result.shed_requests));
  put(out, "failed", static_cast<std::uint64_t>(result.failed_requests));
  put(out, "late", static_cast<std::uint64_t>(result.late_requests));
  out += '\n';
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    const sim::ServerSim& s = pfs.data_server(i).sim();
    out += "server" + std::to_string(i) + ": ";
    put_stats(out, s.stats());
    out += '\n';
    for (std::size_t j = 0; j < s.job_stats().size(); ++j) {
      out += "  job" + std::to_string(j) + ": ";
      put_stats(out, s.job_stats()[j]);
      out += '\n';
    }
  }
  if (controls.guard() != nullptr) out += controls.guard()->metrics().table();
  if (controls.injector() != nullptr) {
    out += controls.injector()->metrics().table();
    put(out, "backoff", controls.injector()->metrics().backoff_seconds);
    out += '\n';
  }
  if (controls.options().cache != nullptr) out += controls.cache_metrics().table();
  return out;
}

common::Status check_accounting(const workloads::ReplayResult& result,
                                const pfs::HybridPfs& pfs) {
  const std::size_t completed = result.request_latency.count();
  if (result.requests != completed + result.shed_requests + result.failed_requests) {
    return common::Status::failed_precondition(
        "attempted " + std::to_string(result.requests) + " != completed " +
        std::to_string(completed) + " + shed " + std::to_string(result.shed_requests) +
        " + failed " + std::to_string(result.failed_requests));
  }
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    const sim::ServerSim& s = pfs.data_server(i).sim();
    sim::JobServerStats sum;
    for (const sim::JobServerStats& row : s.job_stats()) {
      sum.sub_requests += row.sub_requests;
      sum.bytes_read += row.bytes_read;
      sum.bytes_written += row.bytes_written;
      sum.busy_time += row.busy_time;
      sum.queue_wait += row.queue_wait;
      sum.bytes_wasted += row.bytes_wasted;
    }
    const sim::ServerStats& agg = s.stats();
    if (sum.sub_requests != agg.sub_requests || sum.bytes_read != agg.bytes_read ||
        sum.bytes_written != agg.bytes_written || sum.bytes_wasted != agg.bytes_wasted ||
        !close_enough(sum.busy_time, agg.busy_time) ||
        !close_enough(sum.queue_wait, agg.queue_wait)) {
      return common::Status::failed_precondition("server " + std::to_string(i) +
                                                 ": per-job rows do not sum to the aggregate");
    }
  }
  return common::Status::ok();
}

common::Result<std::uint32_t> read_back(World& world) {
  const common::ByteCount extent = trace::extent_end(world.trace.records);
  const auto writes = written_extents(world.trace);
  io::MpiSim mpi(1);
  auto file = io::MpiFile::open(*world.pfs, mpi, world.deployment.file_name);
  if (!file.is_ok()) return file.status();
  file->set_interceptor(world.deployment.interceptor.get());

  constexpr common::ByteCount kChunk = 4 * kMiB;
  std::vector<std::uint8_t> actual(kChunk);
  std::vector<std::uint8_t> expected(kChunk);
  std::uint32_t crc = 0;
  auto w = writes.begin();
  for (common::Offset pos = 0; pos < extent; pos += kChunk) {
    const common::ByteCount n = std::min<common::ByteCount>(kChunk, extent - pos);
    auto read = file->read_at(0, pos, actual.data(), n);
    if (!read.is_ok()) return read.status();
    // Bytes no write touched still hold the populate pattern; written bytes
    // hold the replay payload, which depends on the offset alone.
    layouts::populate_fill(pos, expected.data(), n);
    while (w != writes.end() && w->second <= pos) ++w;
    for (auto it = w; it != writes.end() && it->first < pos + n; ++it) {
      const common::Offset lo = std::max(it->first, pos);
      const common::Offset hi = std::min(it->second, pos + n);
      workloads::replay_write_fill(lo, expected.data() + (lo - pos), hi - lo);
    }
    if (std::memcmp(actual.data(), expected.data(), n) != 0) {
      const auto bad = std::mismatch(actual.begin(), actual.begin() + static_cast<long>(n),
                                     expected.begin());
      return common::Status::corruption(
          "read-back mismatch at logical offset " +
          std::to_string(pos + static_cast<common::Offset>(bad.first - actual.begin())));
    }
    crc = common::crc32(actual.data(), n, crc);
  }
  world.pfs->reset_stats();
  world.pfs->reset_clocks();
  return crc;
}

}  // namespace mha::benchmark
