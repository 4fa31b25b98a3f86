// mha_benchmark: one workload of the end-to-end benchmark per invocation.
//
//   mha_benchmark --workload=NAME --seed=N [--seconds=S] [--traced] [--smoke]
//                 [--json=PATH]
//
// Order of a run: three independent set-ups (the last one is kept), one
// untimed verification pass, then timed passes on the same world until S
// seconds have passed (at least three; one with --smoke).  --traced then
// adds the traced run: passes with the forwarding probes attached, each
// paired with an untraced pass, a timing-only twin world, and offline
// replays of single layers.  End-to-end metrics always come from the
// untraced timed passes.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json, or its
// per-layer metrics when --traced.  Every metric, including the simulated
// ones and the layer metrics BENCHMARK.json leaves out, is printed above it
// and written to --json.  The exit code is non-zero when any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/crc32.hpp"
#include "core/pipeline.hpp"
#include "probes.hpp"
#include "workload.hpp"

using namespace mha;
using namespace mha::benchmark;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int kSetups = 3;

/// Results of the offline layer loops land here, so they cannot be elided.
volatile std::uint64_t g_sink = 0;

enum class Group { kHost, kSim, kLayer };

/// Every metric the benchmark reports.  `listed` marks the ones in
/// BENCHMARK.json, which the last stdout line carries; keep the two in step.
struct MetricDef {
  const char* name;
  const char* unit;
  Group group;
  bool listed;
};

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", Group::kHost, true},
    {"host_req_per_s", "req/s", Group::kHost, true},
    {"peak_rss_MiB", "MiB", Group::kHost, true},
    {"sim_MiB_per_s", "MiB/s-virtual", Group::kSim, true},
    {"sim_lat_p50_ms", "ms-virtual", Group::kSim, false},
    {"sim_lat_p99_ms", "ms-virtual", Group::kSim, false},
    {"failed_frac", "ratio", Group::kSim, false},
    {"replay.step_p50_us", "us", Group::kLayer, true},
    {"replay.step_p99_us", "us", Group::kLayer, true},
    {"replay.steps", "count", Group::kLayer, true},
    {"replay.other_ns_per_req", "ns/req", Group::kLayer, true},
    {"io.translate_ns", "ns/call", Group::kLayer, false},
    {"io.translate_share", "ratio", Group::kLayer, true},
    {"io.translate_calls_per_req", "count", Group::kLayer, true},
    {"io.segments_per_call", "count", Group::kLayer, true},
    {"pfs.content_ns_per_req", "ns/req", Group::kLayer, false},
    {"pfs.content_share", "ratio", Group::kLayer, true},
    {"pfs.crc_bytes_per_user_byte", "ratio", Group::kLayer, true},
    {"common.crc32_MiB_per_s", "MiB/s", Group::kLayer, true},
    {"pfs.map_ns", "ns/call", Group::kLayer, true},
    {"pfs.subreqs_per_req", "count", Group::kLayer, true},
    {"sim.charge_ns", "ns/call", Group::kLayer, true},
    {"sim.hserver_busy_s", "s-virtual", Group::kLayer, true},
    {"sim.sserver_busy_s", "s-virtual", Group::kLayer, true},
    {"sim.hserver_wait_s", "s-virtual", Group::kLayer, true},
    {"sim.sserver_wait_s", "s-virtual", Group::kLayer, true},
    {"sim.wasted_frac", "ratio", Group::kLayer, true},
    {"sched.plan_ns", "ns/call", Group::kLayer, false},
    {"sched.dispatch_ns", "ns/call", Group::kLayer, false},
    {"sched.dispatch_share", "ratio", Group::kLayer, true},
    {"guard.shed", "count", Group::kLayer, true},
    {"guard.breaker_reroutes", "count", Group::kLayer, true},
    {"guard.deadline_misses", "count", Group::kLayer, true},
    {"guard.siblings_wasted_frac", "ratio", Group::kLayer, true},
    {"fault.retries_per_req", "count", Group::kLayer, true},
    {"fault.degraded_reads", "count", Group::kLayer, true},
    {"fault.budget_exhausted", "count", Group::kLayer, true},
    {"cache.hit_ratio", "ratio", Group::kLayer, true},
    {"cache.absorbed_frac", "ratio", Group::kLayer, true},
    {"cache.flush_runs_per_req", "count", Group::kLayer, true},
    {"cache.evict_dirty", "count", Group::kLayer, true},
    {"setup.trace_s", "s", Group::kLayer, true},
    {"setup.populate_s", "s", Group::kLayer, true},
    {"setup.analyze_s", "s", Group::kLayer, false},
    {"alloc.per_req", "count", Group::kLayer, true},
    {"alloc.page_faults_per_req", "count", Group::kLayer, true},
    {"trace.overhead_frac", "ratio", Group::kLayer, true},
};

struct Args {
  WorkloadConfig config;
  double seconds = 8.0;
  bool traced = false;
  std::string json_path;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything a run measured and checked.
class Report {
 public:
  Report() : values_(std::size(kMetrics), kNaN) {}

  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      if (name == kMetrics[i].name) {
        values_[i] = value;
        return;
      }
    }
    std::fprintf(stderr, "mha_benchmark: unknown metric %.*s\n", static_cast<int>(name.size()),
                 name.data());
    std::abort();
  }

  void check(std::string name, const common::Status& status) {
    checks_.push_back(Check{std::move(name), status.is_ok(), status.is_ok() ? "" : status.to_string()});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks_.push_back(Check{std::move(name), ok, ok ? "" : std::move(detail)});
  }
  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
  }

  void print_table() const {
    for (const Check& c : checks_) {
      std::printf("check  %-34s %s%s%s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                  c.detail.empty() ? "" : ": ", c.detail.c_str());
    }
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      if (std::isnan(values_[i])) {
        std::printf("metric %-34s n/a\n", kMetrics[i].name);
      } else {
        std::printf("metric %-34s %.6g %s\n", kMetrics[i].name, values_[i], kMetrics[i].unit);
      }
    }
  }

  /// The contract line: listed end-to-end metrics, or listed layer metrics.
  /// A layer that is not on a workload's path reads 0.
  std::string contract_line(bool traced, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      const MetricDef& m = kMetrics[i];
      if (!m.listed || (m.group == Group::kLayer) != traced) continue;
      const double v = std::isfinite(values_[i]) ? values_[i] : 0.0;
      out += first ? "\"" : ", \"";
      out += m.name;
      out += "\": {\"value\": ";
      out += number(v);
      out += ", \"unit\": \"";
      out += m.unit;
      out += "\"}";
      first = false;
    }
    return out + "}}";
  }

  bool write_json(const std::string& path, const Args& args, std::size_t requests_per_pass,
                  const std::vector<double>& setup_s, const std::vector<double>& pass_s) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, \"traced\": %s,\n",
                 workload_name(args.config.id),
                 static_cast<unsigned long long>(args.config.seed),
                 args.config.smoke ? "true" : "false", args.traced ? "true" : "false");
    std::fprintf(f, " \"correct\": %s, \"passes\": %zu, \"requests_per_pass\": %zu,\n",
                 correct() ? "true" : "false", pass_s.size(), requests_per_pass);
    write_list(f, "setup_samples_s", setup_s);
    write_list(f, "pass_s", pass_s);
    std::fputs(" \"checks\": [", f);
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::fprintf(f, "%s{\"name\": \"%s\", \"ok\": %s}", i ? ", " : "",
                   checks_[i].name.c_str(), checks_[i].ok ? "true" : "false");
    }
    std::fputs("],\n \"metrics\": {", f);
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      const MetricDef& m = kMetrics[i];
      const char* group = m.group == Group::kHost ? "host" : m.group == Group::kSim ? "sim" : "layer";
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\", \"group\": \"%s\"}",
                   i ? "," : "", m.name,
                   std::isfinite(values_[i]) ? number(values_[i]).c_str() : "null", m.unit,
                   group);
    }
    std::fputs("}}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static void write_list(std::FILE* f, const char* key, const std::vector<double>& v) {
    std::fprintf(f, " \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%s", i ? ", " : "", number(v[i]).c_str());
    }
    std::fputs("],\n", f);
  }

  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::vector<double> values_;
  std::vector<Check> checks_;
};

double median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (the library's common::Percentiles rule).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double seconds_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e9; }

/// Median nanoseconds per call of `body`, which makes `calls` calls per
/// invocation; each of the seven samples repeats it for at least 2 ms.
template <typename Body>
double ns_per_call(std::size_t calls, Body&& body) {
  if (calls == 0) return kNaN;
  std::vector<double> samples;
  for (int s = 0; s < 7; ++s) {
    std::size_t reps = 0;
    const std::int64_t start = now_ns();
    std::int64_t end = start;
    do {
      body();
      ++reps;
      end = now_ns();
    } while (end - start < 2'000'000);
    samples.push_back(static_cast<double>(end - start) / static_cast<double>(reps * calls));
  }
  return median(samples);
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string_view> {
      if (a.substr(0, key.size()) != key) return std::nullopt;
      return a.substr(key.size());
    };
    if (auto v = value("--workload=")) {
      auto id = parse_workload(*v);
      if (!id) return false;
      args.config.id = *id;
      have_workload = true;
    } else if (auto v = value("--seed=")) {
      const auto r = std::from_chars(v->data(), v->data() + v->size(), args.config.seed);
      if (r.ec != std::errc() || r.ptr != v->data() + v->size()) return false;
    } else if (auto v = value("--seconds=")) {
      const auto r = std::from_chars(v->data(), v->data() + v->size(), args.seconds);
      if (r.ec != std::errc() || r.ptr != v->data() + v->size()) return false;
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (auto v = value("--json=")) {
      args.json_path = std::string(*v);
    } else if (a == "--traced") {
      args.traced = true;
    } else if (a == "--smoke") {
      args.config.smoke = true;
    } else {
      return false;
    }
  }
  return have_workload;
}

struct Pass {
  workloads::ReplayResult result;
  std::string fingerprint;
  double wall_s = 0.0;
  // The pass's control-plane ledgers (zeros where the layer is absent).
  guard::GuardMetrics guard;
  fault::FaultMetrics fault;
  cache::CacheMetrics cache;
};

/// Host-side counts summed over the timed passes.
struct HostCounts {
  std::uint64_t allocations = 0;
  std::uint64_t page_faults = 0;  ///< minor faults: memory touched for the first time
};

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

/// One untraced pass: fresh control plane, replay, stats and clocks reset.
common::Result<Pass> run_pass(const WorkloadConfig& config, World& world, bool verify,
                              HostCounts* counts = nullptr) {
  PassControls controls(config, world, verify);
  common::AllocationScope allocs;
  const std::uint64_t faults = minor_faults();
  const std::int64_t start = now_ns();
  auto result = workloads::replay(*world.pfs, world.deployment, world.trace, controls.options());
  const std::int64_t end = now_ns();
  if (counts != nullptr) {
    counts->page_faults += minor_faults() - faults;
    counts->allocations += allocs.allocations();
  }
  if (!result.is_ok()) return result.status();
  Pass pass;
  pass.wall_s = seconds_between(start, end);
  pass.fingerprint = sim_fingerprint(*result, controls, *world.pfs);
  MHA_RETURN_IF_ERROR(check_accounting(*result, *world.pfs));
  pass.result = std::move(result).take();
  if (controls.guard() != nullptr) pass.guard = controls.guard()->metrics();
  if (controls.injector() != nullptr) pass.fault = controls.injector()->metrics();
  pass.cache = controls.cache_metrics();
  world.pfs->reset_stats();
  world.pfs->reset_clocks();
  return pass;
}

void report_control_plane(Report& report, const Pass& pass) {
  const double req = static_cast<double>(pass.result.requests);
  const guard::GuardMetrics& g = pass.guard;
  report.set("guard.shed", static_cast<double>(g.shed_total()));
  report.set("guard.breaker_reroutes", static_cast<double>(g.breaker_reroutes));
  report.set("guard.deadline_misses", static_cast<double>(g.deadline_misses));
  report.set("guard.siblings_wasted_frac",
             ratio(static_cast<double>(g.siblings_wasted),
                   static_cast<double>(g.siblings_wasted + g.siblings_cancelled)));
  const fault::FaultMetrics& f = pass.fault;
  report.set("fault.retries_per_req", ratio(static_cast<double>(f.retries), req));
  report.set("fault.degraded_reads", static_cast<double>(f.degraded_reads));
  report.set("fault.budget_exhausted", static_cast<double>(f.budget_exhausted));
  const cache::CacheMetrics& c = pass.cache;
  report.set("cache.hit_ratio",
             ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses)));
  // Page-writes the pool absorbed without a page flush of their own.
  report.set("cache.absorbed_frac",
             c.absorbed_writes == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(c.flush_pages) / static_cast<double>(c.absorbed_writes));
  report.set("cache.flush_runs_per_req", ratio(static_cast<double>(c.flush_ops), req));
  report.set("cache.evict_dirty", static_cast<double>(c.evict_dirty));
}

void report_servers(Report& report, const workloads::ReplayResult& r, const pfs::HybridPfs& pfs) {
  double h_busy = 0, s_busy = 0, h_wait = 0, s_wait = 0, wasted = 0, moved = 0, subs = 0;
  for (std::size_t i = 0; i < r.server_stats.size(); ++i) {
    const sim::ServerStats& s = r.server_stats[i];
    (pfs.is_hserver(i) ? h_busy : s_busy) += s.busy_time;
    (pfs.is_hserver(i) ? h_wait : s_wait) += s.queue_wait;
    wasted += static_cast<double>(s.bytes_wasted);
    moved += static_cast<double>(s.bytes_total());
    subs += static_cast<double>(s.sub_requests);
  }
  report.set("sim.hserver_busy_s", h_busy);
  report.set("sim.sserver_busy_s", s_busy);
  report.set("sim.hserver_wait_s", h_wait);
  report.set("sim.sserver_wait_s", s_wait);
  report.set("sim.wasted_frac", ratio(wasted, moved));
  report.set("pfs.subreqs_per_req", ratio(subs, static_cast<double>(r.requests)));
}

struct ProbeCounts {
  std::uint64_t translate_calls = 0;
  std::uint64_t translate_segments = 0;
};

/// One pass with every probe attached: the deployment's interceptor and the
/// pass's scheduler are wrapped, and each barrier closes a step span.
common::Result<Pass> run_traced_pass(const WorkloadConfig& config, World& world, SpanLog& log,
                                     ProbeCounts& counts) {
  PassControls controls(config, world, /*verify=*/false);
  std::optional<TimedScheduler> scheduler;
  if (controls.scheduler() != nullptr) {
    // replay() pre-sizes the metrics of the policy it is handed, which is
    // the wrapper; the wrapped policy gets the same sizing here.
    controls.scheduler()->reserve_metrics(world.trace.records.size(), world.pfs->num_servers());
    scheduler.emplace(*controls.scheduler(), log);
  }
  layouts::Deployment deployment;
  deployment.file_name = world.deployment.file_name;
  TimedInterceptor* interceptor = nullptr;
  if (world.deployment.interceptor != nullptr) {
    auto owned = std::make_unique<TimedInterceptor>(*world.deployment.interceptor, log);
    interceptor = owned.get();
    deployment.interceptor = std::move(owned);
  }
  workloads::ReplayOptions options = controls.options();
  if (scheduler) options.scheduler = &*scheduler;
  options.on_barrier = [&log](common::Seconds) { log.barrier(now_ns()); };

  const std::int64_t start = now_ns();
  log.begin_pass(start);
  auto result = workloads::replay(*world.pfs, deployment, world.trace, options);
  const std::int64_t end = now_ns();
  log.end_pass(end);
  if (!result.is_ok()) return result.status();
  Pass pass;
  pass.wall_s = seconds_between(start, end);
  pass.fingerprint = sim_fingerprint(*result, controls, *world.pfs);
  if (interceptor != nullptr) {
    counts.translate_calls += interceptor->calls();
    counts.translate_segments += interceptor->segments();
  }
  world.pfs->reset_stats();
  world.pfs->reset_clocks();
  return pass;
}

/// One physical piece of a request, as translate hands it to the PFS.
struct Segment {
  common::OpType op;
  const pfs::StripeLayout* layout;
  common::Offset offset;
  common::ByteCount length;
};

/// Offline replays of single layers over the workload's own requests:
/// StripeLayout::map_extent over every translated segment, ServerSim::charge
/// over every resulting sub-extent on fresh servers, and common::crc32.
void measure_offline_layers(Report& report, World& world, bool content_plane) {
  pfs::HybridPfs& pfs = *world.pfs;
  auto original = pfs.open(world.deployment.file_name);
  std::vector<Segment> segments;
  io::SegmentList scratch;
  common::ByteCount user_bytes = 0;
  for (const trace::TraceRecord& r : world.trace.records) {
    user_bytes += r.size;
    if (world.deployment.interceptor != nullptr) {
      world.deployment.interceptor->translate(r.offset, r.size, scratch);
      for (const io::RedirectSegment& s : scratch) {
        segments.push_back({r.op, &pfs.mds().info(s.file).layout, s.offset, s.length});
      }
    } else if (original.is_ok()) {
      segments.push_back({r.op, &pfs.mds().info(*original).layout, r.offset, r.size});
    }
  }

  pfs::StripeLayout::SubExtentVec subs;
  report.set("pfs.map_ns", ns_per_call(segments.size(), [&] {
               for (const Segment& s : segments) {
                 s.layout->map_extent(s.offset, s.length, subs);
                 g_sink = g_sink + subs.size();
               }
             }));

  struct SubOp {
    std::size_t server;
    common::OpType op;
    common::ByteCount bytes;
  };
  std::vector<SubOp> ops;
  double chunks = 0;
  constexpr common::ByteCount kChunk = pfs::ExtentStore::kChecksumChunk;
  for (const Segment& s : segments) {
    s.layout->map_extent(s.offset, s.length, subs);
    for (const pfs::SubExtent& e : subs) {
      ops.push_back({e.server, s.op, e.length});
      chunks += static_cast<double>((e.physical_offset + e.length - 1) / kChunk -
                                    e.physical_offset / kChunk + 1);
    }
  }
  report.set("pfs.crc_bytes_per_user_byte",
             content_plane ? ratio(chunks * static_cast<double>(kChunk),
                                   static_cast<double>(user_bytes))
                           : 0.0);

  std::vector<sim::ServerSim> sims;
  for (std::size_t i = 0; i < pfs.num_servers(); ++i) {
    const sim::ServerSim& s = pfs.data_server(i).sim();
    sims.emplace_back(s.kind(), s.device(), s.network());
  }
  report.set("sim.charge_ns", ns_per_call(ops.size(), [&] {
               for (sim::ServerSim& s : sims) {
                 s.reset_clock();
                 s.reset_stats();
               }
               for (const SubOp& op : ops) {
                 g_sink = g_sink + sims[op.server].charge(op.op, op.bytes, 0.0).seq;
               }
             }));

  std::vector<std::uint8_t> chunk(kChunk);
  layouts::populate_fill(0, chunk.data(), kChunk);
  const double crc_ns =
      ns_per_call(1, [&] { g_sink = g_sink + common::crc32(chunk.data(), kChunk); });
  report.set("common.crc32_MiB_per_s", static_cast<double>(kChunk) / kMiB / (crc_ns * 1e-9));
}

/// Set-up layers timed on their own: populate_file on a scratch PFS, and
/// (MHA) MhaPipeline::analyze.
void measure_setup_layers(Report& report, const WorkloadConfig& config, const World& world) {
  const common::ByteCount extent = trace::extent_end(world.trace.records);
  std::vector<double> populate, analyze;
  for (int i = 0; i < kSetups; ++i) {
    pfs::PfsOptions options;
    options.store_data = byte_accurate(config.id);
    pfs::HybridPfs scratch(cluster_config(), options);
    auto file = scratch.create_file(world.trace.file_name);
    if (!file.is_ok()) return;
    const std::int64_t start = now_ns();
    const common::Status s = layouts::populate_file(scratch, *file, extent);
    populate.push_back(seconds_between(start, now_ns()));
    if (!s.is_ok()) return;
    if (uses_mha(config.id)) {
      const std::int64_t a = now_ns();
      auto plan = core::MhaPipeline::analyze(cluster_config(), world.trace);
      analyze.push_back(seconds_between(a, now_ns()));
      if (!plan.is_ok()) return;
    }
  }
  report.set("setup.populate_s", median(populate));
  if (!analyze.empty()) report.set("setup.analyze_s", median(analyze));
}

std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: mha_benchmark --workload=NAME --seed=N [--seconds=S] [--traced] "
               "[--smoke] [--json=PATH]\n"
               "workloads: ckpt_lanl_mha dl_shuffle_mha btio_cached_def chaos_qos_mha\n");
  return 2;
}

/// The traced run: traced passes paired with untraced ones, the timing-only
/// twin, the per-layer metrics derived from both, offline single-layer
/// replays, and the span file.  Records its checks in `report`; returns
/// early when a pass fails.
void traced_run(Report& report, const Args& args, World& world, const Pass& reference,
                std::uint32_t content_crc, double median_pass_s) {
  const WorkloadConfig& config = args.config;
  const bool content_plane = byte_accurate(config.id);
  const std::size_t min_passes = config.smoke ? 1 : 3;
  const std::size_t requests = reference.result.requests;
  // --- Traced passes, each paired with an untraced one. -----------------
  // Pairing keeps machine drift out of the overhead estimate; alternating
  // which side of a pair runs first keeps order effects out of it.
  SpanLog log;
  ProbeCounts probes;
  std::vector<double> traced_s, paired_s;
  bool traced_match = true;
  const std::int64_t pairs_start = now_ns();
  while (traced_s.size() < min_passes ||
         (!config.smoke && seconds_between(pairs_start, now_ns()) < args.seconds / 4)) {
    const bool traced_first = traced_s.size() % 2 == 1;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == traced_first) {
        auto traced = run_traced_pass(config, world, log, probes);
        if (!traced.is_ok()) {
          report.check("traced_pass", traced.status());
          return;
        }
        traced_s.push_back(traced->wall_s);
        traced_match = traced_match && traced->fingerprint == reference.fingerprint;
      } else {
        auto untraced = run_pass(config, world, /*verify=*/false);
        if (!untraced.is_ok()) {
          report.check("paired_pass", untraced.status());
          return;
        }
        paired_s.push_back(untraced->wall_s);
      }
    }
  }
  report.check("traced_pass_is_transparent", traced_match,
               "the probes changed the simulated outcome");
  if (content_plane) {
    auto crc = read_back(world);
    report.check("read_back_after_traced_passes", crc.status());
    report.check("traced_content_crc_equal", crc.is_ok() && *crc == content_crc,
                 "file content after the traced passes differs");
  }

  // --- Timing-only twin: the same workload without the content plane. --
  double twin_s = median_pass_s;
  if (content_plane) {
    auto twin = build_world(config, /*store_data=*/false, nullptr);
    report.check("twin_setup", twin.status());
    if (!twin.is_ok()) return;
    std::vector<double> twin_passes;
    bool twin_match = true;
    const std::int64_t twin_start = now_ns();
    while (twin_passes.size() < min_passes ||
           (!config.smoke && (twin_passes.size() < 5 ||
                              seconds_between(twin_start, now_ns()) < 0.5))) {
      auto pass = run_pass(config, *twin, false);
      if (!pass.is_ok()) {
        report.check("twin_pass", pass.status());
        return;
      }
      twin_passes.push_back(pass->wall_s);
      twin_match = twin_match && pass->fingerprint == reference.fingerprint;
    }
    report.check("twin_reproduces_simulated_outcome", twin_match,
                 "the timing-only twin's simulated outcome differs");
    twin_s = median(twin_passes);
  }

  // --- Per-layer metrics from the spans. --------------------------------
  const std::vector<SpanTotals> totals = span_totals(log.spans());
  const auto& translate = totals[static_cast<std::size_t>(SpanKind::kTranslate)];
  const auto& plan = totals[static_cast<std::size_t>(SpanKind::kPlan)];
  const auto& dispatch = totals[static_cast<std::size_t>(SpanKind::kDispatch)];
  const auto& pass_totals = totals[static_cast<std::size_t>(SpanKind::kPass)];
  const double n_traced = static_cast<double>(traced_s.size());
  const double req = static_cast<double>(requests);
  const double traced_ns = static_cast<double>(pass_totals.total_ns);

  const std::vector<double> steps = step_durations_ns(log.spans());
  report.set("replay.step_p50_us", percentile(steps, 50) / 1e3);
  report.set("replay.step_p99_us", percentile(steps, 99) / 1e3);
  report.set("replay.steps", static_cast<double>(steps.size()) / n_traced);
  const double probed_ns_per_pass =
      static_cast<double>(translate.self_ns + plan.self_ns + dispatch.self_ns) / n_traced;
  report.set("replay.other_ns_per_req", (twin_s * 1e9 - probed_ns_per_pass) / req);
  const auto per_call = [](const SpanTotals& t) {
    return t.count ? static_cast<double>(t.total_ns) / static_cast<double>(t.count) : kNaN;
  };
  report.set("io.translate_ns", per_call(translate));
  report.set("io.translate_share", ratio(static_cast<double>(translate.total_ns), traced_ns));
  report.set("io.translate_calls_per_req",
             ratio(static_cast<double>(probes.translate_calls), n_traced * req));
  report.set("io.segments_per_call", ratio(static_cast<double>(probes.translate_segments),
                                           static_cast<double>(probes.translate_calls)));
  report.set("sched.plan_ns", per_call(plan));
  report.set("sched.dispatch_ns", per_call(dispatch));
  report.set("sched.dispatch_share", ratio(static_cast<double>(dispatch.total_ns), traced_ns));
  const double content_ns = (median_pass_s - twin_s) * 1e9;
  report.set("pfs.content_ns_per_req", content_plane ? content_ns / req : kNaN);
  report.set("pfs.content_share", content_plane ? content_ns / (median_pass_s * 1e9) : 0.0);
  report.set("trace.overhead_frac", median(traced_s) / median(paired_s) - 1.0);

  std::printf("span   %-16s %10s %14s %14s %8s\n", "name", "count", "total_ms", "self_ms",
              "self%");
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    std::printf("span   %-16s %10llu %14.3f %14.3f %7.2f%%\n",
                span_name(static_cast<SpanKind>(k)),
                static_cast<unsigned long long>(totals[k].count),
                static_cast<double>(totals[k].total_ns) / 1e6,
                static_cast<double>(totals[k].self_ns) / 1e6,
                100.0 * ratio(static_cast<double>(totals[k].self_ns), traced_ns));
  }

  measure_offline_layers(report, world, content_plane);
  measure_setup_layers(report, config, world);

  // The span file sits next to the --json result.
  const std::size_t slash = args.json_path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : args.json_path.substr(0, slash);
  const std::string trace_path = dir + "/" + workload_name(config.id) + ".trace.json";
  report.check("span_file_written", log.write_chrome_trace(trace_path), trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const WorkloadConfig& config = args.config;
  const bool content_plane = byte_accurate(config.id);
  Report report;
  std::vector<double> setup_s, trace_s, pass_s;
  std::size_t requests = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const auto finish = [&]() {
    report.print_table();
    if (!args.json_path.empty() &&
        !report.write_json(args.json_path, args, requests, setup_s, pass_s)) {
      std::fprintf(stderr, "mha_benchmark: cannot write %s\n", args.json_path.c_str());
      report.check("json_written", false, args.json_path);
    }
    std::printf("%s\n", report.contract_line(args.traced, attempted, failed).c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  };

  // --- Set-up: three independent builds, the last one is kept. -----------
  std::optional<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    SetupTiming timing;
    auto built = build_world(config, content_plane, &timing);
    if (!built.is_ok()) {
      report.check("setup", built.status());
      return finish();
    }
    world.emplace(std::move(built).take());
    setup_s.push_back(timing.total_s);
    trace_s.push_back(timing.trace_s);
  }
  report.set("setup_s", median(setup_s));
  report.set("setup.trace_s", median(trace_s));

  // --- Verification pass (untimed). ---------------------------------------
  auto reference = run_pass(config, *world, /*verify=*/true);
  report.check("verification_pass", reference.status());
  if (!reference.is_ok()) return finish();
  requests = reference->result.requests;
  std::uint32_t content_crc = 0;
  if (content_plane) {
    auto crc = read_back(*world);
    report.check("read_back_after_verification", crc.status());
    if (!crc.is_ok()) return finish();
    content_crc = *crc;
  }

  // --- Timed passes. -------------------------------------------------------
  const std::size_t min_passes = config.smoke ? 1 : 3;
  HostCounts host;
  bool passes_match = true;
  const std::int64_t loop_start = now_ns();
  while (pass_s.size() < min_passes ||
         (!config.smoke && seconds_between(loop_start, now_ns()) < args.seconds)) {
    auto pass = run_pass(config, *world, /*verify=*/false, &host);
    if (!pass.is_ok()) {
      report.check("timed_pass", pass.status());
      attempted += requests;
      failed += requests;
      return finish();
    }
    pass_s.push_back(pass->wall_s);
    attempted += pass->result.requests;
    passes_match = passes_match && pass->fingerprint == reference->fingerprint;
  }
  report.check("timed_passes_reproduce_verification_pass", passes_match,
               "a timed pass's simulated outcome differs from the verification pass");
  if (content_plane) {
    auto crc = read_back(*world);
    report.check("read_back_after_timed_passes", crc.status());
    report.check("content_crc_stable", crc.is_ok() && *crc == content_crc,
                 "file content changed across timed passes");
  }

  const workloads::ReplayResult& ref = reference->result;
  const double median_pass_s = median(pass_s);
  report.set("host_req_per_s", static_cast<double>(requests) / median_pass_s);
  report.set("sim_MiB_per_s", ratio(static_cast<double>(ref.goodput_bytes), ref.makespan) / kMiB);
  report.set("sim_lat_p50_ms", ref.latency_p50 * 1e3);
  report.set("sim_lat_p99_ms", ref.latency_p99 * 1e3);
  report.set("failed_frac", ratio(static_cast<double>(ref.shed_requests + ref.failed_requests),
                                  static_cast<double>(ref.requests)));
  const double timed_requests = static_cast<double>(pass_s.size() * requests);
  report.set("alloc.per_req", ratio(static_cast<double>(host.allocations), timed_requests));
  report.set("alloc.page_faults_per_req",
             ratio(static_cast<double>(host.page_faults), timed_requests));
  report_servers(report, ref, *world->pfs);
  report_control_plane(report, *reference);

  if (args.traced) {
    traced_run(report, args, *world, *reference, content_crc, median_pass_s);
  }

  report.set("peak_rss_MiB", static_cast<double>(peak_rss_bytes()) / kMiB);
  return finish();
}
