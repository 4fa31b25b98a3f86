// The benchmark's four replay workloads and the world each one runs in.
//
// Every workload is a closed loop in synchronous mode: each simulated rank
// issues its next request when its previous one completes, and a barrier
// ends each step.  All ranks run in the calling thread.  A world is built
// once per set-up (trace generation, cluster construction, the scheme's
// prepare()); passes then replay the trace on it.  The per-pass control
// plane — scheduler, overload guard, fault injector and context, cache
// config — is rebuilt for every pass, so every pass starts from the same
// state and reproduces the same simulated outcome.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cache/page_cache.hpp"
#include "common/result.hpp"
#include "fault/context.hpp"
#include "guard/guard.hpp"
#include "layouts/scheme.hpp"
#include "qos/driver.hpp"
#include "qos/policy.hpp"
#include "workloads/replayer.hpp"

namespace mha::benchmark {

enum class WorkloadId { kCkptLanl = 0, kDlShuffle, kBtioCached, kChaosQos };
inline constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kCkptLanl, WorkloadId::kDlShuffle,
                                               WorkloadId::kBtioCached, WorkloadId::kChaosQos};

const char* workload_name(WorkloadId id);
std::optional<WorkloadId> parse_workload(std::string_view name);

struct WorkloadConfig {
  WorkloadId id = WorkloadId::kCkptLanl;
  /// Feeds every generator that takes a seed (DL shuffle, chaos tenants,
  /// fault injector and context); LANL and BTIO are fixed patterns.
  std::uint64_t seed = 1;
  /// Reduced sizes for the ctest smoke and transparency runs.
  bool smoke = false;
};

/// False for the timing-only chaos workload (no content plane).
bool byte_accurate(WorkloadId id);
/// True for the workloads whose layout is MHA (translate runs through the
/// redirector); DEF deploys no interceptor.
bool uses_mha(WorkloadId id);

struct World {
  trace::Trace trace;
  /// Chaos only: owns the tenants' job table the replay options borrow.
  std::unique_ptr<qos::MultiTenantDriver> tenants;
  std::unique_ptr<pfs::HybridPfs> pfs;
  layouts::Deployment deployment;
};

struct SetupTiming {
  double trace_s = 0.0;  ///< trace generation alone
  double total_s = 0.0;  ///< trace generation + cluster construction + prepare()
};

/// One independent set-up.  `store_data` false builds the timing-only twin
/// of a byte-accurate workload.
common::Result<World> build_world(const WorkloadConfig& config, bool store_data,
                                  SetupTiming* timing);

/// The cluster every workload runs on: the paper's 6 HServers + 2 SServers.
sim::ClusterConfig cluster_config();

/// Fresh per-pass control plane plus the ReplayOptions wired to it.
class PassControls {
 public:
  /// `verify` turns on the replayer's byte-level read verification (byte-
  /// accurate workloads that read).
  PassControls(const WorkloadConfig& config, const World& world, bool verify);
  PassControls(const PassControls&) = delete;
  PassControls& operator=(const PassControls&) = delete;

  const workloads::ReplayOptions& options() const { return options_; }
  /// The pass's scheduling policy (job-fair on chaos), null elsewhere.
  sched::Scheduler* scheduler() const { return scheduler_.get(); }
  const guard::OverloadGuard* guard() const { return guard_ ? &*guard_ : nullptr; }
  const fault::FaultInjector* injector() const { return injector_ ? &*injector_ : nullptr; }
  const cache::CacheMetrics& cache_metrics() const { return cache_metrics_; }

 private:
  std::unique_ptr<qos::FairShareScheduler> scheduler_;
  std::optional<guard::OverloadGuard> guard_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<fault::FaultContext> fault_context_;
  std::optional<cache::CacheConfig> cache_;
  cache::CacheMetrics cache_metrics_;
  workloads::ReplayOptions options_;
};

/// Exact text form of a pass's simulated outcome: result totals and
/// percentiles, every server's stats and per-job rows, and the guard, fault
/// and cache ledgers.  Doubles are printed in hex, so two passes have equal
/// fingerprints only when their outcomes are bit-identical.
std::string sim_fingerprint(const workloads::ReplayResult& result,
                            const PassControls& controls, const pfs::HybridPfs& pfs);

/// Reconciliation checks on one pass: attempted = completed + shed + failed,
/// and on every server the per-job rows sum to the aggregate stats.
common::Status check_accounting(const workloads::ReplayResult& result,
                                const pfs::HybridPfs& pfs);

/// Reads the whole logical file back through the deployment (redirection
/// included), compares every byte with what the trace's writes must have
/// left there, and returns the CRC-32 of the bytes read.  Resets server
/// stats and clocks afterwards.  Byte-accurate worlds only.
common::Result<std::uint32_t> read_back(World& world);

}  // namespace mha::benchmark
