#include "core/placer.hpp"

#include <limits>
#include <unordered_map>

#include "common/log.hpp"
#include "core/cost_model.hpp"
#include "core/mover.hpp"
#include "core/recovery.hpp"

namespace mha::core {

common::Result<PlacementReport> Placer::apply(pfs::HybridPfs& pfs,
                                              const ReorganizePlan& plan,
                                              const std::vector<StripePair>& stripe_pairs,
                                              const ApplyOptions& options) {
  if (stripe_pairs.size() != plan.regions.size()) {
    return common::Status::invalid_argument("placer: one stripe pair per region required");
  }
  if (options.chunk == 0) return common::Status::invalid_argument("placer: zero chunk");

  auto original = pfs.open(plan.drt.o_file());
  if (!original.is_ok()) return original.status();

  fault::MigrationJournal* journal = options.journal;

  // Pre-compute the region layouts: they are both the RST rows the region
  // files are created with and (as raw widths) the journal's record of how
  // to re-create a region lost to a crash.
  std::vector<pfs::StripeLayout> layouts;
  layouts.reserve(plan.regions.size());
  for (std::size_t g = 0; g < plan.regions.size(); ++g) {
    auto layout = pfs::StripeLayout::stripe_pair(pfs.num_hservers(), pfs.num_sservers(),
                                                 stripe_pairs[g].h, stripe_pairs[g].s);
    if (!layout.is_ok()) return layout.status();
    layouts.push_back(std::move(layout).take());
  }

  const std::vector<DrtEntry> entries = plan.drt.entries();
  if (journal != nullptr) {
    std::vector<fault::JournalRegion> journal_regions;
    journal_regions.reserve(plan.regions.size());
    for (std::size_t g = 0; g < plan.regions.size(); ++g) {
      journal_regions.push_back(
          fault::JournalRegion{plan.regions[g].name, layouts[g].widths()});
    }
    MHA_RETURN_IF_ERROR(journal->begin(plan.drt.o_file(), std::move(journal_regions),
                                       journal_entries(entries)));
  }
  MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "planned"));

  PlacementReport report;
  std::unordered_map<std::string, common::FileId> region_ids;

  // Create region files with their optimized layouts (RST rows).
  for (std::size_t g = 0; g < plan.regions.size(); ++g) {
    const Region& region = plan.regions[g];
    auto id = pfs.create_file(region.name, layouts[g]);
    if (!id.is_ok()) return id.status();
    region_ids.emplace(region.name, *id);
    ++report.regions_created;
    MHA_DEBUG << "placer: region " << region.name << " layout "
              << stripe_pairs[g].to_string();
  }
  if (journal != nullptr) {
    MHA_RETURN_IF_ERROR(journal->set_phase(fault::JournalPhase::kRegionsCreated));
  }
  MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "regions-created"));

  if (journal != nullptr) {
    MHA_RETURN_IF_ERROR(journal->set_phase(fault::JournalPhase::kCopying));
  }
  MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "copying"));

  // Migrate: copy every DRT entry's bytes original -> region.
  Mover migrate(pfs, {.chunk = options.chunk, .journal = journal,
                      .crash_prefix = "copied-entry-", .crash_at = options.crash_at});
  for (const DrtEntry& entry : entries) {
    auto target = region_ids.find(entry.r_file);
    if (target == region_ids.end()) {
      return common::Status::corruption("placer: DRT names unknown region " + entry.r_file);
    }
    migrate.add(CopyTask{*original, entry.o_offset, target->second, entry.r_offset,
                         entry.length});
  }
  MHA_RETURN_IF_ERROR(migrate.run());
  report.bytes_migrated = migrate.bytes_copied();
  report.migration_time = migrate.next_issue();
  if (journal != nullptr) {
    MHA_RETURN_IF_ERROR(journal->set_phase(fault::JournalPhase::kCopied));
  }
  MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "copied"));

  // The atomic switch: after commit() the journaled DRT/RST are the truth
  // (recovery rebuilds the redirector from them); before it they are
  // rolled back or forward depending on the copy phase.
  if (journal != nullptr) {
    MHA_RETURN_IF_ERROR(journal->commit());
  }
  MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "committed"));

  // Heterogeneity-aware replication (after the commit on purpose: replicas
  // are derived, re-creatable data — see ApplyOptions::replicate_hot).
  // Every hot region (h > 0 — it has HServer-resident stripes that a dead
  // HDD box would strand) gets a full secondary copy on one SServer, chosen
  // by projected SServer write cost over the replica bytes already assigned
  // there; identical SServers degrade to balance-by-bytes, heterogeneous
  // ones prefer the faster device.
  if (options.replicate_hot) {
    const CostParams params = CostParams::from_cluster(pfs.config());
    std::vector<common::ByteCount> replica_load(pfs.num_sservers(), 0);
    Mover fill(pfs, {.chunk = options.chunk}, report.migration_time);
    for (std::size_t g = 0; g < plan.regions.size(); ++g) {
      const Region& region = plan.regions[g];
      if (stripe_pairs[g].h == 0 || region.length == 0) continue;
      std::size_t best = 0;
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < pfs.num_sservers(); ++s) {
        const double cost =
            params.alpha_sw +
            params.beta_sw * static_cast<double>(replica_load[s] + region.length);
        if (cost < best_cost) {
          best = s;
          best_cost = cost;
        }
      }
      const std::size_t server = pfs.num_hservers() + best;
      std::vector<common::ByteCount> widths(pfs.num_servers(), 0);
      widths[server] = pfs::kDefaultStripe;
      auto layout = pfs::StripeLayout::create(std::move(widths));
      if (!layout.is_ok()) return layout.status();
      const std::string replica_name = region.name + ".rep";
      auto replica = pfs.create_file(replica_name, std::move(layout).take());
      if (!replica.is_ok()) return replica.status();
      fill.add(CopyTask{region_ids.at(region.name), 0, *replica, 0, region.length});
      MHA_RETURN_IF_ERROR(fill.run());
      replica_load[best] += region.length;
      report.replica_pairs.emplace_back(region.name, replica_name);
      ++report.replicas_created;
      report.bytes_replicated += region.length;
      MHA_DEBUG << "placer: replica " << replica_name << " on SServer " << server;
      MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "replica-" + std::to_string(g)));
    }
    report.migration_time = fill.next_issue();
    MHA_RETURN_IF_ERROR(crash_point(options.crash_at, "replicated"));
  }
  return report;
}

}  // namespace mha::core
