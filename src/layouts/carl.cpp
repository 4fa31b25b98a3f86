// CARL: the cost-aware region-level placement of [36] (He et al., CLUSTER
// 2013), reproduced as an extra baseline because the paper's related-work
// section singles it out: "CARL uses both HDD servers and SSD servers as
// persistent storage, and it places file regions with high access costs only
// on SSD servers.  However, this may compromise I/O performance because I/O
// parallelism on all servers may not be fully utilized."
//
// Reproduction: the file is divided into fixed offset regions (as HARL);
// each region's access cost is estimated with the shared cost model under
// the default layout; regions are ranked by cost and the most expensive ones
// — up to an SSD traffic budget — are placed *SServer-only* (<0, s>), the
// rest *HServer-only* (<h, 0>).  No per-region stripe optimization, exactly
// the selective-tier placement the paper contrasts MHA against.
#include <algorithm>
#include <numeric>

#include "common/units.hpp"
#include "core/cost_model.hpp"
#include "core/redirector.hpp"
#include "layouts/scheme.hpp"
#include "trace/analysis.hpp"

namespace mha::layouts {

namespace {

class CarlScheme final : public LayoutScheme {
 public:
  CarlScheme(std::size_t region_count, double ssd_traffic_share)
      : region_count_(region_count), ssd_traffic_share_(ssd_traffic_share) {}

  std::string name() const override { return "CARL"; }

  common::Result<Deployment> prepare(pfs::HybridPfs& pfs,
                                     const trace::Trace& trace) override {
    const common::ByteCount extent = trace::extent_end(trace.records);
    if (extent == 0) return common::Status::invalid_argument("CARL: empty trace extent");
    const common::ByteCount region_size = std::max<common::ByteCount>(
        (extent / region_count_ + 4 * common::kKiB - 1) / (4 * common::kKiB) *
            (4 * common::kKiB),
        4 * common::kKiB);
    const std::size_t regions = (extent + region_size - 1) / region_size;

    auto original = pfs.create_file(trace.file_name);
    if (!original.is_ok()) return original.status();
    pfs.mds().extend(*original, extent);

    // Estimate each region's access cost under the incumbent fixed layout.
    const core::CostModel model(core::CostParams::from_cluster(pfs.config()));
    const auto concurrency = trace::request_concurrency(trace.records);
    std::vector<double> cost(regions, 0.0);
    std::vector<common::ByteCount> traffic(regions, 0);
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
      const trace::TraceRecord& rec = trace.records[i];
      if (rec.size == 0) continue;
      const std::size_t region = std::min<std::size_t>(rec.offset / region_size, regions - 1);
      core::ModelRequest mr{rec.op, rec.offset % region_size, rec.size, concurrency[i],
                            rec.t_start};
      cost[region] +=
          model.request_cost(mr, pfs::kDefaultStripe, pfs::kDefaultStripe);
      traffic[region] += rec.size;
    }

    // Rank by cost; greedily send the hottest regions to the SSD tier until
    // the traffic budget is spent.
    std::vector<std::size_t> order(regions);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
    const auto total_traffic =
        std::accumulate(traffic.begin(), traffic.end(), common::ByteCount{0});
    const auto budget =
        static_cast<common::ByteCount>(ssd_traffic_share_ * static_cast<double>(total_traffic));
    std::vector<bool> on_ssd(regions, false);
    common::ByteCount spent = 0;
    for (std::size_t r : order) {
      if (cost[r] <= 0.0) break;
      if (spent + traffic[r] > budget && spent > 0) continue;
      on_ssd[r] = true;
      spent += traffic[r];
    }

    // Realise the placement: SServer-only or HServer-only region files.
    core::Drt drt(trace.file_name);
    std::size_t ssd_regions = 0;
    for (std::size_t r = 0; r < regions; ++r) {
      const common::Offset start = static_cast<common::Offset>(r) * region_size;
      const common::ByteCount length = std::min<common::ByteCount>(region_size, extent - start);
      auto layout = on_ssd[r]
                        ? pfs::StripeLayout::stripe_pair(pfs.num_hservers(), pfs.num_sservers(),
                                                         0, pfs::kDefaultStripe)
                        : pfs::StripeLayout::stripe_pair(pfs.num_hservers(), pfs.num_sservers(),
                                                         pfs::kDefaultStripe, 0);
      if (!layout.is_ok()) return layout.status();
      ssd_regions += on_ssd[r] ? 1 : 0;
      const std::string region_name = trace.file_name + ".carl.r" + std::to_string(r);
      auto file = pfs.create_file(region_name, std::move(layout).take());
      if (!file.is_ok()) return file.status();
      MHA_RETURN_IF_ERROR(populate_file(pfs, *file, length, start));
      MHA_RETURN_IF_ERROR(drt.insert(core::DrtEntry{start, length, region_name, 0}));
    }

    auto redirector = core::Redirector::create(pfs, std::move(drt));
    if (!redirector.is_ok()) return redirector.status();
    pfs.reset_stats();
    pfs.reset_clocks();

    Deployment d;
    d.file_name = trace.file_name;
    d.interceptor = std::make_unique<core::Redirector>(std::move(redirector).take());
    d.description = std::to_string(ssd_regions) + "/" + std::to_string(regions) +
                    " regions placed SServer-only (cost-ranked)";
    return d;
  }

 private:
  std::size_t region_count_;
  double ssd_traffic_share_;
};

}  // namespace

std::unique_ptr<LayoutScheme> make_carl(double ssd_traffic_share) {
  return std::make_unique<CarlScheme>(16, ssd_traffic_share);
}

}  // namespace mha::layouts
