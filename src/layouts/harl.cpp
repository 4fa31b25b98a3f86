// HARL: the authors' prior heterogeneity-aware region-level layout [8].
//
// The file is divided into fixed, offset-contiguous regions; each region
// gets a cost-model-optimized <h, s> stripe pair.  Two deliberate
// differences from MHA (both are the paper's stated gaps that MHA closes):
// no request grouping/data reordering — a region holds whatever byte ranges
// fall inside it — and the earlier cost model, i.e. no concurrency term and
// the average-request-size search bound rather than MHA's adaptive bounds.
//
// Realisation on our PFS mirrors MHA's machinery: one file per region plus
// an identity-order DRT, so the replayer treats all schemes uniformly.
//
// Note on the cost model: HARL's published model predates the concurrency
// *term rework* but was calibrated on the same live testbed, so it never
// recommended degenerate single-tier layouts.  Reproducing it with c = 1
// against our batch-calibrated parameters would do exactly that, so HARL
// here shares the batch model and keeps its two genuine handicaps —
// offset-contiguous (pattern-mixed) regions and the average-size search
// bound.  The concurrency-term ablation lives in bench_micro_core instead.
#include <algorithm>

#include "common/units.hpp"
#include "core/redirector.hpp"
#include "core/rssd.hpp"
#include "layouts/scheme.hpp"
#include "trace/analysis.hpp"

namespace mha::layouts {

namespace {

class HarlScheme final : public LayoutScheme {
 public:
  explicit HarlScheme(std::size_t region_count) : region_count_(region_count) {}

  std::string name() const override { return "HARL"; }

  common::Result<Deployment> prepare(pfs::HybridPfs& pfs,
                                     const trace::Trace& trace) override {
    const common::ByteCount extent = trace::extent_end(trace.records);
    if (extent == 0) return common::Status::invalid_argument("HARL: empty trace extent");

    // Fixed-size region division, 4 KiB aligned.
    const common::ByteCount raw = (extent + region_count_ - 1) / region_count_;
    const common::ByteCount region_size =
        std::max<common::ByteCount>((raw + 4 * common::kKiB - 1) / (4 * common::kKiB) *
                                        (4 * common::kKiB),
                                    4 * common::kKiB);
    const std::size_t regions = (extent + region_size - 1) / region_size;

    // The original file exists for namespace purposes; all bytes live in the
    // region files.
    auto original = pfs.create_file(trace.file_name);
    if (!original.is_ok()) return original.status();
    pfs.mds().extend(*original, extent);

    // HARL-era bounds; shared batch cost model (see header comment).
    const core::CostModel model(core::CostParams::from_cluster(pfs.config()));
    core::RssdOptions rssd;
    rssd.adaptive_bounds = false;
    const auto concurrency = trace::request_concurrency(trace.records);

    core::Drt drt(trace.file_name);
    for (std::size_t r = 0; r < regions; ++r) {
      const common::Offset start = static_cast<common::Offset>(r) * region_size;
      const common::ByteCount length = std::min<common::ByteCount>(region_size, extent - start);

      // Requests anchored in this region, shifted to region-relative offsets.
      std::vector<core::ModelRequest> requests;
      for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const trace::TraceRecord& rec = trace.records[i];
        if (rec.offset < start || rec.offset >= start + length || rec.size == 0) continue;
        requests.push_back(core::ModelRequest{rec.op, rec.offset - start, rec.size,
                                              concurrency[i], rec.t_start});
      }
      core::StripePair pair{pfs::kDefaultStripe, pfs::kDefaultStripe};
      if (!requests.empty()) {
        auto result = determine_stripes(model, requests, rssd);
        if (!result.is_ok()) return result.status();
        pair = result->best;
      }
      auto layout = pfs::StripeLayout::stripe_pair(pfs.num_hservers(), pfs.num_sservers(),
                                                   pair.h, pair.s);
      if (!layout.is_ok()) return layout.status();
      const std::string region_name = trace.file_name + ".harl.r" + std::to_string(r);
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
    d.description = std::to_string(regions) + " offset regions of " +
                    common::format_bytes(region_size) + ", per-region stripe pairs";
    return d;
  }

 private:
  std::size_t region_count_;
};

}  // namespace

std::unique_ptr<LayoutScheme> make_harl() { return std::make_unique<HarlScheme>(8); }

}  // namespace mha::layouts
