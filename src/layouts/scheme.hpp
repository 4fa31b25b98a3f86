// The four data-layout schemes compared throughout the paper's evaluation:
//
//   DEF  - OrangeFS default: fixed 64 KiB stripes on every server.
//   AAL  - application-aware layout [10]: stripe sizes derived from the
//          observed access pattern, but identical on HServers and SServers
//          (heterogeneity-blind).
//   HARL - heterogeneity-aware region-level layout [8]: the file is divided
//          into offset-contiguous regions, each given a cost-model-optimized
//          <h, s> stripe pair; no grouping, no data reordering.
//   MHA  - this paper: pattern grouping + data migration into reordered
//          regions, then per-region <h, s> optimization.
//
// A scheme's prepare() makes the traced file exist on the PFS with the
// scheme's layout, pre-populates its bytes, builds any region files plus the
// redirector that routes requests to them, and leaves the PFS with clean
// stats/clocks so the subsequent replay measures only application I/O.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/pipeline.hpp"
#include "pfs/file_system.hpp"
#include "trace/record.hpp"

namespace mha::layouts {

/// Everything a replayer needs to run a workload under a prepared scheme.
struct Deployment {
  /// Name of the file the application opens (the traced file).
  std::string file_name;
  /// Interceptor routing requests to region files; null => direct access.
  std::unique_ptr<io::IoInterceptor> interceptor;
  /// Human-readable description of what was built.
  std::string description;
};

class LayoutScheme {
 public:
  virtual ~LayoutScheme() = default;

  virtual std::string name() const = 0;

  /// Builds the scheme's on-PFS state for `trace` (original file must not
  /// already exist).  Implementations must leave stats and clocks reset.
  virtual common::Result<Deployment> prepare(pfs::HybridPfs& pfs,
                                             const trace::Trace& trace) = 0;
};

/// Writes deterministic bytes over [0, length) of `file` on a dedicated
/// off-line timeline (used by every scheme to seed read replays).
common::Status populate_file(pfs::HybridPfs& pfs, common::FileId file,
                             common::ByteCount length,
                             common::ByteCount chunk = 8 * 1024 * 1024);

/// The byte any populated file holds at `offset` (for integrity checks).
inline std::uint8_t populate_byte(common::Offset offset) {
  return static_cast<std::uint8_t>((offset * 1315423911ULL) >> 17);
}

/// Block form of populate_byte: fills out[0..n) with the pattern bytes for
/// offsets [start, start+n), each XORed with `mask`.  The multiply is carried
/// incrementally (one add per byte), which the compiler vectorises — use this
/// instead of a per-byte populate_byte loop on any buffer-sized fill.  The
/// byte taken is bits 17..24 of the product, which depend only on its low 32
/// bits, so a 32-bit accumulator (twice the vector lanes of a 64-bit one)
/// gives the same bytes.
inline void populate_fill(common::Offset start, std::uint8_t* out, common::ByteCount n,
                          std::uint8_t mask = 0) {
  constexpr std::uint32_t kStep = 1315423911u;
  std::uint32_t acc = static_cast<std::uint32_t>(start) * kStep;
  for (common::ByteCount i = 0; i < n; ++i, acc += kStep) {
    out[i] = static_cast<std::uint8_t>(acc >> 17) ^ mask;
  }
}

/// Factory helpers.
std::unique_ptr<LayoutScheme> make_def();
std::unique_ptr<LayoutScheme> make_aal();
std::unique_ptr<LayoutScheme> make_harl();
std::unique_ptr<LayoutScheme> make_mha(core::MhaOptions options = {});

/// Extra baseline from the paper's related work (§VI): CARL [36], which
/// places the highest-cost file regions SServer-only.  `ssd_traffic_share`
/// is the fraction of traced traffic the SSD tier may absorb.
std::unique_ptr<LayoutScheme> make_carl(double ssd_traffic_share = 0.5);

/// All four schemes in the paper's presentation order.
std::vector<std::unique_ptr<LayoutScheme>> all_schemes();

}  // namespace mha::layouts
