#include "layouts/scheme.hpp"

#include <algorithm>

namespace mha::layouts {

common::Status populate_file(pfs::HybridPfs& pfs, common::FileId file,
                             common::ByteCount length, common::ByteCount chunk) {
  if (chunk == 0) return common::Status::invalid_argument("populate: zero chunk");
  if (!pfs.stores_data()) {
    // Timing-only PFS: population would be discarded anyway; just record the
    // logical size (population happens on an off-line timeline, so skipping
    // it does not change any measurement).
    pfs.mds().extend(file, length);
    return common::Status::ok();
  }
  std::vector<std::uint8_t> buffer;
  common::Seconds clock = 0.0;
  common::Offset pos = 0;
  while (pos < length) {
    const common::ByteCount piece = std::min<common::ByteCount>(chunk, length - pos);
    buffer.resize(piece);
    populate_fill(pos, buffer.data(), piece);
    auto w = pfs.write(file, pos, buffer.data(), piece, clock);
    if (!w.is_ok()) return w.status();
    clock = w->completion;
    pos += piece;
  }
  return common::Status::ok();
}

std::vector<std::unique_ptr<LayoutScheme>> all_schemes() {
  std::vector<std::unique_ptr<LayoutScheme>> schemes;
  schemes.push_back(make_def());
  schemes.push_back(make_aal());
  schemes.push_back(make_harl());
  schemes.push_back(make_mha());
  return schemes;
}

}  // namespace mha::layouts
