#include "pfs/extent_store.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"

namespace mha::pfs {

namespace {

// Hashed in place of a chunk's holes, which read as zeros.
constexpr std::array<std::uint8_t, ExtentStore::kChecksumChunk> kZeroChunk{};

}  // namespace

void ExtentStore::write(common::Offset offset, const std::vector<std::uint8_t>& data) {
  write(offset, data.data(), data.size());
}

void ExtentStore::write(common::Offset offset, const std::uint8_t* data,
                        common::ByteCount size) {
  if (size == 0) return;
  raw_write(offset, data, size);
  rechecksum(offset, size);
}

void ExtentStore::write_batch(std::span<const IoSlice> slices) {
  // Content plane first, in list order: overlap between slices resolves the
  // same way the equivalent write() sequence would.
  batch_chunks_.clear();
  for (const IoSlice& s : slices) {
    if (s.size == 0) continue;
    raw_write(s.offset, s.data, s.size);
    batch_chunks_.emplace_back(s.offset / kChecksumChunk,
                               (s.offset + s.size - 1) / kChecksumChunk);
  }
  if (batch_chunks_.empty()) return;
  // Checksum plane once per touched chunk: sort the per-slice chunk ranges,
  // merge overlapping/adjacent ones, rechecksum each merged run.  A strict
  // gap between runs is a chunk no slice touched — it must keep its old CRC.
  std::sort(batch_chunks_.begin(), batch_chunks_.end());
  std::size_t run_first = batch_chunks_.front().first;
  std::size_t run_last = batch_chunks_.front().second;
  const auto flush = [&] {
    rechecksum(static_cast<common::Offset>(run_first) * kChecksumChunk,
               static_cast<common::ByteCount>(run_last - run_first + 1) * kChecksumChunk);
  };
  for (std::size_t i = 1; i < batch_chunks_.size(); ++i) {
    const auto& [first, last] = batch_chunks_[i];
    if (first <= run_last + 1) {
      run_last = std::max(run_last, last);
    } else {
      flush();
      run_first = first;
      run_last = last;
    }
  }
  flush();
}

void ExtentStore::raw_write(common::Offset offset, const std::uint8_t* data,
                            common::ByteCount size) {
  if (size == 0) return;
  const common::Offset end = offset + size;

  // Append fast paths: sequential writers (the replayer, region placement,
  // migration copies) land at or past the store's end almost every time, so
  // resolve against the last extent without the general merge walk.
  if (!extents_.empty()) {
    auto& [last_start, last_bytes] = *extents_.rbegin();
    const common::Offset last_end = last_start + last_bytes.size();
    if (offset > last_end) {  // disjoint new tail extent
      extents_.emplace_hint(extents_.end(), offset,
                            std::vector<std::uint8_t>(data, data + size));
      return;
    }
    if (offset >= last_start && offset <= last_end) {
      // Overwrite the overlap in place, grow the run with the remainder.
      const common::ByteCount overlap =
          std::min<common::ByteCount>(size, last_end - offset);
      std::memcpy(last_bytes.data() + (offset - last_start), data, overlap);
      if (overlap < size) {
        last_bytes.insert(last_bytes.end(), data + overlap, data + size);
      }
      return;
    }
  } else {
    extents_.emplace(offset, std::vector<std::uint8_t>(data, data + size));
    return;
  }

  // Fast path: the write lands entirely inside one existing extent —
  // overwrite in place.  This keeps repeated updates to a large file O(size)
  // instead of O(extent) (the slow path rebuilds the merged run).
  {
    auto it = extents_.upper_bound(offset);
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      if (prev->first <= offset && prev->first + prev->second.size() >= end) {
        std::memcpy(prev->second.data() + (offset - prev->first), data, size);
        return;
      }
    }
  }

  // Collect the new run, absorbing any overlapping or adjacent existing
  // extents so the map invariant (disjoint, non-adjacent) is preserved.
  common::Offset new_start = offset;
  std::vector<std::uint8_t> merged(data, data + size);

  // First candidate: the extent starting at or before `offset`.
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    const common::Offset prev_end = prev->first + prev->second.size();
    if (prev_end >= offset) {  // overlaps or touches on the left
      const common::ByteCount head = offset - prev->first;
      std::vector<std::uint8_t> combined(prev->second.begin(),
                                         prev->second.begin() + static_cast<long>(head));
      combined.insert(combined.end(), merged.begin(), merged.end());
      if (prev_end > end) {  // old extent sticks out on the right
        combined.insert(combined.end(),
                        prev->second.begin() + static_cast<long>(end - prev->first),
                        prev->second.end());
      }
      new_start = prev->first;
      merged = std::move(combined);
      it = extents_.erase(prev);
    }
  }
  // Absorb extents that start inside or immediately after the merged run.
  while (it != extents_.end() && it->first <= new_start + merged.size()) {
    const common::Offset it_end = it->first + it->second.size();
    if (it_end > new_start + merged.size()) {
      const common::ByteCount keep_from = new_start + merged.size() - it->first;
      merged.insert(merged.end(), it->second.begin() + static_cast<long>(keep_from),
                    it->second.end());
    }
    it = extents_.erase(it);
  }
  extents_.emplace(new_start, std::move(merged));
}

std::vector<std::uint8_t> ExtentStore::read(common::Offset offset,
                                            common::ByteCount size) const {
  std::vector<std::uint8_t> out(size, 0);
  read(offset, out.data(), size);
  return out;
}

void ExtentStore::read(common::Offset offset, std::uint8_t* out,
                       common::ByteCount size) const {
  if (size == 0) return;
  const common::Offset end = offset + size;

  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    --it;
    // Fast path: the whole range lives inside one extent — a single memcpy,
    // and no zero-fill pass (there are no holes to clear).
    if (it->first <= offset && it->first + it->second.size() >= end) {
      std::memcpy(out, it->second.data() + (offset - it->first), size);
      return;
    }
  }
  std::memset(out, 0, size);
  for (; it != extents_.end() && it->first < end; ++it) {
    const common::Offset ext_start = it->first;
    const common::Offset ext_end = ext_start + it->second.size();
    if (ext_end <= offset) continue;
    const common::Offset copy_start = std::max(offset, ext_start);
    const common::Offset copy_end = std::min(end, ext_end);
    std::memcpy(out + (copy_start - offset),
                it->second.data() + (copy_start - ext_start), copy_end - copy_start);
  }
}

bool ExtentStore::covered(common::Offset offset, common::ByteCount size) const {
  if (size == 0) return true;
  common::Offset pos = offset;
  const common::Offset end = offset + size;
  auto it = extents_.upper_bound(pos);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && pos < end; ++it) {
    const common::Offset ext_start = it->first;
    const common::Offset ext_end = ext_start + it->second.size();
    if (ext_start > pos) return false;  // hole before this extent
    if (ext_end > pos) pos = ext_end;
  }
  return pos >= end;
}

common::Offset ExtentStore::end_offset() const {
  if (extents_.empty()) return 0;
  const auto& last = *extents_.rbegin();
  return last.first + last.second.size();
}

common::ByteCount ExtentStore::stored_bytes() const {
  common::ByteCount total = 0;
  for (const auto& [off, bytes] : extents_) total += bytes.size();
  return total;
}

common::Result<common::Offset> ExtentStore::nth_stored_byte(common::ByteCount n) const {
  for (const auto& [off, bytes] : extents_) {
    if (n < bytes.size()) return off + n;
    n -= bytes.size();
  }
  return common::Status::out_of_range("fewer stored bytes than requested index");
}

// --- integrity layer --------------------------------------------------------

void ExtentStore::ensure_chunks(std::size_t count) {
  if (chunk_crcs_.size() < count) {
    chunk_crcs_.resize(count, 0);
    chunk_valid_.resize(count, 0);
  }
}

std::uint32_t ExtentStore::crc_range(common::Offset lo, common::Offset hi,
                                     std::uint32_t crc) const {
  common::Offset pos = lo;
  auto it = extents_.upper_bound(lo);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < hi; ++it) {
    const common::Offset ext_start = it->first;
    const common::Offset ext_end = ext_start + it->second.size();
    if (ext_end <= pos) continue;
    if (ext_start > pos) {
      crc = common::crc32(kZeroChunk.data(), ext_start - pos, crc);
      pos = ext_start;
    }
    const common::Offset end = std::min(hi, ext_end);
    crc = common::crc32(it->second.data() + (pos - ext_start), end - pos, crc);
    pos = end;
  }
  if (pos < hi) crc = common::crc32(kZeroChunk.data(), hi - pos, crc);
  return crc;
}

std::uint32_t ExtentStore::chunk_crc(std::size_t c) const {
  const common::Offset start = static_cast<common::Offset>(c) * kChecksumChunk;
  return crc_range(start, start + kChecksumChunk, 0);
}

void ExtentStore::rechecksum(common::Offset offset, common::ByteCount size) {
  if (size == 0) return;
  const std::size_t first = offset / kChecksumChunk;
  const std::size_t last = (offset + size - 1) / kChecksumChunk;
  ensure_chunks(last + 1);
  for (std::size_t c = first; c <= last; ++c) {
    chunk_crcs_[c] = chunk_crc(c);
    chunk_valid_[c] = 1;
  }
}

bool ExtentStore::check_chunk(std::size_t c, ChunkFault& fault) const {
  const bool valid = c < chunk_valid_.size() && chunk_valid_[c] != 0;
  const common::Offset start = static_cast<common::Offset>(c) * kChecksumChunk;
  if (!valid) {
    // No checksum on record: consistent only if the chunk holds no data.
    auto it = extents_.upper_bound(start);
    bool has_data = false;
    if (it != extents_.begin()) {
      auto prev = std::prev(it);
      has_data = prev->first + prev->second.size() > start;
    }
    if (!has_data && it != extents_.end()) has_data = it->first < start + kChecksumChunk;
    if (!has_data) return true;
    fault = ChunkFault{start, kChecksumChunk, 0, chunk_crc(c), /*orphan=*/true};
    return false;
  }
  const std::uint32_t actual = chunk_crc(c);
  if (actual == chunk_crcs_[c]) return true;
  fault = ChunkFault{start, kChecksumChunk, chunk_crcs_[c], actual, /*orphan=*/false};
  return false;
}

namespace {

common::Status fault_status(const ExtentStore::ChunkFault& fault) {
  char msg[128];
  if (fault.orphan) {
    std::snprintf(msg, sizeof(msg),
                  "unchecksummed data in chunk @%llu (misdirected write?), crc %08x",
                  static_cast<unsigned long long>(fault.offset), fault.actual_crc);
  } else {
    std::snprintf(msg, sizeof(msg),
                  "chunk @%llu: stored crc %08x, computed %08x",
                  static_cast<unsigned long long>(fault.offset), fault.expected_crc,
                  fault.actual_crc);
  }
  return common::Status::corruption(msg);
}

}  // namespace

common::Status ExtentStore::verify_range(common::Offset offset,
                                         common::ByteCount size) const {
  if (size == 0) return common::Status::ok();
  const std::size_t first = offset / kChecksumChunk;
  const std::size_t last = (offset + size - 1) / kChecksumChunk;
  for (std::size_t c = first; c <= last; ++c) {
    ChunkFault fault;
    if (!check_chunk(c, fault)) return fault_status(fault);
  }
  return common::Status::ok();
}

common::Status ExtentStore::verified_read(common::Offset offset, std::uint8_t* out,
                                          common::ByteCount size) const {
  MHA_RETURN_IF_ERROR(verify_range(offset, size));
  read(offset, out, size);
  return common::Status::ok();
}

std::size_t ExtentStore::verify_chunks(
    const std::function<void(const ChunkFault&)>& sink) const {
  // The scan domain is every chunk that could be inconsistent: those holding
  // extent data and those carrying a checksum (a torn write can checksum
  // past the data it actually persisted).
  const common::Offset end = end_offset();
  std::size_t chunks = end == 0 ? 0 : (end + kChecksumChunk - 1) / kChecksumChunk;
  chunks = std::max(chunks, chunk_valid_.size());
  std::size_t faulty = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    ChunkFault fault;
    if (!check_chunk(c, fault)) {
      ++faulty;
      if (sink) sink(fault);
    }
  }
  return faulty;
}

bool ExtentStore::corrupt_flip(common::Offset offset, std::uint8_t mask) {
  auto it = extents_.upper_bound(offset);
  if (it == extents_.begin()) return false;
  --it;
  if (offset < it->first || offset >= it->first + it->second.size()) return false;
  it->second[offset - it->first] ^= mask;
  return true;
}

void ExtentStore::write_torn(common::Offset offset, const std::uint8_t* data,
                             common::ByteCount size, common::ByteCount prefix) {
  if (size == 0) return;
  prefix = std::min(prefix, size);
  // Compute the as-if-complete checksums against the pre-write content
  // overlaid with the *full* payload — exactly what the server would have
  // recorded had the write finished — then persist only the prefix.
  const std::size_t first = offset / kChecksumChunk;
  const std::size_t last = (offset + size - 1) / kChecksumChunk;
  std::vector<std::uint32_t> as_if(last - first + 1, 0);
  for (std::size_t c = first; c <= last; ++c) {
    const common::Offset chunk_start = static_cast<common::Offset>(c) * kChecksumChunk;
    const common::Offset chunk_end = chunk_start + kChecksumChunk;
    const common::Offset lo = std::max(chunk_start, offset);
    const common::Offset hi = std::min(chunk_end, offset + size);
    std::uint32_t crc = crc_range(chunk_start, lo, 0);
    crc = common::crc32(data + (lo - offset), hi - lo, crc);
    as_if[c - first] = crc_range(hi, chunk_end, crc);
  }
  if (prefix > 0) raw_write(offset, data, prefix);
  ensure_chunks(last + 1);
  for (std::size_t c = first; c <= last; ++c) {
    chunk_crcs_[c] = as_if[c - first];
    chunk_valid_[c] = 1;
  }
}

void ExtentStore::write_unchecked(common::Offset offset, const std::uint8_t* data,
                                  common::ByteCount size) {
  raw_write(offset, data, size);
}

}  // namespace mha::pfs
