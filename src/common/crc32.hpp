// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320), the checksum of
// every integrity structure in the repo: the extent store's per-chunk CRCs
// (pfs/extent_store), KV and migration-journal record framing, and trace
// checks.
//
// crc32() picks its kernel once per process: a carry-less-multiply
// (PCLMULQDQ) fold on x86-64 CPUs that have it, else the slice-by-8 table
// kernel, which also hashes the fold's short inputs and tails.  Both give
// the same value for every input; crc32_slice8() is exposed so tests can
// compare them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mha::common {

/// Computes CRC-32 over `size` bytes starting at `data`, continuing from
/// `seed` (pass 0 for a fresh checksum; chain calls by passing the previous
/// result).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// Convenience overload for string-like payloads.
inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// The portable slice-by-8 table kernel, same contract as crc32().
std::uint32_t crc32_slice8(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace mha::common
