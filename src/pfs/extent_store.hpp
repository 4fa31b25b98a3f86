// Sparse in-memory byte store — the per-server, per-file "disk contents".
//
// Correctness substrate only: timing is charged by sim::ServerSim.  Supports
// arbitrary overlapping writes, reads of unwritten ranges (zero-filled, like
// a POSIX sparse file), and exact equality checks used heavily by the
// data-integrity property tests.
//
// Integrity layer: every write also maintains a CRC-32 per fixed-size chunk
// of the physical offset space, computed over the *materialized* chunk
// content (holes read as zero, so the checksum is well-defined for any
// sparse state).  verified_read() recomputes and compares before handing
// bytes out — the end-to-end defence against silent corruption (bit rot,
// torn writes, misdirected writes).  The checksum metadata lives in flat
// vectors that only grow when the file grows, and each chunk is hashed in
// place (extent bytes where they live, holes from a static block of zeros)
// with no staging copy, so the steady-state request path stays
// allocation-free.
//
// Corruption-injection primitives (corrupt_flip / write_torn /
// write_unchecked) intentionally break the write/checksum pairing; they
// model the silent-fault kinds in fault::FaultInjector and exist only for
// the integrity tests, the scrubber and the fault benches.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace mha::pfs {

class ExtentStore {
 public:
  /// Granularity of checksum maintenance and verification.  64 KiB matches
  /// the default stripe, so the common aligned request touches one chunk.
  static constexpr common::ByteCount kChecksumChunk = 64 * 1024;

  /// One inconsistent chunk found by verify_chunks().
  struct ChunkFault {
    common::Offset offset = 0;       ///< chunk start (physical)
    common::ByteCount length = 0;    ///< always kChecksumChunk
    std::uint32_t expected_crc = 0;  ///< stored checksum (0 when orphan)
    std::uint32_t actual_crc = 0;    ///< recomputed over materialized content
    /// Data present but never checksummed — the signature of a misdirected
    /// write landing where no legitimate write ever did.
    bool orphan = false;
  };

  /// Writes `data` at `offset`, overwriting any overlap and merging
  /// adjacent extents.  Recomputes the checksum of every touched chunk.
  void write(common::Offset offset, const std::vector<std::uint8_t>& data);
  void write(common::Offset offset, const std::uint8_t* data, common::ByteCount size);

  /// One piece of a batched write (physical offset + borrowed payload).
  struct IoSlice {
    common::Offset offset = 0;
    const std::uint8_t* data = nullptr;
    common::ByteCount size = 0;
  };

  /// Applies `slices` in list order (so overlaps resolve exactly as the
  /// equivalent sequence of write() calls would), then recomputes each
  /// touched checksum chunk exactly once.  Because the checksum of a chunk
  /// is a pure function of its final content, the resulting extent map and
  /// CRC state are identical to per-slice write()s — the batch merely stops
  /// paying the full chunk staging + CRC once per slice when many slices
  /// share a chunk (the dominant cost of small sub-stripe writes).
  void write_batch(std::span<const IoSlice> slices);

  /// Reads `size` bytes at `offset`; unwritten holes read as zero.
  std::vector<std::uint8_t> read(common::Offset offset, common::ByteCount size) const;
  void read(common::Offset offset, std::uint8_t* out, common::ByteCount size) const;

  /// Verifies every chunk overlapping [offset, offset+size) against its
  /// stored CRC, then reads.  On mismatch returns kCorruption naming the
  /// chunk offset plus expected vs. actual CRC and leaves `out` untouched.
  common::Status verified_read(common::Offset offset, std::uint8_t* out,
                               common::ByteCount size) const;

  /// The verification half of verified_read (no data copy-out).
  common::Status verify_range(common::Offset offset, common::ByteCount size) const;

  /// Sweeps every chunk that holds data or a checksum and reports each
  /// inconsistency to `sink`; returns the number of faulty chunks.
  std::size_t verify_chunks(const std::function<void(const ChunkFault&)>& sink) const;

  /// The checksum on record for chunk `c`, or nullopt when no checksummed
  /// write has touched it (lets tests recompute it independently).
  std::optional<std::uint32_t> stored_crc(std::size_t c) const {
    if (c >= chunk_valid_.size() || chunk_valid_[c] == 0) return std::nullopt;
    return chunk_crcs_[c];
  }

  // --- corruption injection (tests / fault benches only) -------------------

  /// Flips the bits under `mask` at `offset` without touching checksums;
  /// returns false when the byte is an unwritten hole (nothing to rot).
  bool corrupt_flip(common::Offset offset, std::uint8_t mask = 0x01);

  /// Torn write: persists only the first `prefix` bytes of the payload while
  /// recording checksums as if the full write had landed (a lost tail, the
  /// classic interrupted-write failure).
  void write_torn(common::Offset offset, const std::uint8_t* data, common::ByteCount size,
                  common::ByteCount prefix);

  /// Raw write bypassing checksum maintenance — a misdirected write landing
  /// at the wrong physical offset without the firmware noticing.
  void write_unchecked(common::Offset offset, const std::uint8_t* data,
                       common::ByteCount size);

  /// True if every byte of [offset, offset+size) has been written.
  bool covered(common::Offset offset, common::ByteCount size) const;

  /// One past the highest written byte; 0 when empty.
  common::Offset end_offset() const;

  /// Total bytes currently stored (excludes holes).
  common::ByteCount stored_bytes() const;

  /// Number of distinct extents (fragmentation metric, used in tests).
  std::size_t extent_count() const { return extents_.size(); }

  /// Physical offset of the n-th stored byte in offset order (corruption
  /// sweeps pick rot sites uniformly over stored data with this).
  common::Result<common::Offset> nth_stored_byte(common::ByteCount n) const;

  void clear() {
    extents_.clear();
    chunk_crcs_.clear();
    chunk_valid_.clear();
  }

 private:
  /// The pre-integrity write path: mutates extents only.
  void raw_write(common::Offset offset, const std::uint8_t* data, common::ByteCount size);

  /// Recomputes the checksum of every chunk overlapping [offset, end).
  void rechecksum(common::Offset offset, common::ByteCount size);

  /// Continues `crc` over the materialized content of [lo, hi), hashing
  /// extent bytes where they live and holes from a shared block of zeros.
  /// A hole inside the range must be at most kChecksumChunk long.
  std::uint32_t crc_range(common::Offset lo, common::Offset hi, std::uint32_t crc) const;

  /// CRC over the materialized content of chunk `c`.
  std::uint32_t chunk_crc(std::size_t c) const;

  /// Verifies one chunk; fills `fault` and returns false on inconsistency.
  bool check_chunk(std::size_t c, ChunkFault& fault) const;

  void ensure_chunks(std::size_t count);

  // offset -> contiguous run of bytes; invariants: runs are non-empty,
  // non-overlapping and non-adjacent (adjacent runs are merged).
  std::map<common::Offset, std::vector<std::uint8_t>> extents_;
  // Per-chunk CRC-32 plus a validity flag (a chunk becomes valid on its
  // first checksummed write).  Grows only when the file grows.
  std::vector<std::uint32_t> chunk_crcs_;
  std::vector<std::uint8_t> chunk_valid_;
  // write_batch scratch: per-slice [first, last] chunk ranges, sorted and
  // merged for the deduplicated rechecksum pass.  Capacity is retained
  // across batches (zero-alloc steady state).
  std::vector<std::pair<std::size_t, std::size_t>> batch_chunks_;
};

}  // namespace mha::pfs
