#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mha::common {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// kTables[0] is the classic byte table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups retire eight input bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load, independent of host byte order.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the raw (pre-inverted) CRC state `c` over `n` bytes.
std::uint32_t slice8_update(std::uint32_t c, const unsigned char* p, std::size_t n) {
  const auto& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

#if defined(__x86_64__)

/// Shortest input the fold kernel takes: one 64-byte block.
constexpr std::size_t kFoldMin = 64;

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds 128-bit lane `x` forward by the distance encoded in `k` and
/// absorbs the next 16 input bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i x, __m128i k,
                                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds the raw CRC state `c` over `n` bytes (n >= 64, n % 16 == 0) with
/// carry-less multiplies: four 128-bit lanes absorb 64 bytes per step, are
/// folded into one lane, then Barrett-reduced to 32 bits.  Constants are
/// the bit-reflected x^k mod P(x) values of Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_update(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i poly = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett reduction to 32 bits.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

std::uint32_t crc32_fold(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  if (size >= kFoldMin) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = fold_update(c, p, bulk);
    p += bulk;
    size -= bulk;
  }
  return ~slice8_update(c, p, size);
}

#endif

Kernel select_kernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return crc32_fold;
  }
#endif
  return crc32_slice8;
}

}  // namespace

std::uint32_t crc32_slice8(const void* data, std::size_t size, std::uint32_t seed) {
  return ~slice8_update(~seed, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const Kernel kernel = select_kernel();
  return kernel(data, size, seed);
}

}  // namespace mha::common
