// Runtime-dispatched SIMD kernels for the hot search paths (DESIGN.md §9).
//
// FAST+FAIR's lock-free readers walk node records one slot at a time so
// every load can be validated (StableRecord + switch recheck). The SIMD
// layer keeps that protocol but vectorizes the *candidate location* step:
// a vector key compare straight over the live record area nominates a
// slot, which is then re-validated through the scalar policy loads. This
// header supplies the primitive kernels; core/node_search_simd.h builds
// the node protocol on top.
//
// Three ISA paths — scalar / AVX2 / AVX-512 — compiled with per-function
// target attributes (no global -march), selected once at startup from
// cpuid and overridable with FASTFAIR_SIMD=scalar|avx2|avx512 (unsupported
// or unknown values clamp to scalar; unset or "auto" picks the best the
// CPU offers). Off x86-64 only the scalar path is compiled. ScalarKernels
// is the reference implementation of ByteEqMask and CollectEqU32; every
// vector kernel must be bit-identical to it on the same input
// (tests/simd_search_test.cc enforces this per ISA, and checks the
// vector-only RecordEqZero/RecordGtZero against a scalar re-derivation).
//
// Contract notes shared by all kernels:
//  * ByteEqMask requires 64 readable bytes at `a` even when n < 64 (the
//    callers point it at in-struct arrays with trailing members).
//  * CollectEqU32 has no padding requirement (vector body + scalar tail).
//  * RecordEqZero/RecordGtZero read kRecWidth {key, ptr} records (16-byte
//    stride) with plain vector loads: only valid for memory policies with
//    coherent raw loads (RealMem), never for crash-sim shadow policies.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define FASTFAIR_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fastfair::simd {

enum class Isa : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // requires avx512f + avx512bw
};

/// Short lowercase name ("scalar", "avx2", "avx512"), the same spelling
/// FASTFAIR_SIMD and --simd accept.
const char* IsaName(Isa isa);

/// Parses an ISA name (also accepts "" and "auto" -> best supported).
/// Returns false on an unknown spelling.
bool ParseIsa(std::string_view s, Isa* out);

/// True when this binary carries code for `isa` (vector tiers: x86-64 only).
bool IsaCompiled(Isa isa);

/// IsaCompiled and the running CPU reports the feature.
bool IsaSupported(Isa isa);

/// Best supported ISA in preference order avx512 > avx2 > scalar.
Isa BestSupportedIsa();

/// The process-wide active ISA: resolved once from FASTFAIR_SIMD (or
/// BestSupportedIsa when unset/auto) on first call, then cached. All
/// dispatch points (tree construction, BucketByShard, FindEntry) read this.
Isa ActiveIsa();

/// Test/bench hook: overrides ActiveIsa. Unsupported requests clamp to
/// scalar. Returns the ISA actually installed. Indexes constructed before
/// the call keep their already-resolved function pointers.
Isa ForceIsa(Isa isa);

/// RecordEqZero/RecordGtZero (vector families only) mask kRecWidth
/// interleaved {key, ptr} records read in place at r: bit 2l of *eq (*gt)
/// is set iff r[2l] == key (r[2l] > key, unsigned), bit 2l of *zero iff
/// r[2l + 1] == 0. Record l's bit sits at kMaskStride * l: the stride-2
/// layout is the natural shape of an interleaved vector compare (key lanes
/// are the even lanes), so wide ISAs skip the deinterleave shuffle
/// entirely. The caller owns making something of a possibly torn
/// observation (node_search_simd.h revalidates every candidate through the
/// scalar policy loads).
inline constexpr std::size_t kMaskStride = 2;

// ---------------------------------------------------------------------------
// Scalar kernels: the reference implementation.
// ---------------------------------------------------------------------------

struct ScalarKernels {
  static constexpr Isa kIsa = Isa::kScalar;

  /// Bit i set iff a[i] == v, for i in [0, n), n <= 64. (The scalar path
  /// reads only n bytes; vector paths read a full 64-byte window.)
  static std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                                  std::uint8_t v) {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (a[i] == v) m |= std::uint64_t{1} << i;
    return m;
  }

  /// Appends every i in [0, n) with a[i] == v to out; returns the count.
  static std::size_t CollectEqU32(const std::uint32_t* a, std::size_t n,
                                  std::uint32_t v, std::uint32_t* out) {
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (a[i] == v) out[c++] = static_cast<std::uint32_t>(i);
    return c;
  }
};

#if defined(FASTFAIR_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 keys per 256-bit compare.
// ---------------------------------------------------------------------------

struct Avx2Kernels {
  static constexpr Isa kIsa = Isa::kAvx2;

  __attribute__((target("avx2"))) static std::uint64_t ByteEqMask(
      const std::uint8_t* a, std::size_t n, std::uint8_t v) {
    const __m256i vv = _mm256_set1_epi8(static_cast<char>(v));
    const std::uint64_t lo = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)), vv)));
    const std::uint64_t hi = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 32)),
            vv)));
    const std::uint64_t mask = lo | (hi << 32);
    return n >= 64 ? mask : mask & ((std::uint64_t{1} << n) - 1);
  }

  static constexpr std::size_t kRecWidth = 4;

  // In-place interleaved compares: each 256-bit load holds {k, p, k, p},
  // so movemask_pd bits 0/2 are key lanes and bits 1/3 are ptr lanes —
  // exactly the stride-2 mask contract, no deinterleave permutes needed.
  __attribute__((target("avx2"))) static void RecordEqZero(
      const std::uint64_t* r, std::uint64_t key, unsigned* eq,
      unsigned* zero) {
    const __m256i r0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r));
    const __m256i r1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 4));
    const __m256i bk = _mm256_set1_epi64x(static_cast<long long>(key));
    const __m256i zz = _mm256_setzero_si256();
    const unsigned e0 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r0, bk))));
    const unsigned e1 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r1, bk))));
    const unsigned z0 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r0, zz))));
    const unsigned z1 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r1, zz))));
    *eq = (e0 & 0x5u) | ((e1 & 0x5u) << 4);
    *zero = ((z0 & 0xAu) | ((z1 & 0xAu) << 4)) >> 1;
  }

  __attribute__((target("avx2"))) static void RecordGtZero(
      const std::uint64_t* r, std::uint64_t key, unsigned* gt,
      unsigned* zero) {
    const __m256i r0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r));
    const __m256i r1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 4));
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i bk = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(key)), bias);
    const __m256i zz = _mm256_setzero_si256();
    const unsigned g0 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(_mm256_xor_si256(r0, bias), bk))));
    const unsigned g1 = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(_mm256_xor_si256(r1, bias), bk))));
    const unsigned z0 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r0, zz))));
    const unsigned z1 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(r1, zz))));
    *gt = (g0 & 0x5u) | ((g1 & 0x5u) << 4);
    *zero = ((z0 & 0xAu) | ((z1 & 0xAu) << 4)) >> 1;
  }

  __attribute__((target("avx2"))) static std::size_t CollectEqU32(
      const std::uint32_t* a, std::size_t n, std::uint32_t v,
      std::uint32_t* out) {
    const __m256i vv = _mm256_set1_epi32(static_cast<int>(v));
    std::size_t c = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
      unsigned m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
              vv))));
      while (m != 0) {
        out[c++] = static_cast<std::uint32_t>(
            i + static_cast<std::size_t>(__builtin_ctz(m)));
        m &= m - 1;
      }
    }
    for (; i < n; ++i)
      if (a[i] == v) out[c++] = static_cast<std::uint32_t>(i);
    return c;
  }
};

// ---------------------------------------------------------------------------
// AVX-512 kernels: 8 keys per 512-bit compare, mask registers directly.
// ---------------------------------------------------------------------------

struct Avx512Kernels {
  static constexpr Isa kIsa = Isa::kAvx512;

  __attribute__((target("avx512f,avx512bw"))) static std::uint64_t ByteEqMask(
      const std::uint8_t* a, std::size_t n, std::uint8_t v) {
    const std::uint64_t mask = _mm512_cmpeq_epi8_mask(
        _mm512_loadu_si512(reinterpret_cast<const void*>(a)),
        _mm512_set1_epi8(static_cast<char>(v)));
    return n >= 64 ? mask : mask & ((std::uint64_t{1} << n) - 1);
  }

  static constexpr std::size_t kRecWidth = 8;

  // Masked in-place compares over the interleaved record bytes: key lanes
  // are the even lanes (0x55), ptr lanes the odd (0xAA). The compare masks
  // come back already in the stride-2 bit layout — no permutex2var, no
  // index constants.
  __attribute__((target("avx512f"))) static void RecordEqZero(
      const std::uint64_t* r, std::uint64_t key, unsigned* eq,
      unsigned* zero) {
    const __m512i r0 = _mm512_loadu_si512(reinterpret_cast<const void*>(r));
    const __m512i r1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(r + 8));
    const __m512i bk = _mm512_set1_epi64(static_cast<long long>(key));
    const __m512i zz = _mm512_setzero_si512();
    const unsigned e0 = _mm512_mask_cmpeq_epu64_mask(0x55, r0, bk);
    const unsigned e1 = _mm512_mask_cmpeq_epu64_mask(0x55, r1, bk);
    const unsigned z0 = _mm512_mask_cmpeq_epu64_mask(0xAA, r0, zz);
    const unsigned z1 = _mm512_mask_cmpeq_epu64_mask(0xAA, r1, zz);
    *eq = e0 | (e1 << 8);
    *zero = (z0 | (z1 << 8)) >> 1;
  }

  __attribute__((target("avx512f"))) static void RecordGtZero(
      const std::uint64_t* r, std::uint64_t key, unsigned* gt,
      unsigned* zero) {
    const __m512i r0 = _mm512_loadu_si512(reinterpret_cast<const void*>(r));
    const __m512i r1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(r + 8));
    const __m512i bk = _mm512_set1_epi64(static_cast<long long>(key));
    const __m512i zz = _mm512_setzero_si512();
    const unsigned g0 = _mm512_mask_cmpgt_epu64_mask(0x55, r0, bk);
    const unsigned g1 = _mm512_mask_cmpgt_epu64_mask(0x55, r1, bk);
    const unsigned z0 = _mm512_mask_cmpeq_epu64_mask(0xAA, r0, zz);
    const unsigned z1 = _mm512_mask_cmpeq_epu64_mask(0xAA, r1, zz);
    *gt = g0 | (g1 << 8);
    *zero = (z0 | (z1 << 8)) >> 1;
  }

  __attribute__((target("avx512f"))) static std::size_t CollectEqU32(
      const std::uint32_t* a, std::size_t n, std::uint32_t v,
      std::uint32_t* out) {
    const __m512i vv = _mm512_set1_epi32(static_cast<int>(v));
    std::size_t c = 0, i = 0;
    for (; i + 16 <= n; i += 16) {
      unsigned m = _mm512_cmpeq_epu32_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)), vv);
      while (m != 0) {
        out[c++] = static_cast<std::uint32_t>(
            i + static_cast<std::size_t>(__builtin_ctz(m)));
        m &= m - 1;
      }
    }
    for (; i < n; ++i)
      if (a[i] == v) out[c++] = static_cast<std::uint32_t>(i);
    return c;
  }
};

#endif  // FASTFAIR_SIMD_X86

// ---------------------------------------------------------------------------
// Runtime-dispatched convenience wrappers (one predictable switch per call;
// hot paths that care resolve a function pointer per kernel instead — see
// core/node_search_simd.h).
// ---------------------------------------------------------------------------

/// ByteEqMask on the active ISA. Same 64-readable-bytes contract as the
/// kernel structs.
std::uint64_t ByteEqMask(const std::uint8_t* a, std::size_t n,
                         std::uint8_t v);

/// CollectEqU32 on the active ISA.
std::size_t CollectEqU32(const std::uint32_t* a, std::size_t n,
                         std::uint32_t v, std::uint32_t* out);

}  // namespace fastfair::simd
