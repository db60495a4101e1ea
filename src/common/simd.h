// Runtime-dispatched SIMD kernels for the hot search paths (DESIGN.md §9).
//
// FAST+FAIR's lock-free readers walk node records one slot at a time so
// every load can be validated (StableRecord + switch recheck). The SIMD
// layer keeps that protocol but vectorizes the *candidate location* step:
// take a double-read-stabilized snapshot of the record area, movemask a
// vector key compare over it, then re-validate only the winning slot
// through the scalar policy loads. This header supplies the primitive
// kernels; core/node_search_simd.h builds the node protocol on top.
//
// Three ISA paths — scalar / AVX2 / AVX-512 — compiled with per-function
// target attributes (no global -march), selected once at startup from
// cpuid and overridable with FASTFAIR_SIMD=scalar|avx2|avx512 (unsupported
// or unknown values clamp to scalar; unset or "auto" picks the best the
// CPU offers). Off x86-64 only the scalar path is compiled. The scalar
// path is the reference implementation; every vector kernel must be
// bit-identical to it on the same input (tests/simd_search_test.cc
// enforces this per ISA).
//
// Contract notes shared by all kernels:
//  * u64 Find* kernels scan [from, to) of an array the caller guarantees
//    readable up to RoundUpSlots(to) elements — snapshot arrays are padded
//    for exactly this reason. Gt is an unsigned comparison.
//  * ByteEqMask requires 64 readable bytes at `a` even when n < 64 (the
//    callers point it at in-struct arrays with trailing members).
//  * CollectEqU32 has no padding requirement (vector body + scalar tail).
//  * SnapshotRecords/VerifyRecords read a {key, ptr} record array (16-byte
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

inline constexpr std::size_t kNpos = ~std::size_t{0};

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

/// Number of u64 lanes a kernel touches per block for `isa` (snapshot
/// arrays must be padded to a multiple of the largest, kMaxU64Lanes).
inline constexpr std::size_t kMaxU64Lanes = 8;

/// Rounds a slot count up to the snapshot padding boundary.
constexpr std::size_t RoundUpSlots(std::size_t n) {
  return (n + kMaxU64Lanes - 1) & ~(kMaxU64Lanes - 1);
}

/// RecordEqZero/RecordGtZero masks place record l's bit at position
/// kMaskStride * l: the stride-2 layout is the natural shape of an
/// interleaved {key, ptr} vector compare (key lanes are the even lanes),
/// so wide ISAs skip the deinterleave shuffle entirely.
inline constexpr std::size_t kMaskStride = 2;

// ---------------------------------------------------------------------------
// Scalar kernels: the reference implementation.
// ---------------------------------------------------------------------------

struct ScalarKernels {
  static constexpr Isa kIsa = Isa::kScalar;

  /// Deinterleaves nrec {key, ptr} records (16-byte stride) at `recs` into
  /// keys[] / ptrs[].
  static void CopyRecords(const void* recs, std::size_t nrec,
                          std::uint64_t* keys, std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    for (std::size_t i = 0; i < nrec; ++i) {
      keys[i] = r[2 * i];
      ptrs[i] = r[2 * i + 1];
    }
  }

  /// Re-reads the record area and compares against a previous CopyRecords
  /// result; false means a concurrent writer moved something in between.
  static bool VerifyRecords(const void* recs, std::size_t nrec,
                            const std::uint64_t* keys,
                            const std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < nrec; ++i) {
      diff |= keys[i] ^ r[2 * i];
      diff |= ptrs[i] ^ r[2 * i + 1];
    }
    return diff == 0;
  }

  /// First i in [from, to) with a[i] == v, else kNpos.
  static std::size_t FindFirstEq(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v) {
    for (std::size_t i = from; i < to; ++i)
      if (a[i] == v) return i;
    return kNpos;
  }

  /// First i in [from, to) with a[i] > v (unsigned), else kNpos.
  static std::size_t FindFirstGt(const std::uint64_t* a, std::size_t from,
                                 std::size_t to, std::uint64_t v) {
    for (std::size_t i = from; i < to; ++i)
      if (a[i] > v) return i;
    return kNpos;
  }

  /// First i in [from, to) with a[i] == 0, else kNpos.
  static std::size_t FindFirstZero(const std::uint64_t* a, std::size_t from,
                                   std::size_t to) {
    return FindFirstEq(a, from, to, 0);
  }

  /// Last i in [from, to) with a[i] == v, else kNpos.
  static std::size_t FindLastEq(const std::uint64_t* a, std::size_t from,
                                std::size_t to, std::uint64_t v) {
    for (std::size_t i = to; i > from; --i)
      if (a[i - 1] == v) return i - 1;
    return kNpos;
  }

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

  /// Records a kernel block can mask in one shot (see RecordEqZero).
  static constexpr std::size_t kRecWidth = 2;

  /// Direct masks over kRecWidth interleaved {key, ptr} records at r (no
  /// snapshot): bit 2l of *eq set iff r[2l] == key, bit 2l of *zero set
  /// iff r[2l + 1] == 0. The stride-2 bit layout (record l at bit 2l,
  /// kMaskStride) lets wide ISAs compare the interleaved record bytes
  /// in place — one vector load, no cross-lane shuffles — and hand back
  /// the compare mask with the off-lanes masked off. The caller owns
  /// making something of a possibly-torn observation
  /// (node_search_simd.h revalidates every candidate through the scalar
  /// policy loads).
  static void RecordEqZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* eq, unsigned* zero) {
    unsigned e = 0, z = 0;
    for (std::size_t l = 0; l < kRecWidth; ++l) {
      if (r[2 * l] == key) e |= 1u << (2 * l);
      if (r[2 * l + 1] == 0) z |= 1u << (2 * l);
    }
    *eq = e;
    *zero = z;
  }

  /// Same shape with an unsigned > compare on the keys (internal-node
  /// boundary location).
  static void RecordGtZero(const std::uint64_t* r, std::uint64_t key,
                           unsigned* gt, unsigned* zero) {
    unsigned g = 0, z = 0;
    for (std::size_t l = 0; l < kRecWidth; ++l) {
      if (r[2 * l] > key) g |= 1u << (2 * l);
      if (r[2 * l + 1] == 0) z |= 1u << (2 * l);
    }
    *gt = g;
    *zero = z;
  }
};

#if defined(FASTFAIR_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 keys per 256-bit compare.
// ---------------------------------------------------------------------------

struct Avx2Kernels {
  static constexpr Isa kIsa = Isa::kAvx2;

  __attribute__((target("avx2"))) static void CopyRecords(
      const void* recs, std::size_t nrec, std::uint64_t* keys,
      std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    std::size_t i = 0;
    for (; i + 4 <= nrec; i += 4) {
      const __m256i r0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(r + 2 * i));  // k0 p0 k1 p1
      const __m256i r1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(r + 2 * i + 4));  // k2 p2 k3 p3
      // unpacklo -> [k0 k2 k1 k3]; permute lanes (0,2,1,3) restores order.
      const __m256i lo = _mm256_unpacklo_epi64(r0, r1);
      const __m256i hi = _mm256_unpackhi_epi64(r0, r1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i),
                          _mm256_permute4x64_epi64(lo, 0xD8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(ptrs + i),
                          _mm256_permute4x64_epi64(hi, 0xD8));
    }
    if (i < nrec)
      ScalarKernels::CopyRecords(r + 2 * i, nrec - i, keys + i, ptrs + i);
  }

  __attribute__((target("avx2"))) static bool VerifyRecords(
      const void* recs, std::size_t nrec, const std::uint64_t* keys,
      const std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= nrec; i += 4) {
      const __m256i r0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 2 * i));
      const __m256i r1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 2 * i + 4));
      const __m256i k = _mm256_permute4x64_epi64(
          _mm256_unpacklo_epi64(r0, r1), 0xD8);
      const __m256i p = _mm256_permute4x64_epi64(
          _mm256_unpackhi_epi64(r0, r1), 0xD8);
      acc = _mm256_or_si256(
          acc, _mm256_xor_si256(k, _mm256_loadu_si256(
                                       reinterpret_cast<const __m256i*>(
                                           keys + i))));
      acc = _mm256_or_si256(
          acc, _mm256_xor_si256(p, _mm256_loadu_si256(
                                       reinterpret_cast<const __m256i*>(
                                           ptrs + i))));
    }
    bool ok = _mm256_testz_si256(acc, acc) != 0;
    if (i < nrec)
      ok = ScalarKernels::VerifyRecords(r + 2 * i, nrec - i, keys + i,
                                        ptrs + i) &&
           ok;
    return ok;
  }

  __attribute__((target("avx2"))) static std::size_t FindFirstEq(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    const __m256i vv = _mm256_set1_epi64x(static_cast<long long>(v));
    for (std::size_t i = from & ~std::size_t{3}; i < to; i += 4) {
      unsigned m = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
              vv))));
      if (i < from) m &= ~0u << (from - i);
      if (m != 0) {
        const std::size_t idx =
            i + static_cast<std::size_t>(__builtin_ctz(m));
        return idx < to ? idx : kNpos;
      }
    }
    return kNpos;
  }

  __attribute__((target("avx2"))) static std::size_t FindFirstGt(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    // AVX2 has only signed 64-bit >: bias both sides by 2^63.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i vv = _mm256_xor_si256(
        _mm256_set1_epi64x(static_cast<long long>(v)), bias);
    for (std::size_t i = from & ~std::size_t{3}; i < to; i += 4) {
      const __m256i x = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)), bias);
      unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(x, vv))));
      if (i < from) m &= ~0u << (from - i);
      if (m != 0) {
        const std::size_t idx =
            i + static_cast<std::size_t>(__builtin_ctz(m));
        return idx < to ? idx : kNpos;
      }
    }
    return kNpos;
  }

  __attribute__((target("avx2"))) static std::size_t FindFirstZero(
      const std::uint64_t* a, std::size_t from, std::size_t to) {
    return FindFirstEq(a, from, to, 0);
  }

  __attribute__((target("avx2"))) static std::size_t FindLastEq(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    const __m256i vv = _mm256_set1_epi64x(static_cast<long long>(v));
    const std::size_t first_blk = from & ~std::size_t{3};
    std::size_t i = (to - 1) & ~std::size_t{3};
    for (;; i -= 4) {
      unsigned m = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
              vv))));
      if (i + 4 > to) m &= (1u << (to - i)) - 1u;
      if (i < from) m &= ~0u << (from - i);
      if (m != 0)
        return i + static_cast<std::size_t>(31 - __builtin_clz(m));
      if (i == first_blk) return kNpos;
    }
  }

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

  __attribute__((target("avx512f"))) static void CopyRecords(
      const void* recs, std::size_t nrec, std::uint64_t* keys,
      std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    const __m512i idxk =
        _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i idxp =
        _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    std::size_t i = 0;
    for (; i + 8 <= nrec; i += 8) {
      const __m512i r0 =
          _mm512_loadu_si512(reinterpret_cast<const void*>(r + 2 * i));
      const __m512i r1 =
          _mm512_loadu_si512(reinterpret_cast<const void*>(r + 2 * i + 8));
      _mm512_storeu_si512(reinterpret_cast<void*>(keys + i),
                          _mm512_permutex2var_epi64(r0, idxk, r1));
      _mm512_storeu_si512(reinterpret_cast<void*>(ptrs + i),
                          _mm512_permutex2var_epi64(r0, idxp, r1));
    }
    if (i < nrec)
      ScalarKernels::CopyRecords(r + 2 * i, nrec - i, keys + i, ptrs + i);
  }

  __attribute__((target("avx512f"))) static bool VerifyRecords(
      const void* recs, std::size_t nrec, const std::uint64_t* keys,
      const std::uint64_t* ptrs) {
    const auto* r = static_cast<const std::uint64_t*>(recs);
    const __m512i idxk = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i idxp = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    __mmask8 bad = 0;
    std::size_t i = 0;
    for (; i + 8 <= nrec; i += 8) {
      const __m512i r0 =
          _mm512_loadu_si512(reinterpret_cast<const void*>(r + 2 * i));
      const __m512i r1 =
          _mm512_loadu_si512(reinterpret_cast<const void*>(r + 2 * i + 8));
      bad |= _mm512_cmpneq_epu64_mask(
          _mm512_permutex2var_epi64(r0, idxk, r1),
          _mm512_loadu_si512(reinterpret_cast<const void*>(keys + i)));
      bad |= _mm512_cmpneq_epu64_mask(
          _mm512_permutex2var_epi64(r0, idxp, r1),
          _mm512_loadu_si512(reinterpret_cast<const void*>(ptrs + i)));
    }
    bool ok = bad == 0;
    if (i < nrec)
      ok = ScalarKernels::VerifyRecords(r + 2 * i, nrec - i, keys + i,
                                        ptrs + i) &&
           ok;
    return ok;
  }

  __attribute__((target("avx512f"))) static std::size_t FindFirstEq(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    const __m512i vv = _mm512_set1_epi64(static_cast<long long>(v));
    for (std::size_t i = from & ~std::size_t{7}; i < to; i += 8) {
      unsigned m = _mm512_cmpeq_epu64_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)), vv);
      if (i < from) m &= ~0u << (from - i);
      if (m != 0) {
        const std::size_t idx =
            i + static_cast<std::size_t>(__builtin_ctz(m));
        return idx < to ? idx : kNpos;
      }
    }
    return kNpos;
  }

  __attribute__((target("avx512f"))) static std::size_t FindFirstGt(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    const __m512i vv = _mm512_set1_epi64(static_cast<long long>(v));
    for (std::size_t i = from & ~std::size_t{7}; i < to; i += 8) {
      unsigned m = _mm512_cmpgt_epu64_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)), vv);
      if (i < from) m &= ~0u << (from - i);
      if (m != 0) {
        const std::size_t idx =
            i + static_cast<std::size_t>(__builtin_ctz(m));
        return idx < to ? idx : kNpos;
      }
    }
    return kNpos;
  }

  __attribute__((target("avx512f"))) static std::size_t FindFirstZero(
      const std::uint64_t* a, std::size_t from, std::size_t to) {
    return FindFirstEq(a, from, to, 0);
  }

  __attribute__((target("avx512f"))) static std::size_t FindLastEq(
      const std::uint64_t* a, std::size_t from, std::size_t to,
      std::uint64_t v) {
    if (from >= to) return kNpos;
    const __m512i vv = _mm512_set1_epi64(static_cast<long long>(v));
    const std::size_t first_blk = from & ~std::size_t{7};
    std::size_t i = (to - 1) & ~std::size_t{7};
    for (;; i -= 8) {
      unsigned m = _mm512_cmpeq_epu64_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(a + i)), vv);
      if (i + 8 > to) m &= (1u << (to - i)) - 1u;
      if (i < from) m &= ~0u << (from - i);
      if (m != 0)
        return i + static_cast<std::size_t>(31 - __builtin_clz(m));
      if (i == first_blk) return kNpos;
    }
  }

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
