// SIMD intra-node search preserving the FAST lock-free read protocol
// (DESIGN.md §9).
//
// The scalar readers in node_ops.h walk records one slot at a time so every
// (key, ptr) pair can be stabilized individually (StableRecord) and the
// whole scan validated by the switch-counter recheck. A vector load has no
// per-lane ordering, so the paper's left-to-right-reader vs
// right-to-left-writer argument does not transfer to it: a reader could
// observe slot i already shifted and slot i+1 not yet, and miss a key that
// was present throughout.
//
// So a vector compare here only *nominates*: movemask candidates straight
// off the live record area, then push every candidate through exactly the
// scalar acceptance checks — StableRecord on the slot, a fresh
// left-neighbour ptr for the duplicate-slot test, and the switch recheck.
// A candidate that passes is as validated as a scalar hit (the torn vector
// load only nominated it). What a torn load can do is fail to nominate a
// present key, so a vector miss is not trusted: a miss, a failed
// validation and a second switch flip all go to the scalar reader
// (NodeOps), whose per-slot stabilization answers them under the paper's
// argument. Range scans collect leaves with the scalar reader directly.
//
// Only memory policies with coherent raw loads (RealMem) may read the
// record area with plain vector loads; for anything else (crash-sim shadow
// memory) every entry point here resolves to the scalar NodeOps reference.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/defs.h"
#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node_ops.h"

namespace fastfair::core {

namespace detail {
template <class Mem>
constexpr bool MemHasCoherentRawLoads() {
  if constexpr (requires { Mem::kCoherentRawLoads; }) {
    return Mem::kCoherentRawLoads;
  } else {
    return false;
  }
}
}  // namespace detail

template <class NodeT, class Mem>
struct SimdNodeOps {
  using N = NodeT;
  using Ops = NodeOps<NodeT, Mem>;
  static constexpr int kCap = N::kCapacity;
  static constexpr int kSlots = kCap + 1;  // record area incl. spill slot
  using LeafFn = Value (*)(Mem&, const N*, Key);
  using ChildFn = std::uint64_t (*)(Mem&, const N*, Key);

  // --- direct fast path ------------------------------------------------------

  /// Outcome of one direct-scan attempt over the live record area.
  enum ProbeState {
    kHit,   // validated hit, switch unchanged: *out is the answer
    kMiss,  // no candidate survived: only the scalar reader may answer
    kFlip,  // switch counter moved mid-scan: rescan under the new phase
    kBail   // a record failed validation: the scalar reader takes over
  };

  // Block geometry for the direct scans: full kRecWidth-record kernel
  // blocks; the tail (kSlots not a width multiple) is one *overlapped*
  // block re-reading the last kRecWidth records, so no vector load runs
  // past the record area and no slot needs a scalar policy-load pass.
  // Every instantiated node has at least one full block (the smallest,
  // 256 B, has 12 slots; the widest kernel block is 8 records).

  /// Stride-2 eq/zero masks (simd::kMaskStride: record base+l maps to bit
  /// 2l) for one block of `lanes` records at `base`. `lanes` is kRecWidth
  /// for every block except a smaller node-tail remainder, which is
  /// served by the overlap block.
  template <class K>
  static void BlockEqMasks(const N* n, std::size_t base, std::size_t lanes,
                           Key key, unsigned* eq, unsigned* z) {
    constexpr std::size_t W = K::kRecWidth;
    static_assert(static_cast<std::size_t>(kSlots) >= W);
    const std::uint64_t* recs =
        reinterpret_cast<const std::uint64_t*>(n->records);
    if (lanes == W) {
      K::RecordEqZero(recs + 2 * base, key, eq, z);
      return;
    }
    const std::size_t drop = W - lanes;  // records the last block repeats
    unsigned be, bz;
    K::RecordEqZero(recs + 2 * (static_cast<std::size_t>(kSlots) - W), key,
                    &be, &bz);
    *eq = be >> (2 * drop);
    *z = bz >> (2 * drop);
  }

  /// Same block contract with an unsigned key > target compare.
  template <class K>
  static void BlockGtMasks(const N* n, std::size_t base, std::size_t lanes,
                           Key key, unsigned* gt, unsigned* z) {
    constexpr std::size_t W = K::kRecWidth;
    static_assert(static_cast<std::size_t>(kSlots) >= W);
    const std::uint64_t* recs =
        reinterpret_cast<const std::uint64_t*>(n->records);
    if (lanes == W) {
      K::RecordGtZero(recs + 2 * base, key, gt, z);
      return;
    }
    const std::size_t drop = W - lanes;
    unsigned bg, bz;
    K::RecordGtZero(recs + 2 * (static_cast<std::size_t>(kSlots) - W), key,
                    &bg, &bz);
    *gt = bg >> (2 * drop);
    *z = bz >> (2 * drop);
  }

  /// Insert-phase direct probe: leftmost valid match wins, the scan stops
  /// at the terminator (first zero ptr; the slot-0 transient hole is not a
  /// terminator). Vector masks only *nominate* slots — every returned hit
  /// passed StableRecord, the left-neighbour duplicate test against a live
  /// load, and the switch recheck, exactly the scalar acceptance tests.
  template <class K>
  static ProbeState FastLeafEven(Mem& m, const N* n, Key key,
                                 std::uint32_t sw, Value* out) {
    constexpr std::size_t W = K::kRecWidth;
    int pos = -1;
    for (std::size_t base = 0; base < static_cast<std::size_t>(kSlots);
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned eq, z;
      BlockEqMasks<K>(n, base, lanes, key, &eq, &z);
      if (base == 0 && (z & 1u) != 0 && lanes >= 2 && (z & 4u) == 0) {
        z &= ~1u;  // slot-0 transient hole
      }
      if ((eq | z) == 0) continue;  // nothing of interest in this block
      const unsigned limit = z != 0 ? static_cast<unsigned>(__builtin_ctz(z))
                                    : static_cast<unsigned>(2 * lanes);
      const unsigned cand = eq & ((1u << limit) - 1u);
      if (cand != 0) {
        pos = static_cast<int>(base) +
              static_cast<int>(__builtin_ctz(cand)) / 2;
        break;
      }
      if (z != 0) break;  // terminator: remaining slots are dead
    }
    if (pos < 0) return kMiss;
    // Single-candidate validation: any anomaly (torn read, raced-away key,
    // transient duplicate) bails to the scalar reader rather than rescanning.
    // The left neighbour's ptr is read before the candidate, the order the
    // scalar left-to-right reader sees them in: a right-shifting writer
    // fills slot pos with a duplicate of pos-1's ptr before it touches
    // pos-1, so a later left load could already see pos-1's new ptr and
    // pass the duplicate off as a valid record holding its left
    // neighbour's value.
    const std::uint64_t left = pos == 0 ? 0 : Ops::LoadPtrAt(m, n, pos - 1);
    Key k;
    std::uint64_t p;
    if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
    if (k != key || p == 0 || p == left) return kBail;
    if (Ops::LoadSwitch(m, n) != sw) return kFlip;
    *out = p;
    return kHit;
  }

  /// Delete-phase direct probe: rightmost valid match below the terminator
  /// wins, as in the scalar right-to-left scan. One forward sweep collects
  /// the per-block eq masks and the terminator, then candidates are
  /// validated in descending slot order.
  template <class K>
  static ProbeState FastLeafOdd(Mem& m, const N* n, Key key,
                                std::uint32_t sw, Value* out) {
    constexpr std::size_t W = K::kRecWidth;
    constexpr std::size_t kBlocks = (static_cast<std::size_t>(kSlots) + W - 1) / W;
    unsigned eqs[kBlocks];
    std::size_t term = kSlots;
    std::size_t nb = 0;
    for (std::size_t base = 0; base < static_cast<std::size_t>(kSlots);
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned eq, z;
      BlockEqMasks<K>(n, base, lanes, key, &eq, &z);
      if (base == 0 && (z & 1u) != 0 && lanes >= 2 && (z & 4u) == 0) {
        z &= ~1u;  // slot-0 transient hole
      }
      eqs[nb++] = eq;
      if (z != 0) {
        term = base + static_cast<unsigned>(__builtin_ctz(z)) / 2;
        break;
      }
    }
    for (std::size_t b = nb; b-- > 0;) {
      const std::size_t base = b * W;
      if (base >= term) continue;
      unsigned cand = eqs[b];
      const std::size_t live = term - base;  // records below the terminator
      if (live < 16) cand &= (1u << (2 * live)) - 1u;
      while (cand != 0) {
        const int bit = 31 - __builtin_clz(cand);
        cand ^= 1u << bit;
        const int pos = static_cast<int>(base) + bit / 2;
        Key k;
        std::uint64_t p;
        if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
        if (k != key || p == 0) continue;  // raced away / hole
        const std::uint64_t left =
            pos == 0 ? 0 : Ops::LoadPtrAt(m, n, pos - 1);
        if (p == left) continue;  // transient duplicate slot
        if (Ops::LoadSwitch(m, n) != sw) return kFlip;
        *out = p;
        return kHit;
      }
    }
    return kMiss;
  }

  /// Internal-node direct probe: find the leftmost valid record with
  /// key > target (RecordGtZero nominates, StableRecord + duplicate test
  /// confirm), then route to the ptr one slot left of that boundary — or
  /// hdr.leftmost when the boundary is the first live slot.
  template <class K>
  static ProbeState FastInternal(Mem& m, const N* n, Key key,
                                 std::uint32_t sw, std::uint64_t leftmost,
                                 std::uint64_t* out) {
    constexpr std::size_t W = K::kRecWidth;
    const int first = Ops::FirstValidSlot(m, n);
    std::size_t bound = kSlots;
    bool found_gt = false;
    bool terminated = false;
    for (std::size_t base = 0;
         base < static_cast<std::size_t>(kSlots) && !found_gt && !terminated;
         base += W) {
      const std::size_t lanes =
          std::min(W, static_cast<std::size_t>(kSlots) - base);
      unsigned gt, z;
      BlockGtMasks<K>(n, base, lanes, key, &gt, &z);
      if (base == 0 && first == 1) {
        gt &= ~1u;  // slot-0 hole is skipped entirely
        z &= ~1u;
      }
      const unsigned limit = z != 0 ? static_cast<unsigned>(__builtin_ctz(z))
                                    : static_cast<unsigned>(2 * lanes);
      unsigned cand = gt & ((1u << limit) - 1u);
      while (cand != 0) {
        const int pos = static_cast<int>(base) + __builtin_ctz(cand) / 2;
        cand &= cand - 1;
        Key k;
        std::uint64_t p;
        if (!Ops::StableRecord(m, n, pos, &k, &p)) return kBail;
        if (p == 0 || key >= k) continue;  // raced away: not a boundary
        const std::uint64_t left =
            pos == first ? leftmost : Ops::LoadPtrAt(m, n, pos - 1);
        if (p == left) continue;  // transient duplicate slot
        bound = static_cast<std::size_t>(pos);
        found_gt = true;
        break;
      }
      if (!found_gt && limit < 2 * lanes) {
        bound = base + limit / 2;  // terminator: key >= every live separator
        terminated = true;
      }
    }
    std::uint64_t child;
    if (bound <= static_cast<std::size_t>(first)) {
      child = leftmost;
      if (child == 0) {
        // Degenerate pre-leftmost node: the first child is a safe miss,
        // mirroring the scalar reader's p0 fallback.
        if (Ops::LoadSwitch(m, n) != sw) return kFlip;
        const std::uint64_t p0 = Ops::LoadPtrAt(m, n, 0);
        if (p0 == 0) return kBail;
        *out = p0;
        return kHit;
      }
      if (Ops::LoadLeftmost(m, n) != child) return kFlip;
    } else {
      Key k;
      if (!Ops::StableRecord(m, n, static_cast<int>(bound) - 1, &k, &child)) {
        return kBail;
      }
      // Duplicate slots carry the valid left ptr, so `child` is correct
      // even when bound-1 is mid-shift transient. A key above the target
      // means the torn vector load missed a boundary further left (a
      // delete shift moved it down after the load): routing to this ptr
      // would land right of the key, which no B-link walk recovers from.
      // Every transient slot holds a key >= its ptr's own separator, so
      // k <= key bounds the route at or left of the key's child.
      if (child == 0 || k > key) return kBail;
    }
    if (Ops::LoadSwitch(m, n) != sw) return kFlip;
    *out = child;
    return kHit;
  }

  /// Vector SearchLeaf: same contract as Ops::SearchLeaf. Hits resolve in
  /// the direct in-register scan; a miss, a failed validation or a second
  /// switch flip is answered by the scalar reader.
  template <class K>
  static Value SearchLeaf(Mem& m, const N* n, Key key) {
    for (int round = 0; round < 2; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      Value hit = kNoValue;
      const ProbeState st = sw % 2 == 0 ? FastLeafEven<K>(m, n, key, sw, &hit)
                                        : FastLeafOdd<K>(m, n, key, sw, &hit);
      if (st == kHit) return hit;
      if (st != kFlip) break;
    }
    return Ops::SearchLeaf(m, n, key);
  }

  /// Vector SearchInternal: same contract as Ops::SearchInternal, with the
  /// same direct-probe-then-scalar structure as SearchLeaf.
  template <class K>
  static std::uint64_t SearchInternal(Mem& m, const N* n, Key key) {
    for (int round = 0; round < 2; ++round) {
      const std::uint32_t sw = Ops::LoadSwitch(m, n);
      const std::uint64_t leftmost = Ops::LoadLeftmost(m, n);
      std::uint64_t child = 0;
      const ProbeState st = FastInternal<K>(m, n, key, sw, leftmost, &child);
      if (st == kHit) return child;
      if (st != kFlip) break;
    }
    return Ops::SearchInternal(m, n, key);
  }

  // --- runtime dispatch ------------------------------------------------------

  /// Function pointer for `isa`, or the scalar reference when the ISA is
  /// scalar/unavailable or the policy lacks coherent raw loads. nullptr is
  /// never returned.
  static LeafFn LeafSearchFor(simd::Isa isa) {
    if constexpr (detail::MemHasCoherentRawLoads<Mem>()) {
      switch (isa) {
#if defined(FASTFAIR_SIMD_X86)
        case simd::Isa::kAvx2:
          return &SearchLeaf<simd::Avx2Kernels>;
        case simd::Isa::kAvx512:
          return &SearchLeaf<simd::Avx512Kernels>;
#endif
        default:
          break;
      }
    }
    return &Ops::SearchLeaf;
  }

  static ChildFn ChildSearchFor(simd::Isa isa) {
    if constexpr (detail::MemHasCoherentRawLoads<Mem>()) {
      switch (isa) {
#if defined(FASTFAIR_SIMD_X86)
        case simd::Isa::kAvx2:
          return &SearchInternal<simd::Avx2Kernels>;
        case simd::Isa::kAvx512:
          return &SearchInternal<simd::Avx512Kernels>;
#endif
        default:
          break;
      }
    }
    return &Ops::SearchInternal;
  }
};

}  // namespace fastfair::core
