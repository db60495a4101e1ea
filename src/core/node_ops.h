// FAST and FAIR node-level algorithms (paper §3, Algorithms 1-3).
//
// Every routine here is templated over a memory policy `Mem` (see
// core/mem_policy.h): production code instantiates with RealMem, the crash
// test-suite with crashsim::SimMem, and crash-image validation with read-only
// image policies.  This is how the repository substitutes for the paper's
// physical power-off experiments: the code whose crash states are enumerated
// is byte-for-byte the code the production tree executes.
//
// Store-ordering contracts implemented here (checked exhaustively by the
// §5.2 crash-state enumeration and the crash tests):
//
//  * FAST insert (right shift, writer moves right-to-left, readers scan
//    left-to-right): for each shifted record, ptr before key; one
//    flush+fence whenever the shift crosses into a lower cache line; the
//    final 8-byte ptr store is the commit.
//  * FAST delete (left shift, writer moves left-to-right, readers scan
//    right-to-left): one 8-byte store duplicating the left neighbour's ptr
//    commits the delete; the compaction shift stores key before ptr so the
//    rightmost valid match a backward reader takes is always current.
//  * FAIR split: sibling populated and flushed while unreachable; the
//    8-byte sibling-pointer store is the commit; the 8-byte terminator
//    store truncates the left node afterwards.
//
// A record's key is valid iff its ptr differs from its left neighbour's ptr
// (hdr.leftmost for slot 0 of internal nodes).  A zero ptr terminates the
// array, except that slot 0 may be a transient *hole* (zero ptr, live entry
// at slot 1) while a leaf insert or delete at position 0 is in flight —
// slot 0 has no left neighbour to duplicate, so invalidation uses the zero
// ptr instead and readers/recovery skip the hole.

#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/defs.h"
#include "core/node.h"

namespace fastfair::core {

template <class NodeT, class Mem>
struct NodeOps {
  using N = NodeT;
  static constexpr int kCap = N::kCapacity;

  // --- field accessors (all 8/4-byte, through the policy) -------------------

  static std::uint64_t LoadKeyAt(Mem& m, const N* n, int i) {
    return m.Load64(&n->records[i].key);
  }
  static std::uint64_t LoadPtrAt(Mem& m, const N* n, int i) {
    return m.Load64(&n->records[i].ptr);
  }
  static void StoreKeyAt(Mem& m, N* n, int i, std::uint64_t v) {
    m.Store64(const_cast<std::uint64_t*>(&n->records[i].key), v);
  }
  static void StorePtrAt(Mem& m, N* n, int i, std::uint64_t v) {
    m.Store64(const_cast<std::uint64_t*>(&n->records[i].ptr), v);
  }
  static std::uint64_t LoadLeftmost(Mem& m, const N* n) {
    return m.Load64(&n->hdr.leftmost);
  }
  static void StoreLeftmost(Mem& m, N* n, std::uint64_t v) {
    m.Store64(&n->hdr.leftmost, v);
  }
  static std::uint64_t LoadSibling(Mem& m, const N* n) {
    return m.Load64(&n->hdr.sibling);
  }
  static void StoreSibling(Mem& m, N* n, std::uint64_t v) {
    m.Store64(&n->hdr.sibling, v);
  }
  static Key LoadFence(Mem& m, const N* n) { return m.Load64(&n->hdr.fence); }
  static void StoreFence(Mem& m, N* n, Key v) { m.Store64(&n->hdr.fence, v); }
  // The switch counter shares an 8-byte word with level/reserved; it is only
  // written under the node write lock, so read-modify-write of the word is
  // safe, and 8-byte stores keep the policy interface uniform.
  static std::uint64_t* SwitchWord(const N* n) {
    return reinterpret_cast<std::uint64_t*>(
        const_cast<std::uint32_t*>(&n->hdr.switch_counter));
  }
  static std::uint32_t LoadSwitch(Mem& m, const N* n) {
    return static_cast<std::uint32_t>(m.Load64(SwitchWord(n)));
  }
  static void BumpSwitch(Mem& m, N* n) {
    const std::uint64_t w = m.Load64(SwitchWord(n));
    const std::uint32_t sc = static_cast<std::uint32_t>(w) + 1;
    m.Store64(SwitchWord(n), (w & 0xffffffff00000000ull) | sc);
  }

  static bool AtLineStart(const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize == 0;
  }

  // The dead flag shares its 8-byte word with switch_counter and level;
  // it is only written under the node write lock.
  static bool IsDead(Mem& m, const N* n) {
    return ((m.Load64(SwitchWord(n)) >> 48) & kNodeDead) != 0;
  }
  static void MarkDead(Mem& m, N* n) {
    const std::uint64_t w = m.Load64(SwitchWord(n));
    m.Store64(SwitchWord(n), w | (static_cast<std::uint64_t>(kNodeDead) << 48));
    m.Flush(&n->hdr);
    m.Fence();
  }

  // --- counting --------------------------------------------------------------

  /// Index of the first potentially-live slot given slot 0's already-loaded
  /// ptr `p0`: 1 when slot 0 is a transient hole (zero ptr but a live entry
  /// at 1), else 0. The lock-free scans pass the stabilized p0 they hold so
  /// no extra slot-0 load (which could race a concurrent commit) happens.
  static int FirstValidSlot(Mem& m, const N* n, std::uint64_t p0) {
    return p0 == 0 && kCap >= 1 && LoadPtrAt(m, n, 1) != 0 ? 1 : 0;
  }

  /// Fresh-load overload for writer-side / quiescent callers.
  static int FirstValidSlot(Mem& m, const N* n) {
    return FirstValidSlot(m, n, LoadPtrAt(m, n, 0));
  }

  /// True if slot 0 is a transient hole (zero ptr but a live entry at 1).
  static bool HasHoleAtZero(Mem& m, const N* n) {
    return FirstValidSlot(m, n) == 1;
  }

  /// Number of used slots including any slot-0 hole (i.e. index of the
  /// terminator).  Writer-side usage assumes the node was fixed first.
  /// Slot 0's ptr is loaded once: a lock-free reader that saw it live must
  /// not load it again and meet the zero-ptr hole of a slot-0 delete
  /// committing in between, which would count a live node as empty.
  static int CountRaw(Mem& m, const N* n) {
    const std::uint64_t p0 = LoadPtrAt(m, n, 0);
    int i = FirstValidSlot(m, n, p0);
    if (i == 0 && p0 == 0) return 0;
    do {
      ++i;
    } while (i <= kCap && LoadPtrAt(m, n, i) != 0);
    return i;
  }

  // --- direction control (paper §4: flag even=insert, odd=delete) -----------

  static void EnsureInsertDirection(Mem& m, N* n) {
    if (LoadSwitch(m, n) % 2 == 1) {
      BumpSwitch(m, n);
      // Persist the direction before any shifted data can become durable:
      // post-crash readers must scan a right-shifted node left-to-right.
      m.Flush(&n->hdr);
      m.Fence();
    }
  }

  static void EnsureDeleteDirection(Mem& m, N* n) {
    if (LoadSwitch(m, n) % 2 == 0) {
      BumpSwitch(m, n);
      m.Flush(&n->hdr);
      m.Fence();
    }
  }

  // --- FAST insert (Algorithm 1 core) ----------------------------------------

  /// Inserts (key, val) into a non-full node. Caller holds the write lock,
  /// has run FixNode, and guarantees the key is absent and count < kCap.
  static void InsertKey(Mem& m, N* n, Key key, Value val) {
    assert(val != kNoValue);
    EnsureInsertDirection(m, n);
    const int cnt = CountRaw(m, n);
    assert(cnt < kCap);

    if (cnt == 0) {
      // Key first, then the validating non-zero ptr: an eviction can never
      // persist the ptr without the key (same line + store order).
      StoreKeyAt(m, n, 0, key);
      m.FenceIfNotTso();
      StorePtrAt(m, n, 0, val);
      m.Flush(&n->records[0]);
      m.Fence();
      return;
    }

    // Re-establish the terminator one slot right before shifting over the
    // current one (clears stale bytes a previous delete may have left).
    StorePtrAt(m, n, cnt + 1, LoadPtrAt(m, n, cnt));
    m.FenceIfNotTso();
    if (AtLineStart(&n->records[cnt + 1])) {
      m.Flush(&n->records[cnt + 1]);
      m.Fence();
    }

    for (int i = cnt - 1; i >= 0; --i) {
      const Key ki = LoadKeyAt(m, n, i);
      if (key < ki) {
        // Shift record i to i+1: ptr first (duplicates the slot, keeping it
        // invalid), then key. Flush when about to leave this cache line for
        // the lower-addressed one.
        StorePtrAt(m, n, i + 1, LoadPtrAt(m, n, i));
        m.FenceIfNotTso();
        StoreKeyAt(m, n, i + 1, ki);
        m.FenceIfNotTso();
        if (AtLineStart(&n->records[i + 1])) {
          m.Flush(&n->records[i + 1]);
          m.Fence();
        }
      } else {
        assert(ki != key && "InsertKey requires an absent key");
        // Insert at i+1: duplicate left ptr (slot invalid), write key, then
        // commit with the 8-byte ptr store.
        StorePtrAt(m, n, i + 1, LoadPtrAt(m, n, i));
        m.FenceIfNotTso();
        StoreKeyAt(m, n, i + 1, key);
        m.FenceIfNotTso();
        StorePtrAt(m, n, i + 1, val);
        m.Flush(&n->records[i + 1]);
        m.Fence();
        return;
      }
    }

    // Smallest key in the node: slot 0. Internal nodes duplicate the
    // leftmost child ptr; leaves use 0, creating the transient hole.
    StorePtrAt(m, n, 0, LoadLeftmost(m, n));
    m.FenceIfNotTso();
    StoreKeyAt(m, n, 0, key);
    m.FenceIfNotTso();
    StorePtrAt(m, n, 0, val);
    m.Flush(&n->records[0]);
    m.Fence();
  }

  /// In-place value overwrite: one atomic 8-byte store + flush. Returns
  /// false if the key is absent. Caller holds the write lock.
  static bool UpdateKey(Mem& m, N* n, Key key, Value val) {
    const int cnt = CountRaw(m, n);
    for (int i = FirstValidSlot(m, n); i < cnt; ++i) {
      if (LoadKeyAt(m, n, i) == key) {
        StorePtrAt(m, n, i, val);
        m.Flush(&n->records[i]);
        m.Fence();
        return true;
      }
    }
    return false;
  }

  // --- FAST delete (left shift) ----------------------------------------------

  /// Compacts the array leftwards over slot `pos` (exclusive of the record
  /// at pos, which must already be invalid/deleted): records[pos..] :=
  /// records[pos+1..]. Shared by DeleteKey and FixNode. Caller has set the
  /// delete direction.
  static void ShiftLeftFrom(Mem& m, N* n, int pos, int cnt) {
    for (int i = pos; i < cnt - 1; ++i) {
      // Key first, then ptr: a backward reader prefers the rightmost valid
      // match, and slot i+1 still holds the authoritative copy until this
      // slot's ptr store lands.
      StoreKeyAt(m, n, i, LoadKeyAt(m, n, i + 1));
      m.FenceIfNotTso();
      StorePtrAt(m, n, i, LoadPtrAt(m, n, i + 1));
      m.FenceIfNotTso();
      if (AtLineStart(&n->records[i + 1])) {
        // records[i] is the last record of its line; flush before the next
        // iteration stores into the following line.
        m.Flush(&n->records[i]);
        m.Fence();
      }
    }
    StorePtrAt(m, n, cnt - 1, 0);
    m.Flush(&n->records[cnt - 1]);
    m.Fence();
  }

  /// Removes `key`. Returns false if absent. Caller holds the write lock
  /// and has run FixNode.
  static bool DeleteKey(Mem& m, N* n, Key key) {
    const int cnt = CountRaw(m, n);
    int pos = -1;
    for (int i = 0; i < cnt; ++i) {
      if (LoadKeyAt(m, n, i) == key) {
        pos = i;
        break;
      }
    }
    if (pos < 0) return false;

    EnsureDeleteDirection(m, n);
    // Commit: duplicate the left neighbour's ptr (slot-0 leaves get the
    // zero-ptr hole). One atomic 8-byte store makes the key invalid.
    const std::uint64_t left =
        pos == 0 ? LoadLeftmost(m, n) : LoadPtrAt(m, n, pos - 1);
    StorePtrAt(m, n, pos, left);
    // No flush of its own: a line persists its stores in order, and the
    // shift flushes this line before it stores into the next one, so the
    // commit reaches PM no later than any store that depends on it. The
    // barrier keeps it ahead of the shift's stores on a non-TSO model.
    m.FenceIfNotTso();
    ShiftLeftFrom(m, n, pos, cnt);
    return true;
  }

  // --- FAIR split (Algorithm 2 core) ------------------------------------------

  /// Copies records[median..cnt) of `src` into fresh, unreachable `dst`,
  /// chains dst to src's sibling, and flushes dst wholly (Alg 2 lines 9-15).
  /// The separator becomes dst's persistent low fence, so dst's range
  /// assignment survives even after every copied record is later deleted.
  static void SplitCopy(Mem& m, N* src, N* dst, int median, int cnt) {
    for (int i = median, j = 0; i < cnt; ++i, ++j) {
      StoreKeyAt(m, dst, j, LoadKeyAt(m, src, i));
      StorePtrAt(m, dst, j, LoadPtrAt(m, src, i));
    }
    StoreFence(m, dst, LoadKeyAt(m, src, median));
    StoreSibling(m, dst, LoadSibling(m, src));
    for (std::size_t off = 0; off < sizeof(N); off += kCacheLineSize) {
      m.Flush(reinterpret_cast<const char*>(dst) + off);
    }
    m.Fence();
  }

  /// Publishes the sibling (8-byte commit) and truncates the left node
  /// (8-byte terminator store), each persisted in order (Alg 2 lines 16-19).
  static void CommitSplit(Mem& m, N* src, N* dst, int median) {
    StoreSibling(m, src, reinterpret_cast<std::uint64_t>(dst));
    m.Flush(&src->hdr);
    m.Fence();
    StorePtrAt(m, src, median, 0);
    m.Flush(&src->records[median]);
    m.Fence();
  }

  // --- lock-free reads (Algorithm 3) ------------------------------------------

  /// Reads one record as a stable snapshot: re-reads the ptr after the key
  /// so a pair that raced with an in-flight shift is never acted upon.
  static bool StableRecord(Mem& m, const N* n, int i, Key* k,
                           std::uint64_t* p) {
    std::uint64_t p0 = LoadPtrAt(m, n, i);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Key key = LoadKeyAt(m, n, i);
      const std::uint64_t p1 = LoadPtrAt(m, n, i);
      if (p1 == p0) {
        *k = key;
        *p = p0;
        return true;
      }
      p0 = p1;
    }
    return false;  // pathological contention; caller retries the node
  }

  /// Lock-free point lookup in a leaf. Does not chase siblings (caller's
  /// job, it owns the traversal). Returns kNoValue when absent.
  static Value SearchLeaf(Mem& m, const N* n, Key key) {
    for (;;) {
      const std::uint32_t sw = LoadSwitch(m, n);
      Value ret = kNoValue;
      bool stable = true;
      if (sw % 2 == 0) {
        // Insert phase: scan left to right, first valid match wins.
        std::uint64_t prev = 0;  // leaf slot 0 has no left neighbour
        for (int i = 0; i <= kCap; ++i) {
          Key k;
          std::uint64_t p;
          if (!StableRecord(m, n, i, &k, &p)) {
            stable = false;
            break;
          }
          if (p == 0) {
            if (i == 0 && FirstValidSlot(m, n, p) == 1) continue;  // hole
            break;                                            // terminator
          }
          if (p == prev) {  // duplicate ptr: invalid slot
            continue;
          }
          if (k == key) {
            ret = p;
            break;
          }
          prev = p;
        }
      } else {
        // Delete phase: scan right to left, first (rightmost) valid match.
        const int cnt = CountRaw(m, n);
        for (int i = cnt - 1; i >= 0; --i) {
          Key k;
          std::uint64_t p;
          if (!StableRecord(m, n, i, &k, &p)) {
            stable = false;
            break;
          }
          if (p == 0) continue;  // hole
          const std::uint64_t left = i == 0 ? 0 : LoadPtrAt(m, n, i - 1);
          if (p == left) continue;  // invalid
          if (k == key) {
            ret = p;
            break;
          }
        }
      }
      if (stable && LoadSwitch(m, n) == sw) return ret;
      // Direction flipped (or a slot would not stabilize) mid-scan: rescan.
    }
  }

  /// Lock-free child selection in an internal node: returns the child
  /// covering `key` (never 0 for a well-formed node). The caller re-checks
  /// the sibling fence before descending.
  static std::uint64_t SearchInternal(Mem& m, const N* n, Key key) {
    for (;;) {
      const std::uint32_t sw = LoadSwitch(m, n);
      std::uint64_t child = 0;
      bool stable = true;
      std::uint64_t prev = LoadLeftmost(m, n);
      for (int i = 0; i <= kCap; ++i) {
        Key k;
        std::uint64_t p;
        if (!StableRecord(m, n, i, &k, &p)) {
          stable = false;
          break;
        }
        if (p == 0) {
          if (i == 0 && FirstValidSlot(m, n, p) == 1) continue;  // hole
          child = prev;  // ran past the last record
          break;
        }
        if (p == prev) continue;  // duplicate: invalid slot
        if (key < k) {
          child = prev;
          break;
        }
        prev = p;
      }
      if (stable && child != 0 && LoadSwitch(m, n) == sw) return child;
      if (stable && child == 0 && LoadSwitch(m, n) == sw) {
        // key >= every record: rightmost child.
        if (prev != 0) return prev;
        // Degenerate: no leftmost and the key precedes every record (the
        // low fence was disturbed). Fall back to the first child — the key
        // cannot be left of this node's true range, so the miss is safe.
        const std::uint64_t p0 = LoadPtrAt(m, n, 0);
        if (p0 != 0) return p0;
      }
    }
  }

  /// B-link fence check returning the node to hop to: the sibling handle
  /// when it exists and its low fence <= key, else 0. The persistent
  /// hdr.fence, not the sibling's first key, is the fence: with lazy
  /// unlink a drained-empty node stays linked, and inferring the fence
  /// from its (absent) records would stop the walk short — a remove would
  /// then miss a key living right of the empty node, and the stray copy
  /// would resurface once the empty node is unlinked and its range merges
  /// left. The fence keeps the key->node mapping total regardless of
  /// occupancy.
  ///
  /// Unlocked walkers MUST hop to the returned handle, never re-load the
  /// sibling afterwards: between the fence check and a second load the
  /// node can split (or unlink a dead right neighbour), swinging the
  /// sibling to a node whose fence exceeds the key. A walk that hops to
  /// that re-loaded pointer lands right of the key's range with no way
  /// back (B-link walks only go right) — a search misses a live key, and
  /// an insert files the key below its node's low fence, permanently
  /// unroutable. The fence validated here is the hop's license, and it
  /// stays valid because fences only ever decrease.
  template <class NodeResolver>
  static std::uint64_t MoveRightTarget(Mem& m, const N* n, Key key,
                                       NodeResolver resolve) {
    const std::uint64_t sib = LoadSibling(m, n);
    if (sib == 0) return 0;
    return LoadFence(m, resolve(sib)) <= key ? sib : 0;
  }

  /// Predicate form of MoveRightTarget, for callers that hold the node's
  /// lock (the sibling cannot change under them) or only probe.
  template <class NodeResolver>
  static bool ShouldMoveRight(Mem& m, const N* n, Key key,
                              NodeResolver resolve) {
    return MoveRightTarget(m, n, key, resolve) != 0;
  }

  /// Snapshot of the valid records of a node (sorted), for range scans and
  /// crash-image validation. Returns the number of records written to `out`
  /// (at most kCap). Retries on direction flips. Like SearchLeaf (paper
  /// Alg 3) it reads against the phase's writer: the insert shift writes
  /// right to left, so the insert phase reads left to right; the delete
  /// shift writes left to right, so the delete phase reads right to left.
  static int CollectValid(Mem& m, const N* n, Record* out) {
    for (;;) {
      const std::uint32_t sw = LoadSwitch(m, n);
      bool stable = true;
      const int cnt = sw % 2 == 0 ? CollectForward(m, n, out, &stable)
                                  : CollectBackward(m, n, out, &stable);
      if (stable && LoadSwitch(m, n) == sw) return cnt;
    }
  }

  /// Insert-phase CollectValid pass, left to right.
  static int CollectForward(Mem& m, const N* n, Record* out, bool* stable) {
    int cnt = 0;
    std::uint64_t prev = n->is_leaf() ? 0 : LoadLeftmost(m, n);
    Key last_key = 0;
    for (int i = 0; i <= kCap; ++i) {
      Key k;
      std::uint64_t p;
      if (!StableRecord(m, n, i, &k, &p)) {
        *stable = false;
        break;
      }
      if (p == 0) {
        if (i == 0 && FirstValidSlot(m, n, p) == 1) continue;  // hole
        break;
      }
      if (p == prev) continue;
      if (cnt > 0 && k == last_key) {
        // Duplicate key from an in-flight/crashed delete shift: the
        // rightmost copy is authoritative.
        out[cnt - 1].ptr = p;
        prev = p;
        continue;
      }
      out[cnt].key = k;
      out[cnt].ptr = p;
      last_key = k;
      prev = p;
      ++cnt;
    }
    return cnt;
  }

  /// Delete-phase CollectValid pass, right to left. A delete shift (or a
  /// FixNode compaction) that overtakes the reader can only show it a
  /// record a second time, one slot further left, never hide one; a key at
  /// or above the last one taken is that second copy (or the stale left
  /// copy of a torn shift, whose rightmost copy is authoritative) and is
  /// skipped. The output is collected descending, then reversed.
  static int CollectBackward(Mem& m, const N* n, Record* out, bool* stable) {
    int cnt = 0;
    Key last_key = 0;
    for (int i = CountRaw(m, n) - 1; i >= 0; --i) {
      Key k;
      std::uint64_t p;
      if (!StableRecord(m, n, i, &k, &p)) {
        *stable = false;
        break;
      }
      if (p == 0) continue;  // slot-0 hole, or a terminator moved left
      const std::uint64_t left = i > 0        ? LoadPtrAt(m, n, i - 1)
                                 : n->is_leaf() ? 0
                                                : LoadLeftmost(m, n);
      if (p == left) continue;  // invalid
      if (cnt > 0 && k >= last_key) continue;
      out[cnt].key = k;
      out[cnt].ptr = p;
      last_key = k;
      ++cnt;
    }
    for (int i = 0, j = cnt - 1; i < j; ++i, --j) std::swap(out[i], out[j]);
    return cnt;
  }

  // --- lazy recovery (paper §4.2) ----------------------------------------------

  /// Repairs tolerable inconsistencies left by a crashed or in-flight
  /// operation: slot-0 holes, duplicate-ptr garbage, duplicate-key remnants
  /// of a torn delete shift, and an un-truncated split source. Returns true
  /// if anything was repaired. Caller holds the write lock.
  template <class NodeResolver>
  static bool FixNode(Mem& m, N* n, NodeResolver resolve) {
    bool fixed = false;
    for (;;) {
      const int cnt = CountRaw(m, n);
      if (cnt == 0) break;
      // Hole at slot 0: close it.
      if (LoadPtrAt(m, n, 0) == 0) {
        EnsureDeleteDirection(m, n);
        ShiftLeftFrom(m, n, 0, cnt);
        fixed = true;
        continue;
      }
      // Duplicate ptr (slot i is the invalid one: its ptr equals its left
      // neighbour's) or duplicate key from a torn delete shift (the LEFT
      // copy is stale; the rightmost is authoritative): remove by
      // compaction over the garbage slot.
      int bad = -1;
      std::uint64_t prev = n->is_leaf() ? 0 : LoadLeftmost(m, n);
      Key prev_key = 0;
      for (int i = 0; i < cnt; ++i) {
        const std::uint64_t p = LoadPtrAt(m, n, i);
        const Key k = LoadKeyAt(m, n, i);
        if (p == prev) {
          bad = i;
          break;
        }
        if (i > 0 && k == prev_key) {
          bad = i - 1;
          break;
        }
        prev = p;
        prev_key = k;
      }
      if (bad >= 0) {
        EnsureDeleteDirection(m, n);
        ShiftLeftFrom(m, n, bad, cnt);
        fixed = true;
        continue;
      }
      // Un-truncated FAIR split: records at/after the sibling fence are
      // still present in the source node. Complete the truncation.
      const std::uint64_t sib = LoadSibling(m, n);
      if (sib != 0) {
        const N* s = resolve(sib);
        const int sfirst = FirstValidSlot(m, s);
        if (LoadPtrAt(m, s, sfirst) != 0) {
          const Key fence = LoadKeyAt(m, s, sfirst);
          if (LoadKeyAt(m, n, cnt - 1) >= fence) {
            int t = 0;
            while (t < cnt && LoadKeyAt(m, n, t) < fence) ++t;
            StorePtrAt(m, n, t, 0);
            m.Flush(&n->records[t]);
            m.Fence();
            fixed = true;
            continue;
          }
        }
      }
      break;
    }
    return fixed;
  }

  // --- single-threaded binary search (Fig 3 experiment) -------------------------

  /// Binary search over a quiescent node. Only valid when no writer is
  /// concurrently shifting (the paper shows binary search is incompatible
  /// with lock-free readers; benchmarks use it single-threaded).
  static Value BinarySearchLeaf(Mem& m, const N* n, Key key) {
    int lo = FirstValidSlot(m, n);
    int hi = CountRaw(m, n);  // exclusive
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      const Key k = LoadKeyAt(m, n, mid);
      if (k == key) return LoadPtrAt(m, n, mid);
      if (k < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return kNoValue;
  }

  static std::uint64_t BinarySearchInternal(Mem& m, const N* n, Key key) {
    const int first = FirstValidSlot(m, n);
    int lo = first;
    int hi = CountRaw(m, n);  // exclusive
    // Find the first record with key > `key`; the child is the record just
    // before it (or leftmost).
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (LoadKeyAt(m, n, mid) <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo == first ? LoadLeftmost(m, n) : LoadPtrAt(m, n, lo - 1);
  }
};

}  // namespace fastfair::core
