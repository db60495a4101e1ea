// Persistent B+-tree node layout.
//
// A node is one PM allocation of `PageSize` bytes: a 64-byte header followed
// by an array of 16-byte {key, ptr} records.  `PageSize` is a compile-time
// parameter because the Fig 3 experiment sweeps 256 B – 4 KB nodes; 512 B is
// the paper's default.
//
// Layout invariants (see core/node_ops.h for how operations preserve them
// through transient inconsistency):
//
//  * records[0..n) hold non-zero ptrs; records[n].ptr == 0 terminates the
//    array (the paper scans `records[i].ptr != NULL`). The valid records
//    among them hold ascending keys.
//  * A record's key is *valid* iff its ptr differs from its left neighbour's
//    ptr (the duplicate-pointer rule). Slot 0's left neighbour is
//    hdr.leftmost in every node: an internal node's leftmost child, a
//    leaf's own address (Init stores it). A zero left neighbour reads as
//    hdr.leftmost too: a zero ptr at slot 0 with a non-zero ptr at slot 1
//    is a transient *hole* that readers skip. Holes occur only in nodes
//    whose leftmost is 0: split-created internal nodes, and leaves written
//    before leaves carried their own address.
//  * A leaf may start with a *ghost prefix*: leading slots whose ptr is the
//    leaf's own address, hence invalid under the rule above, their keys
//    stale. A delete of the first valid record grows it by one 8-byte
//    store; inserts reclaim ghosts only when their slots are needed
//    (core/node_ops.h). No leaf value equals its leaf's address (the value
//    contract in core/btree.h), so a ghost never reads valid.
//  * Internal node semantics: child(key) = hdr.leftmost if key <
//    records[0].key, else records[i].ptr for the greatest i with
//    records[i].key <= key.  Nodes created by FAIR splits carry no leftmost
//    child; their records[0].key equals the separator that routes to them,
//    so the leftmost branch is unreachable there.
//  * hdr.sibling links nodes left-to-right within a level (B-link), and
//    hdr.fence is the node's persistent low fence: a node owns keys in
//    [hdr.fence, sibling->hdr.fence), so queries move right exactly when
//    key >= sibling->hdr.fence. The fence is explicit (not inferred from
//    records[0].key) because lazy unlink keeps drained-empty nodes linked:
//    an empty node has no first key, but its range assignment must survive
//    so that writers racing the unlink agree with readers on which node
//    owns every key. The leftmost node of each level has fence 0.
//
// All fields written by concurrent/persistent code paths are plain 64-bit
// (or 32-bit) words accessed via std::atomic_ref through a memory policy
// (core/mem_policy.h), never via C++ objects with invariants: after a crash
// the bytes are all that is left.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/defs.h"

namespace fastfair::core {

/// Writer-exclusive / reader-shared spinlock, 4 bytes, trivially
/// reinitializable after a crash (lock state is volatile by design: recovery
/// starts with no threads inside the tree).
class RwSpinLock {
 public:
  void lock() {
    std::uint32_t expected = 0;
    int spins = 0;
    while (!state_.compare_exchange_weak(expected, kWriter,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      expected = 0;
      Backoff(&spins);
    }
  }
  void unlock() { state_.store(0, std::memory_order_release); }

  /// Non-blocking acquire, for paths that hold a parent lock and need a
  /// child lock (the repairer's fence lowering): the normal order is
  /// child -> parent, so blocking here could deadlock against a writer
  /// holding the child and waiting for the parent. Failure is always safe
  /// to resolve by deferring the work.
  bool try_lock() {
    std::uint32_t expected = 0;
    return state_.compare_exchange_strong(expected, kWriter,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void lock_shared() {
    int spins = 0;
    for (;;) {
      std::uint32_t cur = state_.load(std::memory_order_relaxed);
      if (cur < kWriter &&
          state_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      Backoff(&spins);
    }
  }
  void unlock_shared() { state_.fetch_sub(1, std::memory_order_release); }

  /// Recovery: lock words are volatile state; after a crash no thread is
  /// inside the tree, so attach simply clears them.
  void Reset() { state_.store(0, std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kWriter = 0x8000'0000u;
  static void Backoff(int* spins) {
    if (++*spins < 64) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    } else {
      // Single-core friendliness: let the lock holder run.
      std::this_thread::yield();
      *spins = 0;
    }
  }
  std::atomic<std::uint32_t> state_{0};
};
static_assert(sizeof(RwSpinLock) == 4);

/// NodeHeader::flags bit: the node was emptied and unlinked from the leaf
/// chain (paper §4.2 lazy merge). Persistent: a dead node stays dead.
inline constexpr std::uint16_t kNodeDead = 1;

/// NodeHeader::flags bit: a repairer has claimed the dead node's memory for
/// Pool::Free. One-shot (claimed by atomic fetch_or): a parent split can
/// transiently duplicate the separator routing to a dead node across two
/// parents, and both repairers may find "their" copy — only the claim
/// winner frees, so the block can never enter the free list twice.
inline constexpr std::uint16_t kNodeReclaimed = 2;

struct NodeHeader {
  std::uint64_t leftmost;        // internal: child for key < records[0].key;
                                 // leaf: its own address (0 in old leaves)
  std::uint64_t sibling;         // right sibling (Node*), 0 if none
  std::uint64_t fence;           // low fence: node owns [fence, sib->fence)
  std::uint32_t switch_counter;  // even: insert phase, odd: delete phase
  std::uint16_t level;           // 0 = leaf
  std::uint16_t flags;           // kNodeDead | kNodeReclaimed
  RwSpinLock lock;               // volatile; reinitialized on recovery
  std::uint8_t pad[kCacheLineSize - 36];
};
static_assert(sizeof(NodeHeader) == kCacheLineSize);

template <std::size_t PageSize>
struct Node {
  static_assert(PageSize >= 128 && PageSize % kCacheLineSize == 0);

  /// Usable record slots; one extra slot is reserved as the terminator /
  /// shift spill slot (a FAST right-shift of a node holding kCapacity-1
  /// entries writes the new terminator into records[kCapacity]).
  static constexpr int kCapacity =
      static_cast<int>((PageSize - sizeof(NodeHeader)) / sizeof(Record)) - 1;
  static_assert(kCapacity >= 3);

  NodeHeader hdr;
  Record records[kCapacity + 1];

  /// Placement-initializes a zeroed node. Callers persist it from the
  /// header through its terminator's line before linking it
  /// (NodeOps::BytesThroughTerminator); the lines past that may still hold
  /// a recycled block's bytes in PM, which no reader reaches. Byte-level
  /// clearing is intentional: after a crash the raw bytes are all the
  /// state there is, so the layout is treated as bytes throughout. A leaf
  /// anchors slot 0's left neighbour at its own address (the header line
  /// the fresh-node persist flushes), so deleting its first valid record
  /// leaves a ghost instead of a hole.
  void Init(std::uint16_t level) {
    std::memset(static_cast<void*>(this), 0, PageSize);
    hdr.level = level;
    if (level == 0) hdr.leftmost = reinterpret_cast<std::uint64_t>(this);
  }

  /// The level tag. It shares an 8-byte word with the switch counter and
  /// the flags, which BumpSwitch and MarkDead store whole through
  /// std::atomic_ref, so it is read with one relaxed 8-byte atomic load of
  /// that word, never a plain 2-byte load. Init is the only writer.
  std::uint16_t level() const {
    const void* word = &hdr.switch_counter;
    return static_cast<std::uint16_t>(
        std::atomic_ref<const std::uint64_t>(
            *static_cast<const std::uint64_t*>(word))
            .load(std::memory_order_relaxed) >>
        32);
  }

  bool is_leaf() const { return level() == 0; }
};

// A 512-byte node (the paper's default) must hold >= 24 entries to keep the
// fan-out / height trade-off the evaluation relies on.
static_assert(Node<512>::kCapacity == 27);
static_assert(sizeof(Node<512>) <= 512);

}  // namespace fastfair::core
