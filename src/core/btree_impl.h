// Template implementation of BTreeT (included from core/btree.h only).

#pragma once

#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <optional>

#include "pm/fault.h"

namespace fastfair::core {

namespace detail {
// Resolver lambda shared by all policy calls in this file.
template <class NodeT>
inline const NodeT* ResolveNode(std::uint64_t p) {
  return reinterpret_cast<const NodeT*>(p);
}

// One-shot claim of a dead node's memory (see kNodeReclaimed in node.h).
// RealMem-only: reclamation never runs under crash simulation policies.
template <class NodeT, class Ops>
inline bool ClaimReclaim(const NodeT* dead) {
  const std::uint64_t bit = static_cast<std::uint64_t>(kNodeReclaimed) << 48;
  const std::uint64_t prev =
      std::atomic_ref<std::uint64_t>(*Ops::SwitchWord(dead))
          .fetch_or(bit, std::memory_order_acq_rel);
  return (prev & bit) == 0;
}

// Reader pin, taken only when this tree can actually recycle nodes: the
// seq_cst pin store is measurable on the ns-scale hot paths the figures
// time, and without reclaim_empty_leaves no tree node is ever freed (the
// paper-reproduction configuration must stay untouched).
struct MaybeEpochGuard {
  std::optional<pm::EpochGuard> guard;
  explicit MaybeEpochGuard(bool reclaims) {
    if (reclaims) guard.emplace();
  }
};

// The scalar ops' pin rule for a batch whose op i runs on tree_at(i):
// pin when any of its trees reclaims nodes.
template <class TreeAt>
inline bool AnyReclaims(TreeAt tree_at, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (tree_at(i)->options().reclaim_empty_leaves) return true;
  }
  return false;
}

// Commits the unlink of dead-to-be node `s` from its live left chain
// anchor `left` (caller holds both locks). Commit order is load-bearing
// for recovery: the persistent dead mark first (MarkDead flushes and
// fences), then the 8-byte chain swing, persisted. A crash between the
// two leaves a dead-but-linked node, which readers skip and writers
// refuse (they retry via the repair path) — tolerable garbage, per the
// paper's lazy-recovery story.
template <class NodeT, class Ops, class Mem>
inline void UnlinkDeadSibling(Mem& m, NodeT* left, NodeT* s) {
  Ops::MarkDead(m, s);
  Ops::StoreSibling(m, left, Ops::LoadSibling(m, s));
  m.Flush(&left->hdr);
  m.Fence();
}
}  // namespace detail

template <std::size_t P>
void BTreeT<P>::InitSearchDispatch() {
  using Simd = SimdNodeOps<NodeT, RealMem>;
  if (opts_.search == SearchMode::kBinary) {
    leaf_search_ = &Ops::BinarySearchLeaf;
    child_search_ = &Ops::BinarySearchInternal;
    return;
  }
  // kLinear: the lock-free protocol, vectorized when a vector ISA is
  // active. The *For resolvers return the scalar reference for kScalar,
  // so FASTFAIR_SIMD=scalar is exactly the pre-SIMD tree.
  const simd::Isa isa = simd::ActiveIsa();
  leaf_search_ = Simd::LeafSearchFor(isa);
  child_search_ = Simd::ChildSearchFor(isa);
}

template <std::size_t P>
BTreeT<P>::BTreeT(pm::Pool* pool, const Options& opts)
    : pool_(pool), opts_(opts) {
  InitSearchDispatch();
  meta_ =
      static_cast<TreeMeta*>(pool->Alloc(sizeof(TreeMeta), kCacheLineSize));
  NodeT* root = AllocNode(0);
  pm::Persist(root, sizeof(NodeT));
  meta_->magic = kTreeMagic;
  meta_->page_size = P;
  meta_->split_log = 0;
  std::atomic_ref<std::uint64_t>(meta_->root)
      .store(reinterpret_cast<std::uint64_t>(root), std::memory_order_release);
  if (opts_.rebalance == RebalanceMode::kLogging) {
    split_log_ =
        static_cast<SplitLog*>(pool->Alloc(sizeof(SplitLog), kCacheLineSize));
    split_log_->active = 0;
    pm::Persist(split_log_, sizeof(std::uint64_t));
    meta_->split_log = reinterpret_cast<std::uint64_t>(split_log_);
  }
  pm::Persist(meta_, sizeof(TreeMeta));
}

template <std::size_t P>
BTreeT<P>::BTreeT(pm::Pool* pool, TreeMeta* meta, const Options& opts)
    : pool_(pool), meta_(meta), opts_(opts) {
  InitSearchDispatch();
  if (meta_->magic != kTreeMagic || meta_->page_size != P) {
    throw std::runtime_error("BTreeT: meta does not match this tree type");
  }
  split_log_ = reinterpret_cast<SplitLog*>(meta_->split_log);
  if (split_log_ != nullptr && split_log_->active != 0) {
    // FAST+Logging recovery: undo the torn split from the logged image.
    auto* node = reinterpret_cast<NodeT*>(split_log_->active);
    std::memcpy(static_cast<void*>(node), split_log_->image, P);
    pm::Persist(node, P);
    ClearLog();
  }
  ReinitVolatileState();
  AdoptRootChain();
}

template <std::size_t P>
typename BTreeT<P>::NodeT* BTreeT<P>::AllocNode(std::uint16_t level) {
  NodeT* n = TryAllocNode(level);
  if (n == nullptr) throw std::bad_alloc();
  return n;
}

template <std::size_t P>
typename BTreeT<P>::NodeT* BTreeT<P>::TryAllocNode(std::uint16_t level) {
  void* p = pool_->TryAlloc(sizeof(NodeT), kCacheLineSize);
  if (p == nullptr) return nullptr;
  auto* n = ::new (p) NodeT;
  n->Init(level);
  return n;
}

template <std::size_t P>
bool BTreeT<P>::CasRoot(NodeT* expected, NodeT* desired) {
  auto e = reinterpret_cast<std::uint64_t>(expected);
  const bool ok =
      std::atomic_ref<std::uint64_t>(meta_->root)
          .compare_exchange_strong(e, reinterpret_cast<std::uint64_t>(desired),
                                   std::memory_order_acq_rel);
  if (ok) pm::Persist(&meta_->root, sizeof(meta_->root));
  return ok;
}

// --- traversal ---------------------------------------------------------------

template <std::size_t P>
typename BTreeT<P>::NodeT* BTreeT<P>::FindLeaf(Key key) const {
  RealMem m;
  NodeT* n = Root();
  // Read-latency model (DESIGN.md §5.1): only leaf-level visits are charged
  // as serial PM reads. With the paper's configuration the non-leaf levels
  // hold O(N / fanout) >> fewer nodes than the leaves and fit the LLC, and
  // Quartz prices LLC-miss stalls, not loads — its measured near-parity of
  // FAST+FAIR and FP-tree at 300 ns (Fig 5(b)) pins this calibration.
  if (n->is_leaf()) pm::AnnotateRead(n);
  while (!n->is_leaf()) {
    // Hop on the fence-validated pointer itself: re-loading the sibling
    // after the check can land on a newly split/unlinked node whose fence
    // exceeds the key (overshoot has no recovery — walks only go right).
    for (std::uint64_t su;
         (su = Ops::MoveRightTarget(m, n, key, detail::ResolveNode<NodeT>));) {
      n = AsNode(su);
    }
    n = AsNode(child_search_(m, n, key));
    // Hand-over-hand prefetch: the child's leading lines start fetching
    // before the (emulated) read stall below and the next level's search.
    PrefetchNode(n);
    if (n->is_leaf()) pm::AnnotateRead(n);
  }
  return n;
}

template <std::size_t P>
void BTreeT<P>::DescendGroup(const BTreeT* const* trees, const Key* keys,
                             std::size_t g, NodeT** leaves,
                             const NodeT** parents) {
  RealMem m;
  // Each slot starts at its own tree's root. A root that is itself a leaf
  // has already arrived: those slots form the level-0 wave.
  std::size_t arrived = 0;
  for (std::size_t j = 0; j < g; ++j) {
    leaves[j] = trees[j]->Root();
    if (leaves[j]->is_leaf()) ++arrived;
    if (parents != nullptr) parents[j] = nullptr;
  }
  pm::AnnotateReadGroup(arrived);
  // One wave advances every pending descent one level: while slot j's
  // child search runs, the children prefetched for slots j+1..g-1 (and
  // next wave's for 0..j) are in flight, so the per-level PM fetches of
  // the whole group overlap instead of serializing — whichever trees the
  // slots descend. The leaf arrivals of a wave are charged as ONE grouped
  // read stall: their addresses were all known (and prefetched) before
  // any was dereferenced.
  std::size_t pending = g - arrived;
  while (pending > 0) {
    arrived = 0;
    for (std::size_t j = 0; j < g; ++j) {
      NodeT* n = leaves[j];
      if (n->is_leaf()) continue;
      for (std::uint64_t su; (su = Ops::MoveRightTarget(
                                  m, n, keys[j], detail::ResolveNode<NodeT>));) {
        n = AsNode(su);
      }
      NodeT* child = AsNode(trees[j]->child_search_(m, n, keys[j]));
      PrefetchNode(child);
      leaves[j] = child;
      if (child->is_leaf()) {
        ++arrived;
        if (parents != nullptr) parents[j] = n;
      }
    }
    pm::AnnotateReadGroup(arrived);
    pending -= arrived;
  }
}

template <std::size_t P>
typename BTreeT<P>::NodeT* BTreeT<P>::LockCovering(NodeT* n, Key key) {
  RealMem m;
  n->hdr.lock.lock();
  if (Ops::IsDead(m, n)) {
    // A stale traversal (or a stale parent separator) led here. Repair the
    // parent lazily and have the caller retry from the root.
    const std::uint16_t parent_level = n->level() + 1;
    n->hdr.lock.unlock();
    RepairDeadRoutes(parent_level, key, key);
    return nullptr;
  }
  for (std::uint64_t su;
       (su = Ops::MoveRightTarget(m, n, key, detail::ResolveNode<NodeT>));) {
    NodeT* next = AsNode(su);
    const std::uint16_t parent_level = n->level() + 1;
    n->hdr.lock.unlock();
    // Having to move right means the sibling may be missing from the parent
    // (a crashed or in-flight split); lazily complete it (paper §4.2).
    // Idempotent, so benign races just re-verify.
    AdoptSibling(next, parent_level);
    pm::AnnotateRead(next);
    next->hdr.lock.lock();
    if (Ops::IsDead(m, next)) {
      // The node we hopped to was emptied and unlinked between reading the
      // sibling pointer and taking its lock; writing into it would lose the
      // update. Repair and retry from the root like the entry check above.
      next->hdr.lock.unlock();
      RepairDeadRoutes(parent_level, key, key);
      return nullptr;
    }
    n = next;
  }
  if (Ops::LoadFence(m, n) > key) {
    // Overshoot guard: an unlocked descent that hopped past the key's range
    // (e.g. it raced a split and followed a stale pointer) must not commit
    // here — an insert below the node's fence is permanently unroutable.
    // Fences only decrease, so a fence read under the lock is conclusive;
    // the leftmost node's fence is 0 and can never trip this.
    n->hdr.lock.unlock();
    return nullptr;
  }
  return n;
}

// --- point operations -----------------------------------------------------------

template <std::size_t P>
InsertStatus BTreeT<P>::InsertFrom(NodeT* leaf, Key key, Value value) {
  // Per-operation write-combining scope (DESIGN.md §8.2): a no-op unless
  // the global config opted into relaxed-persistency flush coalescing;
  // then every flush this operation issues — shifts, split copies, parent
  // updates — dedupes per line and drains once at return.
  pm::FlushScope wc;
  RealMem m;
  for (;;) {
    leaf = LockCovering(leaf, key);
    if (leaf == nullptr) {  // hit a dead node; parent repaired — re-descend
      leaf = FindLeaf(key);
      continue;
    }
    Ops::FixNode(m, leaf, detail::ResolveNode<NodeT>);
    if (opts_.reclaim_empty_leaves) TryUnlinkEmptySibling(leaf, key);
    if (Ops::UpdateKey(m, leaf, key, value)) {  // upsert: 8-byte in-place
      leaf->hdr.lock.unlock();
      return InsertStatus::kUpdated;
    }
    if (Ops::CountRaw(m, leaf) < kNodeCapacity) {
      Ops::InsertKey(m, leaf, key, value);
      leaf->hdr.lock.unlock();
      return InsertStatus::kInserted;
    }
    // UpdateKey already handled an existing key, so a split always carries
    // a fresh insert.
    return SplitAndInsert(leaf, key, value) ? InsertStatus::kInserted
                                            : InsertStatus::kNoSpace;
  }
}

template <std::size_t P>
bool BTreeT<P>::Insert(Key key, Value value) {
  const InsertStatus st = TryInsert(key, value);
  // Legacy throwing contract: before the status-propagating path existed,
  // exhaustion surfaced as the pool's bad_alloc mid-split. Callers that
  // want to shed instead of unwind use TryInsert/InsertBatch.
  if (st == InsertStatus::kNoSpace) throw std::bad_alloc();
  return st == InsertStatus::kInserted;
}

template <std::size_t P>
InsertStatus BTreeT<P>::TryInsert(Key key, Value value) {
  assert(value != kNoValue && "kNoValue (0) is reserved");
  detail::MaybeEpochGuard guard(opts_.reclaim_empty_leaves);  // pins reclaimed nodes
  return InsertFrom(FindLeaf(key), key, value);
}

template <std::size_t P>
template <class TreeAt>
void BTreeT<P>::InsertBatchOn(TreeAt tree_at, const Record* ops,
                              std::size_t n, InsertStatus* out) {
  detail::MaybeEpochGuard guard(detail::AnyReclaims(tree_at, n));
  BTreeT* trees[kBatchGroup];
  Key keys[kBatchGroup];
  NodeT* leaves[kBatchGroup];
  for (std::size_t i = 0; i < n; i += kBatchGroup) {
    const std::size_t g = std::min(kBatchGroup, n - i);
    for (std::size_t j = 0; j < g; ++j) {
      trees[j] = tree_at(i + j);
      keys[j] = ops[i + j].key;
    }
    DescendGroup(trees, keys, g, leaves);
    // The writes run in batch order, one leaf lock at a time: an earlier
    // slot's split/unlink may stale a later slot's leaf hint, which
    // InsertFrom absorbs (move-right, or re-descend on a dead node).
    for (std::size_t j = 0; j < g; ++j) {
      assert(ops[i + j].ptr != kNoValue && "kNoValue (0) is reserved");
      const InsertStatus st =
          trees[j]->InsertFrom(leaves[j], keys[j], ops[i + j].ptr);
      if (out != nullptr) out[i + j] = st;
    }
  }
}

template <std::size_t P>
void BTreeT<P>::InsertBatch(const Record* ops, std::size_t n,
                            InsertStatus* out) {
  InsertBatchOn([this](std::size_t) { return this; }, ops, n, out);
}

template <std::size_t P>
void BTreeT<P>::InsertBatch(BTreeT* const* trees, const Record* ops,
                            std::size_t n, InsertStatus* out) {
  InsertBatchOn([trees](std::size_t i) { return trees[i]; }, ops, n, out);
}

template <std::size_t P>
bool BTreeT<P>::RemoveFrom(NodeT* leaf, Key key) {
  pm::FlushScope wc;  // same per-operation coalescing contract as InsertFrom
  RealMem m;
  for (;;) {
    leaf = LockCovering(leaf, key);
    if (leaf == nullptr) {  // hit a dead node; parent repaired — re-descend
      leaf = FindLeaf(key);
      continue;
    }
    Ops::FixNode(m, leaf, detail::ResolveNode<NodeT>);
    if (opts_.reclaim_empty_leaves) TryUnlinkEmptySibling(leaf, key);
    const bool ok = Ops::DeleteKey(m, leaf, key);
    leaf->hdr.lock.unlock();
    return ok;
  }
}

template <std::size_t P>
bool BTreeT<P>::Remove(Key key) {
  detail::MaybeEpochGuard guard(opts_.reclaim_empty_leaves);
  return RemoveFrom(FindLeaf(key), key);
}

template <std::size_t P>
template <class TreeAt>
void BTreeT<P>::RemoveBatchOn(TreeAt tree_at, const Key* keys, std::size_t n,
                              bool* out) {
  detail::MaybeEpochGuard guard(detail::AnyReclaims(tree_at, n));
  BTreeT* trees[kBatchGroup];
  NodeT* leaves[kBatchGroup];
  for (std::size_t i = 0; i < n; i += kBatchGroup) {
    const std::size_t g = std::min(kBatchGroup, n - i);
    for (std::size_t j = 0; j < g; ++j) trees[j] = tree_at(i + j);
    DescendGroup(trees, keys + i, g, leaves);
    // Batch order, like InsertBatchOn: a hint an earlier slot's delete (or
    // its unlink of an emptied run) made stale is LockCovering's to absorb.
    for (std::size_t j = 0; j < g; ++j) {
      out[i + j] = trees[j]->RemoveFrom(leaves[j], keys[i + j]);
    }
  }
}

template <std::size_t P>
void BTreeT<P>::RemoveBatch(const Key* keys, std::size_t n, bool* out) {
  RemoveBatchOn([this](std::size_t) { return this; }, keys, n, out);
}

template <std::size_t P>
void BTreeT<P>::RemoveBatch(BTreeT* const* trees, const Key* keys,
                            std::size_t n, bool* out) {
  RemoveBatchOn([trees](std::size_t i) { return trees[i]; }, keys, n, out);
}

template <std::size_t P>
Value BTreeT<P>::SearchInLeaf(NodeT* n, Key key) const {
  RealMem m;
  for (;;) {
    Value v;
    if (opts_.concurrency == ConcurrencyMode::kLeafLock) {
      n->hdr.lock.lock_shared();
      v = leaf_search_(m, n, key);
      n->hdr.lock.unlock_shared();
    } else {
      v = leaf_search_(m, n, key);
    }
    if (v != kNoValue) return v;
    const std::uint64_t su =
        Ops::MoveRightTarget(m, n, key, detail::ResolveNode<NodeT>);
    if (su == 0) return kNoValue;
    n = AsNode(su);
    pm::AnnotateRead(n);
  }
}

template <std::size_t P>
Value BTreeT<P>::Search(Key key) const {
  detail::MaybeEpochGuard guard(opts_.reclaim_empty_leaves);
  return SearchInLeaf(FindLeaf(key), key);
}

template <std::size_t P>
template <class TreeAt>
void BTreeT<P>::SearchBatchOn(TreeAt tree_at, const Key* keys, std::size_t n,
                              Value* out) {
  detail::MaybeEpochGuard guard(detail::AnyReclaims(tree_at, n));
  const BTreeT* trees[kBatchGroup];
  NodeT* leaves[kBatchGroup];
  for (std::size_t i = 0; i < n; i += kBatchGroup) {
    const std::size_t g = std::min(kBatchGroup, n - i);
    for (std::size_t j = 0; j < g; ++j) trees[j] = tree_at(i + j);
    DescendGroup(trees, keys + i, g, leaves);
    for (std::size_t j = 0; j < g; ++j) {
      out[i + j] = trees[j]->SearchInLeaf(leaves[j], keys[i + j]);
    }
  }
}

template <std::size_t P>
void BTreeT<P>::SearchBatch(const Key* keys, std::size_t n,
                            Value* out) const {
  SearchBatchOn([this](std::size_t) { return this; }, keys, n, out);
}

template <std::size_t P>
void BTreeT<P>::SearchBatch(const BTreeT* const* trees, const Key* keys,
                            std::size_t n, Value* out) {
  SearchBatchOn([trees](std::size_t i) { return trees[i]; }, keys, n, out);
}

// --- split path ---------------------------------------------------------------

template <std::size_t P>
void BTreeT<P>::LogNodeImage(const NodeT* node) {
  // Undo log: image first, then the activation flag (its own commit point).
  std::memcpy(split_log_->image, node, P);
  pm::Persist(split_log_->image, P);
  split_log_->active = reinterpret_cast<std::uint64_t>(node);
  pm::Persist(&split_log_->active, sizeof(std::uint64_t));
}

template <std::size_t P>
void BTreeT<P>::ClearLog() {
  split_log_->active = 0;
  pm::Persist(&split_log_->active, sizeof(std::uint64_t));
}

template <std::size_t P>
bool BTreeT<P>::SplitAndInsert(NodeT* node, Key key, std::uint64_t down) {
  RealMem m;
  // Internal split: `down` is a child pointer. Same unlink interlock as
  // InsertInternal's locked check — we hold `node`'s lock, so either the
  // dead mark is already visible here, or the marker's repair pass has not
  // yet visited `node`/`sib` and will remove the route we are about to
  // insert. Splitting just to park a dead route would be pure waste, so
  // bail while the node is still intact.
  if (!node->is_leaf() &&
      Ops::IsDead(m, detail::ResolveNode<NodeT>(down))) {
    node->hdr.lock.unlock();
    return true;  // dropped on purpose, not for lack of space
  }
  // The sibling is allocated before anything — the undo log included — is
  // touched: a kNoSpace here unwinds by just unlocking, leaving `node`
  // byte-identical and the op cleanly rejected.
  NodeT* sib;
  {
    pm::FaultInjector::SiteScope site(node->is_leaf()
                                          ? "btree/split-leaf"
                                          : "btree/split-internal");
    sib = TryAllocNode(node->level());
  }
  if (sib == nullptr) {
    node->hdr.lock.unlock();
    return false;
  }
  const bool logging = opts_.rebalance == RebalanceMode::kLogging;
  if (logging) LogNodeImage(node);

  const int cnt = Ops::CountRaw(m, node);
  const int median = cnt / 2;
  sib->hdr.lock.lock();  // unreachable until CommitSplit publishes it
  Ops::SplitCopy(m, node, sib, median, cnt);
  Ops::CommitSplit(m, node, sib, median);
  const Key sep = Ops::LoadFence(m, sib);  // == the copied median key

  if (key < sep) {
    Ops::InsertKey(m, node, key, down);
  } else {
    Ops::InsertKey(m, sib, key, down);
  }
  if (logging) ClearLog();
  sib->hdr.lock.unlock();
  node->hdr.lock.unlock();

  InsertInternal(sep, sib, static_cast<std::uint16_t>(node->level() + 1));
  return true;
}

template <std::size_t P>
void BTreeT<P>::InsertInternal(Key sep, NodeT* right, std::uint16_t level) {
  RealMem m;
  const auto right_u = reinterpret_cast<std::uint64_t>(right);
  for (;;) {
    // Unlink interlock, entry check: never start publishing a route to a
    // node another writer has emptied and unlinked (resurrecting it would
    // route readers into memory already claimed by the reclaimer). The
    // airtight check is the one below, under the parent's lock; this one
    // just cuts the common case short.
    if (Ops::IsDead(m, right)) return;
    NodeT* root = Root();
    if (root->level() < level) {
      // The node that split was the root: grow the tree by one level. If
      // the pool cannot supply the new root, give up — the committed split
      // stays reachable through the old root's B-link chain (the same
      // state a crash between split and parent insert leaves), and
      // move-right + AdoptSibling complete it lazily once space returns.
      NodeT* nr;
      {
        pm::FaultInjector::SiteScope site("btree/root-growth");
        nr = TryAllocNode(level);
      }
      if (nr == nullptr) return;
      Ops::StoreLeftmost(m, nr, reinterpret_cast<std::uint64_t>(root));
      Ops::InsertKey(m, nr, sep, right_u);
      pm::Persist(nr, sizeof(NodeT));
      if (CasRoot(root, nr)) {
        // No parent lock serialized this publish against the unlinker, so
        // the entry check above is not airtight here: if `right` died
        // between the check and the CAS, the repairer's pass may have run
        // against the *old* root and missed the route we just published.
        // Re-check now that the root is visible and clean up after
        // ourselves (idempotent — racing repairers serialize per node).
        if (Ops::IsDead(m, right)) RepairDeadRoutes(level, sep, sep);
        return;
      }
      continue;  // lost the race; retry against the new root
    }
    // Descend (lock-free) to the target level.
    NodeT* n = root;
    while (n->level() > level) {
      for (std::uint64_t su; (su = Ops::MoveRightTarget(
                                  m, n, sep, detail::ResolveNode<NodeT>));) {
        n = AsNode(su);
      }
      n = AsNode(child_search_(m, n, sep));
    }
    n = LockCovering(n, sep);
    if (n == nullptr) continue;  // hopped into a dead node; retry from root
    Ops::FixNode(m, n, detail::ResolveNode<NodeT>);
    // Unlink interlock, the airtight half: route removal (CleanDeadRoutes)
    // runs under this parent's lock, and the dead mark is sequenced before
    // the marker's repair pass. Either that pass visits `n` after our
    // insert (and removes the route), or it completed before we acquired
    // the lock — in which case the mark is visible here and we bail.
    if (Ops::IsDead(m, right)) {
      n->hdr.lock.unlock();
      return;
    }
    // Idempotence: a concurrent/crashed completion may have beaten us.
    bool present = Ops::LoadLeftmost(m, n) == right_u;
    const int cnt = Ops::CountRaw(m, n);
    for (int i = 0; !present && i < cnt; ++i) {
      present = Ops::LoadPtrAt(m, n, i) == right_u;
    }
    if (present) {
      n->hdr.lock.unlock();
      return;
    }
    if (cnt < kNodeCapacity) {
      Ops::InsertKey(m, n, sep, right_u);
      n->hdr.lock.unlock();
      return;
    }
    // Recurses into level + 1. A false return (the parent level's own
    // split could not allocate) is absorbed: `right` is already committed
    // and chain-reachable, so its missing route is the lazily-adoptable
    // crash state, not a lost insert.
    SplitAndInsert(n, sep, right_u);
    return;
  }
}

template <std::size_t P>
void BTreeT<P>::AdoptSibling(NodeT* right, std::uint16_t parent_level) {
  RealMem m;
  // A stale sibling pointer can lead here after the node was emptied and
  // unlinked; re-publishing a route to it would resurrect memory already
  // in the reclaimer.
  if (Ops::IsDead(m, right)) return;
  const int first = Ops::HasHoleAtZero(m, right) ? 1 : 0;
  if (Ops::LoadPtrAt(m, right, first) == 0) return;  // empty: nothing to adopt
  // The separator is the node's persistent low fence, not its first key:
  // deletes may have removed the low end of its range, and a first-key
  // separator would route the [fence, first key) gap to the left child
  // while the chain mapping assigns it here.
  const Key fence = Ops::LoadFence(m, right);
  InsertInternal(fence, right, parent_level);
}

template <std::size_t P>
int BTreeT<P>::TryUnlinkEmptySibling(NodeT* n, Key op_key) {
  RealMem m;
  const std::uint64_t sib_u = Ops::LoadSibling(m, n);
  if (sib_u == 0) return 0;
  if (!AsNode(sib_u)->is_leaf() || Ops::LoadPtrAt(m, AsNode(sib_u), 0) != 0 ||
      Ops::LoadPtrAt(m, AsNode(sib_u), 1) != 0) {
    return 0;  // cheap unlocked pre-check: only empty leaves are reclaimed
  }
  // Unlink the maximal run of consecutive empty right siblings (delete
  // churn drains whole ranges; unlinking one leaf per op would leave most
  // of a drained run behind). Locks are taken strictly left-to-right, one
  // run element at a time, so there is no deadlock with move-right.
  constexpr int kMaxRun = 64;
  int unlinked = 0;
  Key hint = 0;
  bool have_hint = false;
  NodeT* s = AsNode(sib_u);
  s->hdr.lock.lock();
  while (true) {
    if (Ops::IsDead(m, s) || !s->is_leaf() || Ops::CountRaw(m, s) != 0 ||
        Ops::LoadSibling(m, s) == 0 || unlinked == kMaxRun) {
      // Stop at the first live, dead, or rightmost node. (The rightmost
      // node of the level is never reclaimed: a dead node must keep a live
      // right sibling for the route repair.) A key at or right of the stop
      // node bounds the run from above: every unlinked leaf's range lies
      // below it, so [op_key, hint] spans every parent holding one of the
      // run's separators. The hint is the first live stop node's persistent
      // low fence (valid even for an empty node); only a dead remnant makes
      // the probe read on along the chain — best-effort and unlocked,
      // purely a routing hint. With no live node anywhere to the right — the level's
      // whole tail drained, e.g. a sliding-window workload leaving a key
      // range for good, the case that strands unboundedly if deferred
      // (bench_micro_churn's hashed/sharded kinds) — fall back to an open
      // upper hint: the repair walk then runs to the level's end, which is
      // exactly the dead set, and parents reduce to bounded tombstones
      // instead of accumulating.
      s->hdr.lock.unlock();
      NodeT* probe = s;
      for (int hops = 0; probe != nullptr && hops < 4 * kMaxRun; ++hops) {
        if (!Ops::IsDead(m, probe)) {
          // The stop node's persistent low fence bounds the whole dead run
          // from above — valid even when the stop node itself is empty.
          const Key f = Ops::LoadFence(m, probe);
          hint = f > 0 ? f - 1 : 0;
          have_hint = true;
          break;
        }
        probe = AsNode(Ops::LoadSibling(m, probe));
      }
      if (!have_hint && probe == nullptr) {
        hint = ~Key{0};
        have_hint = true;
      }
      break;
    }
    detail::UnlinkDeadSibling<NodeT, Ops>(m, n, s);
    ++unlinked;
    NodeT* next = AsNode(Ops::LoadSibling(m, s));
    s->hdr.lock.unlock();
    next->hdr.lock.lock();
    s = next;
  }
  if (unlinked != 0 && have_hint) {
    // Eager repair: remove the parents' routes (and free the dead leaves)
    // now instead of waiting for a traversal to stumble on them. Without
    // this, workloads whose key range drifts (delete churn with a sliding
    // window) never revisit the stale routes and dead leaves accumulate.
    // Lock order stays child -> parent, which no other path inverts.
    RepairDeadRoutes(static_cast<std::uint16_t>(n->level() + 1),
                     op_key, hint);
  }
  return unlinked;
}

template <std::size_t P>
typename BTreeT<P>::SweepResult BTreeT<P>::SweepDrainedRanges(Key cursor,
                                                              int max_leaves) {
  SweepResult r;
  r.next_cursor = cursor;
  if (!opts_.reclaim_empty_leaves) {
    r.wrapped = true;
    return r;
  }
  // Pin once for the whole quantum, like a foreground op: nodes the unlink
  // path frees stay unrecycled until this sweep (and every older reader)
  // unpins.
  pm::EpochGuard guard;
  RealMem m;
  for (int i = 0; i < max_leaves; ++i) {
    NodeT* leaf = FindLeaf(r.next_cursor);
    leaf = LockCovering(leaf, r.next_cursor);
    if (leaf == nullptr) continue;  // dead node repaired; retry the cursor
    Ops::FixNode(m, leaf, detail::ResolveNode<NodeT>);
    r.unlinked +=
        static_cast<std::size_t>(TryUnlinkEmptySibling(leaf, r.next_cursor));
    // Advance past this leaf: the first key of the first live node to the
    // right. Best-effort and unlocked past the leaf — the cursor is a
    // position hint, never a correctness input; a lost race only makes the
    // next quantum re-cover a range.
    const std::uint64_t sib_u = Ops::LoadSibling(m, leaf);
    leaf->hdr.lock.unlock();
    bool advanced = false;
    NodeT* probe = AsNode(sib_u);
    for (int hops = 0; probe != nullptr && hops < 256; ++hops) {
      if (!Ops::IsDead(m, probe)) {
        // Advance to the live node's low fence: exact even when the node
        // has drained empty (its range assignment is persistent).
        const Key k = Ops::LoadFence(m, probe);
        if (k > r.next_cursor) {
          r.next_cursor = k;
          advanced = true;
          break;
        }
      }
      probe = AsNode(Ops::LoadSibling(m, probe));
    }
    if (!advanced) {
      // No live key to the right: the chain's tail is swept (an empty
      // leftmost/rightmost remnant is the bounded O(1)-per-level residue
      // the unlink rules keep, exactly like the tombstone story in
      // DESIGN.md §3.1). Wrap for the next quantum.
      r.next_cursor = 0;
      r.wrapped = true;
      return r;
    }
  }
  return r;
}

template <std::size_t P>
bool BTreeT<P>::AllRoutesDead(NodeT* p) {
  RealMem m;
  const std::uint64_t lm = Ops::LoadLeftmost(m, p);
  if (lm != 0 && !Ops::IsDead(m, detail::ResolveNode<NodeT>(lm))) {
    return false;
  }
  const int cnt = Ops::CountRaw(m, p);
  for (int i = 0; i < cnt; ++i) {
    const std::uint64_t c = Ops::LoadPtrAt(m, p, i);
    if (c != 0 && !Ops::IsDead(m, detail::ResolveNode<NodeT>(c))) {
      return false;
    }
  }
  return true;
}

template <std::size_t P>
void BTreeT<P>::ReclaimDeadSubtree(const NodeT* c) {
  RealMem m;
  // The claim keeps a transiently duplicated route (parent mid-split) —
  // or the lazy and eager repair paths racing — from freeing twice.
  if (!detail::ClaimReclaim<NodeT, Ops>(c)) return;
  if (!c->is_leaf()) {
    // An internal node is only reclaimed once every child is dead (see
    // AllRoutesDead), and a dead child's only remaining routes lived here:
    // recycle the whole subtree.
    const std::uint64_t lm = Ops::LoadLeftmost(m, c);
    if (lm != 0) ReclaimDeadSubtree(detail::ResolveNode<NodeT>(lm));
    const int cnt = Ops::CountRaw(m, const_cast<NodeT*>(c));
    std::uint64_t prev = lm;
    for (int i = 0; i < cnt; ++i) {
      const std::uint64_t ch = Ops::LoadPtrAt(m, const_cast<NodeT*>(c), i);
      if (ch != 0 && ch != prev) {
        ReclaimDeadSubtree(detail::ResolveNode<NodeT>(ch));
      }
      prev = ch;
    }
  }
  pool_->Free(const_cast<NodeT*>(c), sizeof(NodeT));
}

template <std::size_t P>
bool BTreeT<P>::LowerFence(NodeT* c, Key low) {
  RealMem m;
  // Lowering is chain-consistent: the widened range's previous owners died
  // and were unlinked at every level, so `c` (and recursively its first
  // child, down to the first leaf) is the chain successor of the drained
  // run and may own the range down to `low`. The persistent hdr.fence is
  // lowered at EVERY level including the leaf: ShouldMoveRight keys off
  // the fence, so a walk approaching from the left and a descent routed
  // through the redirected parent must agree on the new owner before the
  // caller publishes the redirect. Internal nodes with lm == 0 also keep
  // records[0].key in sync so child selection routes sub-separator keys
  // to the spine child rather than through the degenerate clamp.
  //
  // All or nothing: the whole spine is locked top-down before any store,
  // with try_lock — the caller holds the *parent* lock, and a blocking
  // child acquisition here would invert the child -> parent order the
  // unlink/repair path uses. On contention nothing has been written; the
  // caller defers the route redirect to a later repair pass. A partial
  // lowering is not harmless: a descent that reaches the still-routed dead
  // node moves right into a lowered node and on into an unlowered spine
  // child, whose fence then refuses every writer of the range
  // (LockCovering's overshoot guard) without any dead node to trigger the
  // repair — writers spin forever. The stores then run bottom-up, each
  // level persisted before its parent, so every crash state lowers a child
  // no later than its parent (a child fenced below its route is ordinary
  // B-link state: move-right reaches it).
  constexpr int kMaxSpine = 32;
  NodeT* spine[kMaxSpine];
  int depth = 0;
  bool ok = true;
  for (;;) {
    if (depth == kMaxSpine || !c->hdr.lock.try_lock()) {
      ok = false;
      break;
    }
    spine[depth++] = c;
    // A dead spine node ends the walk: the redirect through it will be
    // re-repaired lazily (LockCovering finds it dead).
    if (Ops::IsDead(m, c) || c->is_leaf()) break;
    const std::uint64_t lm = Ops::LoadLeftmost(m, c);
    const std::uint64_t next_u = lm != 0 ? lm : Ops::LoadPtrAt(m, c, 0);
    if (next_u == 0) {  // empty internal: spine unreachable, defer
      ok = false;
      break;
    }
    c = AsNode(next_u);
  }
  for (int d = depth - 1; ok && d >= 0; --d) {
    NodeT* x = spine[d];
    if (Ops::IsDead(m, x)) continue;
    if (Ops::LoadFence(m, x) > low) {
      Ops::StoreFence(m, x, low);
      m.Flush(&x->hdr);
    }
    if (!x->is_leaf() && Ops::LoadLeftmost(m, x) == 0 &&
        Ops::CountRaw(m, x) > 0 && Ops::LoadKeyAt(m, x, 0) > low) {
      Ops::StoreKeyAt(m, x, 0, low);
      m.Flush(&x->records[0]);
    }
    m.Fence();
  }
  for (int d = depth - 1; d >= 0; --d) spine[d]->hdr.lock.unlock();
  return ok;
}

template <std::size_t P>
void BTreeT<P>::CleanDeadRoutes(NodeT* p) {
  RealMem m;
  // Remove every dead-child route in this parent: a chain-unlinked run
  // parks many separators in one covering parent, and one pass frees them
  // all. Each route removal is persisted before ReclaimDeadSubtree can put
  // the block on a free list; in-flight traversals holding a stale route
  // are pinned by their EpochGuard, so Pool::Free defers recycling past
  // every pin.
  //
  // Every redirect below stays INSIDE this parent (the adjacent route's
  // child), never a chain successor from another parent's range: a child
  // therefore always has exactly one routing parent, which is what lets
  // the repairer that removes the route free the child. Redirecting onto
  // an adjacent child transiently duplicates its pointer; the
  // duplicate-pointer rule makes the right copy invalid for readers and
  // the FixNode at the top of the loop merges the two records into one
  // whose separator key is the lower of the pair — ranges simply widen.
  for (bool again = true; again;) {
    again = false;
    Ops::FixNode(m, p, detail::ResolveNode<NodeT>);
    const std::uint64_t lm = Ops::LoadLeftmost(m, p);
    const int cnt = Ops::CountRaw(m, p);
    if (lm != 0 && Ops::IsDead(m, detail::ResolveNode<NodeT>(lm))) {
      if (cnt == 0) break;  // routes nothing live: left for the unlink path
      // Leftmost child died: duplicate the first record's child over the
      // leftmost branch (one atomic 8-byte store). records[0] becomes
      // invalid (ptr equals its left neighbour, the leftmost) and FixNode
      // compacts it away, leaving that child to cover the union range.
      // Only roots and ex-roots carry a leftmost, so `p` is the leftmost
      // node of its level and the union range's floor is the key minimum.
      const auto* c = detail::ResolveNode<NodeT>(lm);
      // Contended fence lowering: leave the dead route for a later repair
      // pass rather than publish a redirect whose target still fences the
      // range out (LowerFence fails, writing nothing, only on lock
      // contention or an empty spine node, so "later" is as soon as the
      // competing writer releases the child).
      if (!LowerFence(AsNode(Ops::LoadPtrAt(m, p, 0)), 0)) break;
      Ops::StoreLeftmost(m, p, Ops::LoadPtrAt(m, p, 0));
      m.Flush(&p->hdr);
      m.Fence();
      ReclaimDeadSubtree(c);
      again = true;
      continue;
    }
    for (int i = 0; i < cnt; ++i) {
      const std::uint64_t cu = Ops::LoadPtrAt(m, p, i);
      if (cu == 0 || !Ops::IsDead(m, detail::ResolveNode<NodeT>(cu))) {
        continue;
      }
      const auto* c = detail::ResolveNode<NodeT>(cu);
      if (i == 0 && lm == 0) {
        // This (split-created) node's low fence: deleting the record would
        // leave the node's lower range routing to a null leftmost. With a
        // single route the node is fully dead — the unlink path handles
        // it; otherwise duplicate the next record's child over it and let
        // FixNode merge the pair under the lower separator key.
        if (cnt < 2) break;
        // Same deferral as the leftmost path: a failed (contended)
        // lowering leaves this dead route for the next repair pass, but
        // the scan keeps going — later routes need no lowering.
        if (!LowerFence(AsNode(Ops::LoadPtrAt(m, p, 1)),
                        Ops::LoadKeyAt(m, p, 0))) {
          continue;
        }
        Ops::StorePtrAt(m, p, 0, Ops::LoadPtrAt(m, p, 1));
        m.Flush(&p->records[0]);
        m.Fence();
      } else {
        // Ordinary separator: delete the record outright (FAST delete,
        // left shift). The dead child's range merges into its left
        // neighbour's route.
        Ops::DeleteKey(m, p, Ops::LoadKeyAt(m, p, i));
      }
      ReclaimDeadSubtree(c);
      again = true;
      break;  // indices shifted / duplicate created; FixNode + rescan
    }
  }
}

template <std::size_t P>
void BTreeT<P>::RepairDeadRoutes(std::uint16_t level, Key lo, Key hi) {
  RealMem m;
  NodeT* root = Root();
  if (root->level() < level) return;  // no such level exists
  NodeT* p = root;
  while (p->level() > level) {
    for (std::uint64_t su;
         (su = Ops::MoveRightTarget(m, p, lo, detail::ResolveNode<NodeT>));) {
      p = AsNode(su);
    }
    p = AsNode(child_search_(m, p, lo));
  }
  p = LockCovering(p, lo);
  if (p == nullptr) return;  // covering node itself dead: repaired, caller
                             // (if any) retries from the root
  // Walk the level's chain from the node covering `lo` to the one covering
  // `hi` (B-link order, one lock at a time). In each node, remove dead
  // routes; in between, unlink nodes whose children have ALL died — the
  // fully-drained-subtree case — exactly like empty leaves, and recurse one
  // level up afterwards to remove and reclaim them in turn.
  bool unlinked_any = false;
  bool anchor = true;
  for (;;) {
    Ops::FixNode(m, p, detail::ResolveNode<NodeT>);
    CleanDeadRoutes(p);
    if (anchor && AllRoutesDead(p) && Ops::LoadSibling(m, p) != 0 &&
        Ops::CountRaw(m, p) > 0) {
      // The walk's anchor is itself a tombstone (every route dead, e.g. a
      // parent whose single remaining child died): it can only be absorbed
      // from its left neighbour, but a repair keyed inside its range
      // anchors ON it — without this restart an insert into the range
      // would retry against the same tombstone forever. One key below its
      // persistent low fence anchors the walk on the left neighbour; lo
      // decreases strictly, and the leftmost node of a level always keeps
      // a live child, so the recursion terminates.
      const Key fence = Ops::LoadFence(m, p);
      p->hdr.lock.unlock();
      if (fence > 0) RepairDeadRoutes(level, fence - 1, hi);
      return;
    }
    anchor = false;
    // Absorb fully-dead right siblings into the dead set (p is the live
    // left anchor; same audited commit order as the leaf-run unlink).
    while (true) {
      const std::uint64_t su = Ops::LoadSibling(m, p);
      if (su == 0) break;
      NodeT* s = AsNode(su);
      s->hdr.lock.lock();
      if (!Ops::IsDead(m, s) && Ops::LoadSibling(m, s) != 0 &&
          AllRoutesDead(s)) {
        detail::UnlinkDeadSibling<NodeT, Ops>(m, p, s);
        unlinked_any = true;
        s->hdr.lock.unlock();
        continue;
      }
      s->hdr.lock.unlock();
      break;
    }
    const bool more =
        Ops::ShouldMoveRight(m, p, hi, detail::ResolveNode<NodeT>);
    const std::uint64_t next_u = Ops::LoadSibling(m, p);
    p->hdr.lock.unlock();
    if (!more || next_u == 0) break;
    p = AsNode(next_u);
    p->hdr.lock.lock();
    if (Ops::IsDead(m, p)) {  // raced with another repairer; good enough
      p->hdr.lock.unlock();
      break;
    }
  }
  if (unlinked_any) {
    RepairDeadRoutes(static_cast<std::uint16_t>(level + 1), lo, hi);
  }
}

// --- scans ---------------------------------------------------------------------

template <std::size_t P>
std::size_t BTreeT<P>::ScanRange(Key min_key, Key max_key, Record* out,
                                 std::size_t cap) const {
  detail::MaybeEpochGuard guard(opts_.reclaim_empty_leaves);
  RealMem m;
  const NodeT* n = FindLeaf(min_key);
  std::size_t got = 0;
  Key last = 0;
  bool have_last = false;
  Record buf[kNodeCapacity];
  while (n != nullptr && got < cap) {
    const int c = Ops::CollectValid(m, n, buf);
    for (int i = 0; i < c && got < cap; ++i) {
      if (buf[i].key < min_key) continue;
      if (buf[i].key > max_key) return got;
      if (have_last && buf[i].key <= last) continue;  // split-copy dedup
      out[got++] = buf[i];
      last = buf[i].key;
      have_last = true;
    }
    if (c > 0 && buf[c - 1].key > max_key) return got;
    // A full scan stops before the sibling: it never collects that leaf,
    // so loading (and charging) it would count a visit that is not one.
    if (got >= cap) break;
    n = Resolve(Ops::LoadSibling(m, n));
    if (n != nullptr) pm::AnnotateRead(n);
  }
  return got;
}

template <std::size_t P>
std::size_t BTreeT<P>::Scan(Key min_key, std::size_t max_results,
                            Record* out) const {
  return ScanRange(min_key, ~std::uint64_t{0}, out, max_results);
}

template <std::size_t P>
template <class TreeAt>
void BTreeT<P>::ScanBatchOn(TreeAt tree_at, const ScanOp* ops, std::size_t n,
                            std::size_t* out_counts) {
  detail::MaybeEpochGuard guard(detail::AnyReclaims(tree_at, n));
  RealMem m;
  Record buf[kNodeCapacity];
  // Each cursor carries the scalar ScanRange loop's state — current leaf,
  // emitted count, last key for split-copy dedup — plus a lookahead: the
  // leaves predicted to follow its current one, read from the routes of
  // the level-1 node its descent came through and then of that node's
  // level-1 right siblings (DESIGN.md §8.2b). The sibling chain stays
  // authoritative: a cursor only ever moves to its leaf's sibling pointer,
  // and the lookahead is a prefetch and accounting hint matched by pointer.
  constexpr int kLookahead = 16;
  struct Cursor {
    const NodeT* leaf;        // collected next wave; nullptr when done
    std::size_t got;
    Key last;
    bool have_last;
    const NodeT* route_node;  // level-1 node whose routes come next
    Key route_bound;          // routes must separate above it
    const NodeT* ahead[kLookahead];
    int count;    // predicted leaves in ahead[]
    int next;     // first entry the cursor has not hopped past
    int fetched;  // entries below it were fetched by a paid wave
  };
  // Matches the hop to `s` against c's lookahead. True when an earlier paid
  // wave fetched `s`. Entries the chain skipped (an unlinked leaf, a stale
  // route) are passed over; an `s` missing from the lookahead (a split not
  // yet in the parent) leaves it as it was.
  const auto hop = [](Cursor& c, const NodeT* s) {
    for (int i = c.next; i < c.count; ++i) {
      if (c.ahead[i] != s) continue;
      const bool covered = i < c.fetched;
      c.next = i + 1;
      c.fetched = std::max(c.fetched, c.next);
      return covered;
    }
    return false;
  };
  // Refills a used-up lookahead with the valid routes separating above the
  // last route taken and the last key emitted (min_key before the first):
  // that drops the leaves behind the cursor and the routes a parent
  // mid-split lists twice. Sized from the cap still to fill at half-full
  // leaves. Internal nodes are uncharged (DESIGN.md §5.1).
  Record routes[kNodeCapacity];
  const auto refill = [&](Cursor& c, const ScanOp& op) {
    const std::size_t want =
        std::min<std::size_t>(kLookahead,
                              (op.cap - c.got) / (kNodeCapacity / 2) + 1);
    Key bound = c.have_last ? std::max(c.route_bound, c.last) : c.route_bound;
    c.count = c.next = c.fetched = 0;
    while (c.route_node != nullptr) {
      const int r = Ops::CollectValid(m, c.route_node, routes);
      for (int i = 0; i < r && static_cast<std::size_t>(c.count) < want; ++i) {
        if (routes[i].key <= bound) continue;
        c.ahead[c.count++] = Resolve(routes[i].ptr);
        bound = routes[i].key;
      }
      if (static_cast<std::size_t>(c.count) == want) break;
      c.route_node = Resolve(Ops::LoadSibling(m, c.route_node));
    }
    c.route_bound = bound;
    hop(c, c.leaf);  // the leaf a miss just fetched heads the new entries
  };
  for (std::size_t base = 0; base < n; base += kBatchGroup) {
    const std::size_t g = std::min(kBatchGroup, n - base);
    // Grouped descent to the start leaves: one wave per level, leaf
    // arrivals charged as one grouped stall (exactly SearchBatch's front).
    const BTreeT* trees[kBatchGroup];
    Key keys[kBatchGroup];
    for (std::size_t j = 0; j < g; ++j) {
      trees[j] = tree_at(base + j);
      keys[j] = ops[base + j].min_key;
    }
    NodeT* leaves[kBatchGroup];
    const NodeT* parents[kBatchGroup];
    DescendGroup(trees, keys, g, leaves, parents);
    Cursor cur[kBatchGroup];
    std::size_t live = 0;
    for (std::size_t j = 0; j < g; ++j) {
      Cursor& c = cur[j];
      c.leaf = ops[base + j].cap > 0 ? leaves[j] : nullptr;
      c.got = 0;
      c.last = 0;
      c.have_last = false;
      c.route_node = parents[j];
      c.route_bound = ops[base + j].min_key;
      c.count = c.next = c.fetched = 0;
      if (c.leaf != nullptr) ++live;
    }
    // Interleaved leaf-chain drain: a wave collects one leaf per live cursor
    // and moves each along the B-link chain (dead nodes collect zero records
    // and the chain continues right, so live splits, unlinks and migration
    // windows are handled exactly like the scalar walk). Budget rule
    // (DESIGN.md §8.1): a wave pays one grouped stall only when some cursor
    // hops to a leaf no earlier paid wave fetched; it then fetches at most
    // kBatchGroup nodes, those hops first, then lookahead leaves
    // round-robin over the cursors. A hop to an already-fetched leaf is a
    // visit without a stall.
    while (live > 0) {
      std::size_t misses = 0;
      std::size_t covered = 0;
      for (std::size_t j = 0; j < g; ++j) {
        Cursor& c = cur[j];
        if (c.leaf == nullptr) continue;
        const ScanOp& op = ops[base + j];
        const int cnt = Ops::CollectValid(m, c.leaf, buf);
        for (int i = 0; i < cnt && c.got < op.cap; ++i) {
          if (buf[i].key < op.min_key) continue;
          if (c.have_last && buf[i].key <= c.last) continue;  // split copy
          op.out[c.got++] = buf[i];
          c.last = buf[i].key;
          c.have_last = true;
        }
        // A full cursor stops before its sibling, as ScanRange does, so
        // per-op visit counts stay equal to the scalar scan's.
        c.leaf =
            c.got < op.cap ? Resolve(Ops::LoadSibling(m, c.leaf)) : nullptr;
        if (c.leaf == nullptr) {
          --live;
        } else if (hop(c, c.leaf)) {
          ++covered;
        } else {
          PrefetchNode(c.leaf);
          ++misses;
        }
      }
      if (misses > 0) {
        // Spare fetch slots: each cursor's next unfetched lookahead leaf in
        // turn. A used-up lookahead is refilled here, at most once a wave,
        // so waves without spare slots never pay for route reads.
        std::size_t slots = kBatchGroup - misses;
        bool refilled[kBatchGroup] = {};
        for (bool progress = true; slots > 0 && progress;) {
          progress = false;
          for (std::size_t j = 0; j < g && slots > 0; ++j) {
            Cursor& c = cur[j];
            if (c.leaf == nullptr) continue;
            if (c.next >= c.count && !refilled[j]) {
              refilled[j] = true;
              refill(c, ops[base + j]);
            }
            if (c.fetched >= c.count) continue;
            PrefetchNode(c.ahead[c.fetched++]);
            --slots;
            progress = true;
          }
        }
        pm::AnnotateReadGroup(misses);
      }
      pm::AnnotateCoveredReads(covered);
    }
    for (std::size_t j = 0; j < g; ++j) out_counts[base + j] = cur[j].got;
  }
}

template <std::size_t P>
void BTreeT<P>::ScanBatch(const ScanOp* ops, std::size_t n,
                          std::size_t* out_counts) const {
  ScanBatchOn([this](std::size_t) { return this; }, ops, n, out_counts);
}

template <std::size_t P>
void BTreeT<P>::ScanBatch(const BTreeT* const* trees, const ScanOp* ops,
                          std::size_t n, std::size_t* out_counts) {
  ScanBatchOn([trees](std::size_t i) { return trees[i]; }, ops, n,
              out_counts);
}

// --- introspection ---------------------------------------------------------------

template <std::size_t P>
int BTreeT<P>::Height() const {
  return Root()->level() + 1;
}

template <std::size_t P>
typename BTreeT<P>::TreeStats BTreeT<P>::GetTreeStats() const {
  RealMem m;
  TreeStats st;
  st.height = Height();
  st.entries = CountEntries();
  const NodeT* first = Root();
  for (;;) {
    std::size_t count = 0;
    for (const NodeT* n = first; n != nullptr;
         n = Resolve(Ops::LoadSibling(m, n))) {
      ++count;
    }
    st.nodes_per_level.insert(st.nodes_per_level.begin(), count);
    if (first->is_leaf()) break;
    const std::uint64_t lm = Ops::LoadLeftmost(m, first);
    first = Resolve(lm != 0 ? lm
                            : Ops::LoadPtrAt(m, const_cast<NodeT*>(first), 0));
  }
  if (!st.nodes_per_level.empty() && st.nodes_per_level.front() > 0) {
    st.leaf_fill =
        static_cast<double>(st.entries) /
        (static_cast<double>(st.nodes_per_level.front()) * kNodeCapacity);
  }
  return st;
}

template <std::size_t P>
std::size_t BTreeT<P>::CountEntries() const {
  detail::MaybeEpochGuard guard(opts_.reclaim_empty_leaves);
  RealMem m;
  const NodeT* n = Root();
  while (!n->is_leaf()) {
    const std::uint64_t lm = Ops::LoadLeftmost(m, n);
    n = Resolve(lm != 0 ? lm : Ops::LoadPtrAt(m, n, 0));
  }
  std::size_t total = 0;
  Record buf[kNodeCapacity];
  Key last = 0;
  bool have_last = false;
  while (n != nullptr) {
    const int c = Ops::CollectValid(m, n, buf);
    for (int i = 0; i < c; ++i) {
      if (have_last && buf[i].key <= last) continue;
      ++total;
      last = buf[i].key;
      have_last = true;
    }
    n = Resolve(Ops::LoadSibling(m, n));
  }
  return total;
}

// --- recovery (attach path) -------------------------------------------------------

template <std::size_t P>
void BTreeT<P>::ReinitVolatileState() {
  RealMem m;
  NodeT* first = Root();
  for (;;) {
    for (NodeT* n = first; n != nullptr;
         n = AsNode(Ops::LoadSibling(m, n))) {
      n->hdr.lock.Reset();
    }
    if (first->is_leaf()) break;
    const std::uint64_t lm = Ops::LoadLeftmost(m, first);
    first = AsNode(lm != 0 ? lm : Ops::LoadPtrAt(m, first, 0));
  }
}

template <std::size_t P>
void BTreeT<P>::AdoptRootChain() {
  RealMem m;
  NodeT* root = Root();
  if (Ops::LoadSibling(m, root) == 0) return;
  // A crash separated the root from freshly split-off siblings before the
  // new root was installed. Build the new root over the whole chain.
  NodeT* nr = AllocNode(static_cast<std::uint16_t>(root->level() + 1));
  Ops::StoreLeftmost(m, nr, reinterpret_cast<std::uint64_t>(root));
  int adopted = 0;
  for (NodeT* s = AsNode(Ops::LoadSibling(m, root)); s != nullptr;
       s = AsNode(Ops::LoadSibling(m, s))) {
    const int first = Ops::HasHoleAtZero(m, s) ? 1 : 0;
    if (Ops::LoadPtrAt(m, s, first) == 0) continue;
    if (++adopted > kNodeCapacity) {
      throw std::runtime_error("AdoptRootChain: sibling chain exceeds fanout");
    }
    Ops::InsertKey(m, nr, Ops::LoadFence(m, s),
                   reinterpret_cast<std::uint64_t>(s));
  }
  pm::Persist(nr, sizeof(NodeT));
  if (!CasRoot(root, nr)) {
    throw std::runtime_error("AdoptRootChain: concurrent root change");
  }
}

// --- validation ------------------------------------------------------------------

template <std::size_t P>
bool BTreeT<P>::CheckInvariants(std::string* msg) const {
  RealMem m;
  auto fail = [&](const std::string& s) {
    if (msg != nullptr) *msg = s;
    return false;
  };
  // Per level: walk the sibling chain; check sortedness within and across
  // nodes, level tags, and that internal records point at children whose
  // first keys match the separators.
  const NodeT* first = Root();
  int expect_level = first->level();
  while (true) {
    if (first->level() != expect_level) {
      return fail("level tag mismatch on leftmost chain");
    }
    bool have_prev = false;
    Key prev = 0;
    bool have_fence = false;
    Key prev_fence = 0;
    for (const NodeT* n = first; n != nullptr;
         n = Resolve(Ops::LoadSibling(m, n))) {
      if (n->level() != expect_level) return fail("level tag mismatch");
      // The persistent low fence partitions each level: strictly ascending
      // along the chain, and never above the node's own keys.
      const Key fence = Ops::LoadFence(m, n);
      if (have_fence && fence <= prev_fence) {
        return fail("fences not strictly ascending at level " +
                    std::to_string(expect_level));
      }
      if (have_prev && fence <= prev && n != first) {
        return fail("fence at or below left neighbour's keys at level " +
                    std::to_string(expect_level));
      }
      prev_fence = fence;
      have_fence = true;
      const int cnt = Ops::CountRaw(m, const_cast<NodeT*>(n));
      for (int i = Ops::HasHoleAtZero(m, const_cast<NodeT*>(n)) ? 1 : 0;
           i < cnt; ++i) {
        const Key k = Ops::LoadKeyAt(m, const_cast<NodeT*>(n), i);
        if (k < fence) {
          return fail("key below the node's low fence at level " +
                      std::to_string(expect_level));
        }
        if (have_prev && k <= prev) {
          return fail("keys not strictly ascending at level " +
                      std::to_string(expect_level));
        }
        prev = k;
        have_prev = true;
        if (!n->is_leaf()) {
          const auto* child =
              Resolve(Ops::LoadPtrAt(m, const_cast<NodeT*>(n), i));
          if (child->level() != expect_level - 1) {
            return fail("child level mismatch");
          }
          const int cfirst =
              Ops::HasHoleAtZero(m, const_cast<NodeT*>(child)) ? 1 : 0;
          if (Ops::LoadPtrAt(m, const_cast<NodeT*>(child), cfirst) != 0) {
            const Key ck =
                Ops::LoadKeyAt(m, const_cast<NodeT*>(child), cfirst);
            if (ck < k) return fail("child first key below separator");
          }
        }
      }
      if (!n->is_leaf() && Ops::LoadLeftmost(m, n) != 0) {
        const auto* lm = Resolve(Ops::LoadLeftmost(m, n));
        if (lm->level() != expect_level - 1) {
          return fail("leftmost child level mismatch");
        }
      }
    }
    if (first->is_leaf()) break;
    const std::uint64_t lm = Ops::LoadLeftmost(m, first);
    first = Resolve(lm != 0 ? lm : Ops::LoadPtrAt(m, const_cast<NodeT*>(first), 0));
    --expect_level;
  }
  if (expect_level != 0) return fail("leftmost descent did not reach level 0");
  return true;
}

}  // namespace fastfair::core
