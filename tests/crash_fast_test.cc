// Failure-atomicity verification for FAST (paper §3.1, §5.7).
//
// The same templated node operations the production tree runs are executed
// against crashsim::SimMem, which logs every 8-byte store / flush / fence.
// We then enumerate *every* reachable crash state under the adversarial
// eviction model and assert, for each materialized image:
//
//   1. a reader applying the duplicate-pointer rule sees exactly the
//      pre-operation key set or exactly the post-operation key set — never
//      a torn mixture, never a wrong value;
//   2. lazy recovery (FixNode) turns the image into a clean node whose
//      contents are one of those two sets.
//
// This is the paper's "endurable transient inconsistency" claim, checked
// exhaustively instead of by pulling power.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/btree.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "crashsim/simmem.h"
#include "pm/check.h"
#include "pm/pool.h"

namespace fastfair::core {
namespace {

using crashsim::ImageMem;
using crashsim::SimMem;

using NodeT = Node<512>;
constexpr int kCap = NodeT::kCapacity;

using RealOps = NodeOps<NodeT, RealMem>;
using SimOps = NodeOps<NodeT, SimMem>;
using ImgOps = NodeOps<NodeT, ImageMem>;

/// Key set visible in `img` via the lock-free reader rules.
std::map<Key, Value> ReadImage(const SimMem::Image& img, const NodeT* node) {
  ImageMem m{&img};
  Record buf[kCap];
  const int n = ImgOps::CollectValid(m, node, buf);
  std::map<Key, Value> out;
  for (int i = 0; i < n; ++i) out[buf[i].key] = buf[i].ptr;
  return out;
}

/// Materializes the crash image of adopted node `src` into buffer `dst`.
void Materialize(const SimMem::Image& img, const NodeT* src, NodeT* dst) {
  auto* words = reinterpret_cast<std::uint64_t*>(dst);
  const auto* addrs = reinterpret_cast<const std::uint64_t*>(src);
  for (std::size_t i = 0; i < sizeof(NodeT) / 8; ++i) {
    words[i] = img.Read64(addrs + i);
  }
}

struct CrashCase {
  int fill;  // committed entries before the op
  int pos;   // operation position within the sorted order
};

void PrintTo(const CrashCase& c, std::ostream* os) {
  *os << "fill" << c.fill << "_pos" << c.pos;
}

std::vector<CrashCase> InsertCases() {
  std::vector<CrashCase> cases;
  for (const int fill : {0, 1, 2, 7, kCap - 1}) {
    for (int pos = 0; pos <= fill; ++pos) cases.push_back({fill, pos});
  }
  return cases;
}

auto Resolve(std::uint64_t p) { return reinterpret_cast<const NodeT*>(p); }

/// Lazy recovery on a materialized copy of `img`: FixNode must converge
/// (a second pass finds nothing) on a sorted node whose key set is
/// `before` or `after`, leaving the image's ghost slots as they are.
void ExpectFixConverges(const SimMem::Image& img, const NodeT* node,
                        const std::map<Key, Value>& before,
                        const std::map<Key, Value>& after) {
  alignas(64) NodeT copy;
  Materialize(img, node, &copy);
  copy.hdr.lock.Reset();
  RealMem m2;
  const int ghosts =
      RealOps::GhostPrefix(m2, &copy, RealOps::CountRaw(m2, &copy));
  RealOps::FixNode(m2, &copy, Resolve);
  EXPECT_FALSE(RealOps::FixNode(m2, &copy, Resolve));  // converged
  for (int i = 0; i < ghosts; ++i) {
    EXPECT_EQ(copy.records[i].ptr, copy.hdr.leftmost) << "ghost " << i;
    EXPECT_EQ(copy.records[i].key, img.Read64(&node->records[i].key))
        << "ghost " << i;
  }
  Record buf[kCap];
  const int n = RealOps::CollectValid(m2, &copy, buf);
  std::map<Key, Value> fixed;
  for (int i = 0; i < n; ++i) fixed[buf[i].key] = buf[i].ptr;
  EXPECT_TRUE(fixed == before || fixed == after);
  for (int i = 1; i < n; ++i) ASSERT_LT(buf[i - 1].key, buf[i].key);
}

/// SearchLeaf on `img` finds every key of `seen` with its value, and
/// nothing for the other keys of `before` and `after`.
void ExpectSearchAgrees(const SimMem::Image& img, const NodeT* node,
                        const std::map<Key, Value>& seen,
                        const std::map<Key, Value>& before,
                        const std::map<Key, Value>& after) {
  ImageMem im{&img};
  for (const auto* set : {&before, &after}) {
    for (const auto& [k, v] : *set) {
      const auto it = seen.find(k);
      EXPECT_EQ(ImgOps::SearchLeaf(im, node, k),
                it == seen.end() ? kNoValue : it->second)
          << "key " << k;
    }
  }
}

/// Committed keys 10, 20, ... (fill of them); the new key lands at sorted
/// index pos. With `delete_phase` the node last ran a delete, so the
/// insert flips its direction, and the bump is never flushed.
void CheckInsertCrashStates(int fill, int pos, bool delete_phase) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  std::map<Key, Value> before;
  for (int i = 0; i < fill; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &node, k, k + 1);
    before[k] = k + 1;
  }
  if (delete_phase) {
    // Only a shifting delete flips the node, and a front delete does not
    // shift: the tail key leaves from behind a live key (an extra one in
    // an empty node, which then leaves by a front delete).
    constexpr Key kFlip = 1000000;
    if (fill == 0) RealOps::InsertKey(rm, &node, kFlip - 2, kFlip - 1);
    RealOps::InsertKey(rm, &node, kFlip, kFlip + 1);
    ASSERT_TRUE(RealOps::DeleteKey(rm, &node, kFlip));
    if (fill == 0) {
      ASSERT_TRUE(RealOps::DeleteKey(rm, &node, kFlip - 2));
    }
    ASSERT_EQ(RealOps::LoadSwitch(rm, &node) % 2, 1u);
  }
  const Key newkey = static_cast<Key>(pos * 10 + 5);
  std::map<Key, Value> after = before;
  after[newkey] = newkey + 1;

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, newkey, newkey + 1);

  std::size_t images = 0, after_images = 0, after_stale_parity = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    const auto seen = ReadImage(img, &node);
    const bool is_before = seen == before;
    const bool is_after = seen == after;
    ASSERT_TRUE(is_before || is_after)
        << "torn state with " << seen.size() << " keys at image " << images;
    after_images += is_after;
    ImageMem im{&img};
    after_stale_parity += is_after && ImgOps::LoadSwitch(im, &node) % 2 == 1;
    ExpectSearchAgrees(img, &node, seen, before, after);
    ExpectFixConverges(img, &node, before, after);
  });
  EXPECT_TRUE(complete) << "crash-state enumeration hit the cap";
  EXPECT_GE(images, 2u);
  EXPECT_GE(after_images, 1u);  // the fully-persisted state is reachable
  // The unflushed flip: a committed insert read in the delete phase.
  if (delete_phase) {
    EXPECT_GE(after_stale_parity, 1u);
  }
}

class FastInsertCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(FastInsertCrash, EveryCrashStateIsBeforeOrAfter) {
  CheckInsertCrashStates(GetParam().fill, GetParam().pos,
                         /*delete_phase=*/false);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastInsertCrash,
                         ::testing::ValuesIn(InsertCases()));

// The same sweep into a delete-phase node: every image, whichever
// direction its unflushed switch counter names, reads before or after.
class FastInsertFlipCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(FastInsertFlipCrash, EveryCrashStateIsBeforeOrAfter) {
  CheckInsertCrashStates(GetParam().fill, GetParam().pos,
                         /*delete_phase=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastInsertFlipCrash,
                         ::testing::ValuesIn(InsertCases()));

// FixNode's compaction of an insert-phase node flips it to the delete
// phase without flushing the bump. Its images must all read the node's
// valid set, which the compaction does not change.
enum class Forged { kSlotZeroHole, kDuplicatePtr };

void PrintTo(Forged f, std::ostream* os) {
  *os << (f == Forged::kSlotZeroHole ? "SlotZeroHole" : "DuplicatePtr");
}

class FixNodeFlipCrash : public ::testing::TestWithParam<Forged> {};

TEST_P(FixNodeFlipCrash, EveryCrashStateReadsTheValidSet) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  std::map<Key, Value> valid;
  for (Key k = 10; k <= 120; k += 10) {
    RealOps::InsertKey(rm, &node, k, k + 1);
    valid[k] = k + 1;
  }
  if (GetParam() == Forged::kSlotZeroHole) {
    node.records[0].ptr = 0;  // an insert or delete at slot 0 in flight
    valid.erase(10);
  } else {
    node.records[3].key = 999;  // a crashed insert's duplicate-ptr slot
    node.records[3].ptr = node.records[2].ptr;
    valid.erase(40);
  }
  ASSERT_EQ(RealOps::LoadSwitch(rm, &node) % 2, 0u);

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::FixNode(sim, &node, Resolve));
  std::size_t images = 0, insert_phase = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    const auto seen = ReadImage(img, &node);
    ASSERT_TRUE(seen == valid) << "image " << images;
    ImageMem im{&img};
    insert_phase += ImgOps::LoadSwitch(im, &node) % 2 == 0;
    ExpectSearchAgrees(img, &node, seen, valid, valid);
    ExpectFixConverges(img, &node, valid, valid);
  });
  EXPECT_TRUE(complete);
  EXPECT_GE(insert_phase, 1u);  // compaction images read forward
}

INSTANTIATE_TEST_SUITE_P(Forged, FixNodeFlipCrash,
                         ::testing::Values(Forged::kSlotZeroHole,
                                           Forged::kDuplicatePtr));

std::vector<CrashCase> DeleteCases() {
  std::vector<CrashCase> cases;
  for (const int fill : {1, 2, 3, 8, kCap}) {
    for (int pos = 0; pos < fill; ++pos) cases.push_back({fill, pos});
  }
  return cases;
}

class FastDeleteCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(FastDeleteCrash, EveryCrashStateIsBeforeOrAfter) {
  const auto [fill, pos] = GetParam();
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  std::map<Key, Value> before;
  for (int i = 0; i < fill; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &node, k, k + 1);
    before[k] = k + 1;
  }
  const Key victim = static_cast<Key>((pos + 1) * 10);
  std::map<Key, Value> after = before;
  after.erase(victim);

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::DeleteKey(sim, &node, victim));

  std::size_t images = 0, after_images = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    const auto seen = ReadImage(img, &node);
    const bool is_before = seen == before;
    const bool is_after = seen == after;
    ASSERT_TRUE(is_before || is_after)
        << "torn delete state at image " << images;
    after_images += is_after;

    // Point lookups through the direction-aware reader must agree.
    ImageMem im{&img};
    for (const auto& [k, v] : before) {
      const Value got = ImgOps::SearchLeaf(im, &node, k);
      if (k == victim) {
        EXPECT_TRUE(got == v || got == kNoValue);
        EXPECT_EQ(got == v, is_before);
      } else {
        EXPECT_EQ(got, v);
      }
    }
  });
  EXPECT_TRUE(complete);
  EXPECT_GE(after_images, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastDeleteCrash,
                         ::testing::ValuesIn(DeleteCases()));

// --- ghost prefixes -----------------------------------------------------------
//
// The writes that grow, reclaim and compact a leaf's ghost prefix, run on
// the root leaf of a one-leaf tree so that each crash image, written back
// into the pool, is also walked by pm::CheckTree, the reopen fsck.

// Keys 10, 20, ...; a value never equals the leaf's address.
Value GhostValue(Key k) { return k + 1; }

struct GhostTree {
  GhostTree() : pool(8 << 20), tree(&pool) {}

  NodeT* Leaf() { return reinterpret_cast<NodeT*>(tree.meta()->root); }

  // A root leaf of keys 10..10*records whose first `ghosts` keys left by
  // front deletes through the tree.
  std::map<Key, Value> Build(int records, int ghosts) {
    std::map<Key, Value> live;
    for (int i = 1; i <= records; ++i) {
      tree.Insert(Key(i) * 10, GhostValue(Key(i) * 10));
      live[Key(i) * 10] = GhostValue(Key(i) * 10);
    }
    for (int i = 1; i <= ghosts; ++i) {
      EXPECT_TRUE(tree.Remove(Key(i) * 10));
      live.erase(Key(i) * 10);
    }
    EXPECT_TRUE(Leaf()->is_leaf());
    RealMem rm;
    EXPECT_EQ(RealOps::GhostPrefix(rm, Leaf(), RealOps::CountRaw(rm, Leaf())),
              records == ghosts ? 0 : ghosts);
    return live;
  }

  // Enumerates the crash images of `op` run on the leaf through SimMem.
  // Each must read `before` or `after` through CollectValid and SearchLeaf,
  // FixNode must converge on one of them leaving the image's ghost slots
  // as they are, and the image written into the pool must pass CheckTree
  // with that many entries.
  template <class Op>
  void ExpectBeforeOrAfter(const std::map<Key, Value>& before,
                           const std::map<Key, Value>& after, Op op) {
    NodeT* leaf = Leaf();
    SimMem sim;
    sim.Adopt(leaf, sizeof(NodeT));
    op(sim, leaf);
    alignas(64) NodeT saved;
    std::memcpy(static_cast<void*>(&saved), leaf, sizeof(NodeT));
    std::size_t images = 0, after_images = 0;
    const bool complete =
        sim.EnumerateCrashStates([&](const SimMem::Image& img) {
          ++images;
          const auto seen = ReadImage(img, leaf);
          const bool is_after = seen == after;
          ASSERT_TRUE(seen == before || is_after) << "image " << images;
          after_images += is_after;
          ExpectSearchAgrees(img, leaf, seen, before, after);
          ExpectFixConverges(img, leaf, before, after);
          Materialize(img, leaf, leaf);
          leaf->hdr.lock.Reset();
          const pm::CheckReport r = pm::CheckTree(&pool, tree.meta());
          EXPECT_TRUE(r.ok()) << "image " << images << "\n" << r.ToString();
          EXPECT_EQ(r.entries, seen.size()) << "image " << images;
          std::memcpy(static_cast<void*>(leaf), &saved, sizeof(NodeT));
        });
    EXPECT_TRUE(complete);
    EXPECT_GE(images, 2u);
    EXPECT_GE(after_images, 1u);
  }

  pm::Pool pool;
  BTree tree;
};

// Deleting the first live record behind every ghost-prefix length of a
// full leaf (the last one empties it), and emptying one- and two-slot
// leaves.
TEST(GhostCrash, FrontDeleteAtEveryGhostPrefixLength) {
  const auto run = [](int records, int g) {
    SCOPED_TRACE(std::to_string(records) + " records, " + std::to_string(g) +
                 " ghosts");
    GhostTree t;
    const auto before = t.Build(records, g);
    const Key victim = Key(g + 1) * 10;
    auto after = before;
    after.erase(victim);
    t.ExpectBeforeOrAfter(before, after, [&](SimMem& sim, NodeT* leaf) {
      ASSERT_TRUE(SimOps::DeleteKey(sim, leaf, victim));
    });
  };
  for (int g = 0; g < kCap; ++g) run(kCap, g);
  run(1, 0);
  run(2, 1);
}

// A key below every live key takes the last ghost's slot: a new key, and
// the ghost's own deleted key put back.
TEST(GhostCrash, PutIntoLastGhost) {
  for (const int g : {1, 2, 5, kCap - 1}) {
    for (const Key k : {Key(g) * 10 + 5, Key(g) * 10}) {
      SCOPED_TRACE(std::to_string(g) + " ghosts, put " + std::to_string(k));
      GhostTree t;
      const auto before = t.Build(kCap, g);
      auto after = before;
      after[k] = GhostValue(k);
      t.ExpectBeforeOrAfter(before, after, [&](SimMem& sim, NodeT* leaf) {
        SimOps::InsertKey(sim, leaf, k, GhostValue(k));
      });
    }
  }
}

// A raw-full leaf with ghosts compacts its last ghost away, then inserts:
// in the middle, and past its last key.
TEST(GhostCrash, CompactionBeforeInsert) {
  for (const int g : {1, 2, 7}) {
    for (const Key k : {Key(g + 3) * 10 + 5, Key(kCap + 1) * 10}) {
      SCOPED_TRACE(std::to_string(g) + " ghosts, put " + std::to_string(k));
      GhostTree t;
      const auto before = t.Build(kCap, g);
      auto after = before;
      after[k] = GhostValue(k);
      t.ExpectBeforeOrAfter(before, after, [&](SimMem& sim, NodeT* leaf) {
        ASSERT_TRUE(SimOps::HasRoom(sim, leaf));
        SimOps::InsertKey(sim, leaf, k, GhostValue(k));
        EXPECT_EQ(SimOps::CountRaw(sim, leaf), kCap);
        EXPECT_EQ(SimOps::GhostPrefix(sim, leaf, kCap), g - 1);
      });
    }
  }
}

// Upsert (UpdateKey) is a single 8-byte store: both values must be the only
// observable states.
TEST(FastUpdateCrash, ValueUpdateIsAtomic) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  for (Key k = 1; k <= 5; ++k) RealOps::InsertKey(rm, &node, k * 10, k * 100);
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::UpdateKey(sim, &node, 30, 777));
  sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ImageMem im{&img};
    const Value got = ImgOps::SearchLeaf(im, &node, 30);
    EXPECT_TRUE(got == 300u || got == 777u) << got;
    EXPECT_EQ(ImgOps::SearchLeaf(im, &node, 20), 200u);
  });
}

// The paper's worst case: a 512-byte node spans 8 cache lines; FAST must
// flush at most one line per record-line crossed plus the commit. Verify
// the flush count stays within the paper's bound (8 worst case for 512 B).
TEST(FastCost, FlushCountWithinPaperBound) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  for (int i = 0; i < kCap - 1; ++i) {
    RealOps::InsertKey(rm, &node, static_cast<Key>(2 * i + 10), 1000u + static_cast<Value>(i));
  }
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, 1, 999);  // worst case: shift everything
  std::size_t flushes = 0;
  for (const auto& e : sim.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
  }
  // 8 lines of node + header direction flip allowance.
  EXPECT_LE(flushes, sizeof(NodeT) / kCacheLineSize + 1);
  EXPECT_GE(flushes, 2u);
}

// Ascending (append-like) inserts touch only the tail line: one flush.
TEST(FastCost, AppendInsertIsOneFlush) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  RealOps::InsertKey(rm, &node, 10, 11);
  RealOps::InsertKey(rm, &node, 20, 21);
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, 30, 31);  // max key: no shift
  std::size_t flushes = 0;
  for (const auto& e : sim.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
  }
  EXPECT_EQ(flushes, 1u);
}

}  // namespace
}  // namespace fastfair::core
