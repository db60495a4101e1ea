// The one tree verifier, tested both ways: pm::CheckTree runs behind the
// reopen-time fsck (pm::CheckPool) and behind core::BTreeT::CheckInvariants
// (DESIGN.md §11.4). Each case forges one node state by direct writes into
// a two-level tree (200 keys, 512-byte nodes):
//
//  * the states the paper calls endurable — an un-truncated FAIR split, a
//    duplicate-key remnant of a delete shift, a slot-0 hole, a
//    duplicate-pointer slot, and (lazy reclamation) a route to an unlinked
//    dead leaf awaiting repair — and a leaf's ghost prefix must pass both
//    entry points, with the walk counting exactly the entries
//    CountEntries() reports, and must stay legal through the writes that
//    repair them;
//  * each defect — a left-node copy its sibling lacks or holds differently,
//    a record hidden by such copies, a parent route off the child chain, a
//    key below its node's fence, keys out of order in a delete-phase node,
//    a leaf whose slot 0 takes another node's address as its left
//    neighbour — must be reported by both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "pm/check.h"
#include "pm/pool.h"

namespace fastfair::core {
namespace {

using NodeT = BTree::NodeT;
constexpr int kCap = BTree::kNodeCapacity;
constexpr Key kKeys = 200;

Value ValueOf(Key k) { return 2 * k + 1; }

class TreeCheck : public ::testing::Test {
 protected:
  TreeCheck() : pool_(std::size_t{16} << 20), tree_(&pool_) {
    for (Key k = 1; k <= kKeys; ++k) tree_.Insert(10 * k, ValueOf(10 * k));
    pool_.SetRoot(tree_.meta());
  }

  void SetUp() override {
    ASSERT_EQ(tree_.Height(), 2);
    ExpectLegal(kKeys);
  }

  NodeT* Root() const { return reinterpret_cast<NodeT*>(tree_.meta()->root); }
  NodeT* Leaf(int i) const {  // i-th leaf on the chain
    auto* n = reinterpret_cast<NodeT*>(Root()->hdr.leftmost);
    while (i-- > 0) n = Sibling(n);
    return n;
  }
  static NodeT* Sibling(const NodeT* n) {
    return reinterpret_cast<NodeT*>(n->hdr.sibling);
  }
  static int Count(const NodeT* n) {  // slots up to the terminator
    int c = 0;
    while (n->records[c].ptr != 0) ++c;
    return c;
  }

  // Forges the state a crash between FAIR's sibling-pointer commit and the
  // left node's truncation store leaves: the first leaf still holds the
  // records it copied out to its sibling. Returns how many it holds.
  int ForgeUntruncatedSplit() {
    NodeT* left = Leaf(0);
    const NodeT* right = Sibling(left);
    const int cnt = Count(left);
    const int copies = std::min(Count(right), kCap - cnt);
    for (int i = 0; i < copies; ++i) left->records[cnt + i] = right->records[i];
    left->records[cnt + copies].ptr = 0;
    return copies;
  }

  void ExpectLegal(std::size_t entries) {
    std::string msg;
    EXPECT_TRUE(tree_.CheckInvariants(&msg)) << msg;
    const pm::CheckReport r = pm::CheckPool(&pool_);
    EXPECT_TRUE(r.ok()) << r.ToString();
    EXPECT_EQ(tree_.CountEntries(), entries);
    EXPECT_EQ(r.entries, entries);
  }

  void ExpectDefect(const std::string& error) {
    std::string msg;
    EXPECT_FALSE(tree_.CheckInvariants(&msg));
    EXPECT_NE(msg.find(error), std::string::npos) << msg;
    const pm::CheckReport r = pm::CheckPool(&pool_);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.ToString().find(error), std::string::npos) << r.ToString();
  }

  pm::Pool pool_;
  BTree tree_;
};

// (a) An un-truncated FAIR split.
TEST_F(TreeCheck, UntruncatedSplitIsLegal) {
  const int cnt = Count(Leaf(0));
  ASSERT_GT(ForgeUntruncatedSplit(), 1);
  ExpectLegal(kKeys);
  for (Key k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(tree_.Search(10 * k), ValueOf(10 * k)) << 10 * k;
  }
  // The next writer into the left leaf completes the truncation.
  tree_.Insert(15, ValueOf(15));
  EXPECT_EQ(Count(Leaf(0)), cnt + 1);
  ExpectLegal(kKeys + 1);
}

// The repair truncates at the sibling's persistent fence, the ownership
// rule the walk enforces, not at the sibling's first key: once the sibling
// has deleted its fence key, the left leaf's copy of it goes too.
TEST_F(TreeCheck, RepairTruncatesAtTheSiblingsFence) {
  ASSERT_GT(ForgeUntruncatedSplit(), 1);
  const Key fence = Sibling(Leaf(0))->hdr.fence;
  ASSERT_TRUE(tree_.Remove(fence));
  tree_.Insert(15, ValueOf(15));
  ExpectLegal(kKeys);
  EXPECT_EQ(tree_.Search(fence), kNoValue);
}

// The state a crash between FAIR's sibling commit and the parent insert
// leaves: the copies are still in the left leaf and no parent route leads
// to the sibling, so writers of the sibling's range reach it by moving
// right from the left leaf. The writer truncates the copies before its
// write lands in the sibling: a delete of a copied key must not leave the
// copy behind, and an insert between two copies must stay visible to
// chain scans.
TEST_F(TreeCheck, WriterRepairsTheLeafItMovesRightFrom) {
  ASSERT_GT(ForgeUntruncatedSplit(), 2);
  NodeT* root = Root();
  ASSERT_EQ(root->records[0].ptr, reinterpret_cast<std::uint64_t>(Leaf(1)));
  const int routes = Count(root);
  for (int i = 0; i < routes; ++i) root->records[i] = root->records[i + 1];
  ExpectLegal(kKeys);

  const Key copy = Sibling(Leaf(0))->hdr.fence + 10;  // the second copy
  ASSERT_TRUE(tree_.Remove(copy));
  ExpectLegal(kKeys - 1);
  const Key between = copy - 5;
  tree_.Insert(between, ValueOf(between));
  ExpectLegal(kKeys);
  std::vector<Record> out(2 * kKeys);
  const std::size_t got = tree_.Scan(0, out.size(), out.data());
  ASSERT_EQ(got, kKeys);
  EXPECT_TRUE(std::any_of(out.begin(), out.begin() + got,
                          [&](const Record& r) { return r.key == between; }));
  EXPECT_EQ(tree_.Search(copy), kNoValue);
}

// (b) A torn delete shift: two adjacent valid slots hold one key, and the
// right one is authoritative, so the left slot's record is gone.
TEST_F(TreeCheck, DuplicateKeyRemnantIsLegal) {
  NodeT* leaf = Leaf(1);
  leaf->records[3].key = leaf->records[4].key;
  ExpectLegal(kKeys - 1);
}

// Torn FAST shifts: a slot-0 hole left by a delete at slot 0 (that record
// is gone), and a duplicate-pointer slot with a garbage key left by an
// insert's shift (invalid, so its key is never read).
TEST_F(TreeCheck, ShiftTransientsAreLegal) {
  Leaf(1)->records[0].ptr = 0;
  NodeT* leaf = Leaf(2);
  const int cnt = Count(leaf);
  for (int i = cnt; i > 3; --i) leaf->records[i] = leaf->records[i - 1];
  leaf->records[3] = {~Key{0}, leaf->records[2].ptr};
  leaf->records[cnt + 1].ptr = 0;
  ExpectLegal(kKeys - 1);
}

// Front deletes leave a leaf's first slots as ghosts (their ptr is the
// leaf's own address, their keys stale); a key put below the live ones
// takes the last ghost, and the emptying delete's torn image (slot 1's ptr
// zeroed, slot 0 still a ghost) reads empty.
TEST_F(TreeCheck, GhostPrefixesAreLegal) {
  NodeT* leaf = Leaf(1);
  const Key first = leaf->records[0].key;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tree_.Remove(leaf->records[i].key));
  ASSERT_EQ(leaf->records[0].ptr, reinterpret_cast<std::uint64_t>(leaf));
  ExpectLegal(kKeys - 3);
  ASSERT_TRUE(tree_.Insert(first, ValueOf(first)));
  ASSERT_EQ(leaf->records[2].key, first);
  ExpectLegal(kKeys - 2);
  NodeT* drained = Leaf(2);
  const int cnt = Count(drained);
  for (int i = 0; i < cnt; ++i) {
    drained->records[i].ptr = reinterpret_cast<std::uint64_t>(drained);
  }
  drained->records[1].ptr = 0;
  ExpectLegal(kKeys - 2 - static_cast<std::size_t>(cnt));
}

// A crash between unlinking an emptied leaf from the chain and redirecting
// its parent route: the route to the dead leaf awaits lazy repair.
TEST_F(TreeCheck, RouteToUnlinkedDeadLeafIsLegal) {
  NodeT* left = Leaf(1);
  NodeT* dead = Sibling(left);
  const int cnt = Count(dead);
  // Front deletes leave ghosts in place: read the keys before draining.
  std::vector<Key> keys;
  for (int i = 0; i < cnt; ++i) keys.push_back(dead->records[i].key);
  for (const Key k : keys) ASSERT_TRUE(tree_.Remove(k));
  dead->hdr.flags |= kNodeDead;
  left->hdr.sibling = dead->hdr.sibling;
  ExpectLegal(kKeys - static_cast<std::size_t>(cnt));
}

// (c) The left leaf holds a key at or above its sibling's fence that the
// sibling does not: a stale copy no split could have left.
TEST_F(TreeCheck, CopyTheSiblingLacksIsADefect) {
  NodeT* left = Leaf(0);
  const Key fence = Sibling(left)->hdr.fence;
  ASSERT_TRUE(tree_.Remove(fence));
  const int cnt = Count(left);
  left->records[cnt] = {fence, ValueOf(fence)};
  left->records[cnt + 1].ptr = 0;
  ExpectDefect("split copy no node right of it holds");
}

// Split copies must be what their owner holds: a copy whose owner now
// holds another pointer for the key, or an owner record hidden inside the
// run of copies (a scan returning the copies would skip it), is reported.
TEST_F(TreeCheck, CopyDisagreeingWithItsOwnerIsADefect) {
  ASSERT_GT(ForgeUntruncatedSplit(), 1);
  Sibling(Leaf(0))->records[1].ptr += 2;
  ExpectDefect("split copy disagrees with its owner's pointer");
}

TEST_F(TreeCheck, RecordHiddenBySplitCopiesIsADefect) {
  ASSERT_GT(ForgeUntruncatedSplit(), 1);
  NodeT* right = Sibling(Leaf(0));
  const int cnt = Count(right);
  for (int i = cnt; i > 1; --i) right->records[i] = right->records[i - 1];
  right->records[1] = {right->records[0].key + 5, ValueOf(1)};
  right->records[cnt + 1].ptr = 0;
  ExpectDefect("hidden by a split copy left of it");
}

// (d) The parent routes to a copy of a leaf that is not on the leaf chain.
TEST_F(TreeCheck, RouteOffTheChainIsADefect) {
  NodeT* root = Root();
  const auto* leaf = reinterpret_cast<const NodeT*>(root->records[2].ptr);
  auto* copy = static_cast<NodeT*>(pool_.Alloc(sizeof(NodeT)));
  std::memcpy(static_cast<void*>(copy), leaf, sizeof(NodeT));
  root->records[2].ptr = reinterpret_cast<std::uint64_t>(copy);
  ExpectDefect("not reachable on the level-0 sibling chain");
}

// (e) A key below its node's persistent low fence.
TEST_F(TreeCheck, KeyBelowFenceIsADefect) {
  NodeT* leaf = Leaf(2);
  leaf->records[0].key = leaf->hdr.fence - 1;
  ExpectDefect("below its node's low fence");
}

// (f) Keys out of order inside a leaf in the delete phase (odd switch
// counter), where a backward collect would silently drop one of them.
TEST_F(TreeCheck, SwappedKeysInDeletePhaseAreADefect) {
  NodeT* leaf = Leaf(1);
  ASSERT_TRUE(tree_.Remove(leaf->records[1].key));
  ASSERT_EQ(leaf->hdr.switch_counter % 2, 1u);
  std::swap(leaf->records[2].key, leaf->records[3].key);
  ExpectDefect("keys not strictly ascending");
}

// (g) A leaf whose slot 0 takes another node's address as its left
// neighbour: a record holding that address as its value would read
// deleted.
TEST_F(TreeCheck, LeafAnchoredAtAnotherNodeIsADefect) {
  Leaf(1)->hdr.leftmost = reinterpret_cast<std::uint64_t>(Leaf(2));
  ExpectDefect("anchors slot 0 at another node's address");
}

}  // namespace
}  // namespace fastfair::core
