// Recovery tests: attaching to an existing tree (instant recovery), the
// file-backed restart path, lazy repair of forged crash states at tree
// level (dangling siblings, duplicate-pointer garbage), and the
// FAST+Logging undo path.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/rng.h"
#include "core/btree.h"
#include "pm/check.h"

namespace fastfair::core {
namespace {

TEST(BTreeRecovery, AttachToExistingTreeInSamePool) {
  pm::Pool pool(256 << 20);
  std::map<Key, Value> model;
  TreeMeta* meta = nullptr;
  {
    BTree tree(&pool);
    meta = tree.meta();
    Rng rng(1);
    for (int i = 0; i < 30000; ++i) {
      const Key k = rng.Next() | 1;
      tree.Insert(k, k + 9);
      model[k] = k + 9;
    }
  }  // handle destroyed; persistent bytes remain
  BTree recovered(&pool, meta);
  EXPECT_EQ(recovered.CountEntries(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(recovered.Search(k), v);
  std::string msg;
  EXPECT_TRUE(recovered.CheckInvariants(&msg)) << msg;
  // The recovered tree stays fully writable.
  recovered.Insert(2, 22);
  EXPECT_EQ(recovered.Search(2), 22u);
}

TEST(BTreeRecovery, AttachRejectsWrongPageSize) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  EXPECT_THROW(BTreeT<1024>(&pool, reinterpret_cast<TreeMeta*>(tree.meta())),
               std::runtime_error);
}

TEST(BTreeRecovery, FileBackedRestartRecoversAllData) {
  const std::string path = ::testing::TempDir() + "/ff_btree_restart.pm";
  std::remove(path.c_str());
  constexpr std::size_t kCap = 256 << 20;
  std::map<Key, Value> model;
  {
    pm::Pool::Options po;
    po.capacity = kCap;
    po.file_path = path;
    pm::Pool pool(po);
    BTree tree(&pool);
    pool.SetRoot(tree.meta());
    Rng rng(2);
    for (int i = 0; i < 20000; ++i) {
      const Key k = rng.Next() | 1;
      tree.Insert(k, k ^ 0xabcd);
      model[k] = k ^ 0xabcd;
    }
  }  // process "crash": pool unmapped
  {
    pm::Pool::Options po;
    po.capacity = kCap;
    po.file_path = path;
    pm::Pool pool(po);
    ASSERT_TRUE(pool.reopened());
    auto* meta = static_cast<TreeMeta*>(pool.GetRoot());
    ASSERT_NE(meta, nullptr);
    BTree tree(&pool, meta);
    EXPECT_EQ(tree.CountEntries(), model.size());
    for (const auto& [k, v] : model) ASSERT_EQ(tree.Search(k), v);
    // And it keeps working after recovery.
    tree.Insert(4, 44);
    EXPECT_EQ(tree.Search(4), 44u);
  }
  std::remove(path.c_str());
}

TEST(BTreeRecovery, AdoptsDanglingRootSibling) {
  // Forge the crash state "root split committed, new root never installed":
  // build two trees' worth of content by splitting the root manually.
  pm::Pool pool(64 << 20);
  using Tree = BTreeT<512>;
  using NodeT = Tree::NodeT;
  using Ops = Tree::Ops;
  Tree tree(&pool);
  RealMem m;
  // Fill the root (a leaf) to capacity through the public API, staying
  // below the split threshold.
  for (int i = 0; i < Tree::kNodeCapacity; ++i) {
    tree.Insert(static_cast<Key>((i + 1) * 10),
                static_cast<Value>((i + 1) * 10 + 1));
  }
  ASSERT_EQ(tree.Height(), 1);
  // Manually split the root leaf the FAIR way, then "crash" before the new
  // root exists: reattach and expect AdoptRootChain to rebuild the parent.
  auto* root = reinterpret_cast<NodeT*>(
      std::atomic_ref<std::uint64_t>(tree.meta()->root).load());
  auto* sibling = static_cast<NodeT*>(pool.Alloc(sizeof(NodeT), 64));
  sibling->Init(0);
  const int cnt = Ops::CountRaw(m, root);
  Ops::SplitCopy(m, root, sibling, cnt / 2, cnt);
  Ops::CommitSplit(m, root, sibling, cnt / 2);

  const pm::ThreadStats before = pm::Stats();
  BTree recovered(&pool, tree.meta());
  const pm::ThreadStats attach = pm::Stats() - before;
  EXPECT_EQ(recovered.Height(), 2);  // new root adopted the chain
  // The new root is a fresh node, filled by plain stores: its two lines
  // through the terminator, then the meta's root word, each persist with
  // one fence.
  EXPECT_EQ(attach.flush_lines, 3u);
  EXPECT_EQ(attach.fences, 2u);
  for (int i = 0; i < Tree::kNodeCapacity; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    ASSERT_EQ(recovered.Search(k), k + 1);
  }
  std::string msg;
  EXPECT_TRUE(recovered.CheckInvariants(&msg)) << msg;
}

TEST(BTreeRecovery, WriterLazilyFixesForgedDuplicatePointer) {
  pm::Pool pool(64 << 20);
  using Tree = BTreeT<512>;
  using NodeT = Tree::NodeT;
  Tree tree(&pool);
  for (Key k = 1; k <= 10; ++k) tree.Insert(k * 10, k * 10 + 1);
  // Forge crashed-insert garbage directly in the root leaf.
  auto* root = reinterpret_cast<NodeT*>(
      std::atomic_ref<std::uint64_t>(tree.meta()->root).load());
  root->records[3].key = 31;  // garbage key between 30 and 40
  root->records[3].ptr = root->records[2].ptr;  // duplicate: invalid
  // ... but records beyond shift one right, emulating the torn shift.
  // (Readers tolerate it:)
  EXPECT_EQ(tree.Search(30), 31u);
  EXPECT_EQ(tree.Search(31), kNoValue);
  // A writer touching the leaf repairs it en passant.
  tree.Insert(55, 551);
  EXPECT_EQ(tree.Search(30), 31u);
  EXPECT_EQ(tree.Search(55), 551u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeRecovery, ParentPublishRepairsForgedDuplicatePointerInRoot) {
  // Forge a torn FAST insert in the internal root: routes from slot 2 on
  // shifted one slot right, and slot 2 holding a key whose ptr still
  // duplicates its left neighbour's (invalid to readers). Leaf writers
  // never lock the root, so the only writer that reaches it is the parent
  // publish of a leaf split, whose lock step must compact the slot before
  // it inserts the new separator.
  pm::Pool pool(64 << 20);
  using Tree = BTreeT<512>;
  using NodeT = Tree::NodeT;
  using Ops = Tree::Ops;
  Tree tree(&pool);
  RealMem m;
  std::map<Key, Value> model;
  for (Key k = 10; k <= 1000; k += 10) {
    tree.Insert(k, k + 1);
    model[k] = k + 1;
  }
  ASSERT_EQ(tree.Height(), 2);
  auto* root = reinterpret_cast<NodeT*>(
      std::atomic_ref<std::uint64_t>(tree.meta()->root).load());
  const int routes = Ops::CountRaw(m, root);
  ASSERT_GE(routes, 3);
  constexpr int kBad = 2;
  root->records[routes + 1].ptr = 0;
  for (int i = routes; i > kBad; --i) root->records[i] = root->records[i - 1];
  root->records[kBad].key = root->records[kBad - 1].key + 1;
  root->records[kBad].ptr = root->records[kBad - 1].ptr;
  const auto has_dup = [&] {
    for (int i = 0; i < Ops::CountRaw(m, root); ++i) {
      const std::uint64_t left = i == 0 ? Ops::LoadLeftmost(m, root)
                                        : Ops::LoadPtrAt(m, root, i - 1);
      if (Ops::LoadPtrAt(m, root, i) == left) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_dup());
  // Fill the leftmost leaf, then split it with one more insert.
  const auto* leaf = reinterpret_cast<const NodeT*>(root->hdr.leftmost);
  const int room = Tree::kNodeCapacity - Ops::CountRaw(m, leaf);
  ASSERT_GT(room, 0);
  Key k = 1;
  for (int i = 0; i < room; ++i, ++k) {
    if (k % 10 == 0) ++k;
    tree.Insert(k, k + 1);
    model[k] = k + 1;
  }
  EXPECT_TRUE(has_dup()) << "a leaf writer reached the root";
  if (k % 10 == 0) ++k;
  tree.Insert(k, k + 1);
  model[k] = k + 1;
  EXPECT_FALSE(has_dup());
  EXPECT_EQ(Ops::CountRaw(m, root), routes + 1);  // one new separator
  for (const auto& [key, v] : model) ASSERT_EQ(tree.Search(key), v) << key;
  pool.SetRoot(tree.meta());
  const pm::CheckReport report = pm::CheckPool(&pool);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.entries, model.size());
}

TEST(BTreeRecovery, LoggingModeUndoesTornSplitViaLog) {
  // FAST+Logging: if the undo log is active at attach time, the logged
  // node image is restored. Forge that state by copying a node image into
  // the log area and marking it active, then mutating the node.
  pm::Pool pool(64 << 20);
  Options opts;
  opts.rebalance = RebalanceMode::kLogging;
  using Tree = BTreeT<512>;
  using NodeT = Tree::NodeT;
  Tree tree(&pool, opts);
  for (Key k = 1; k <= 10; ++k) tree.Insert(k * 10, k * 10 + 1);
  auto* root = reinterpret_cast<NodeT*>(
      std::atomic_ref<std::uint64_t>(tree.meta()->root).load());

  struct LogView {  // mirrors BTreeT::SplitLog layout
    std::uint64_t active;
    std::uint8_t image[512];
  };
  auto* log = reinterpret_cast<LogView*>(tree.meta()->split_log);
  ASSERT_NE(log, nullptr);
  std::memcpy(log->image, root, 512);
  log->active = reinterpret_cast<std::uint64_t>(root);
  // "Torn split": clobber the node after the log point.
  root->records[0].key = 9999;
  root->records[5].ptr = 0;

  Tree recovered(&pool, tree.meta(), opts);
  for (Key k = 1; k <= 10; ++k) ASSERT_EQ(recovered.Search(k * 10), k * 10 + 1);
  std::string msg;
  EXPECT_TRUE(recovered.CheckInvariants(&msg)) << msg;
}

TEST(BTreeRecovery, RecoveredTreeSupportsFullWorkload) {
  pm::Pool pool(256 << 20);
  TreeMeta* meta;
  {
    BTree tree(&pool);
    meta = tree.meta();
    for (Key k = 1; k <= 20000; ++k) tree.Insert(k, 2 * k + 1);
  }
  BTree tree(&pool, meta);
  std::map<Key, Value> model;
  for (Key k = 1; k <= 20000; ++k) model[k] = 2 * k + 1;
  Rng rng(9);
  for (int i = 0; i < 30000; ++i) {
    const Key k = rng.NextBounded(40000) + 1;
    if (rng.NextBounded(3) == 0) {
      const bool in_model = model.erase(k) > 0;
      ASSERT_EQ(tree.Remove(k), in_model);
    } else {
      tree.Insert(k, 2 * k + 2);
      model[k] = 2 * k + 2;
    }
  }
  ASSERT_EQ(tree.CountEntries(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(tree.Search(k), v);
}

}  // namespace
}  // namespace fastfair::core
