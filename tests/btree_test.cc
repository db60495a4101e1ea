// Functional tests for the FAST+FAIR B+-tree: model-based random-operation
// equivalence against std::map across node sizes and option combinations,
// plus targeted edge cases (splits, root growth, scans, upserts).

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/btree.h"
#include "index/index.h"
#include "pm/check.h"

namespace fastfair::core {
namespace {

TEST(BTreeBasic, EmptyTree) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  EXPECT_EQ(tree.Search(1), kNoValue);
  EXPECT_FALSE(tree.Remove(1));
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_EQ(tree.CountEntries(), 0u);
  Record out[4];
  EXPECT_EQ(tree.Scan(0, 4, out), 0u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeBasic, SingleKey) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  tree.Insert(42, 420);
  EXPECT_EQ(tree.Search(42), 420u);
  EXPECT_EQ(tree.Search(41), kNoValue);
  EXPECT_EQ(tree.Search(43), kNoValue);
  EXPECT_EQ(tree.CountEntries(), 1u);
  EXPECT_TRUE(tree.Remove(42));
  EXPECT_EQ(tree.Search(42), kNoValue);
  EXPECT_EQ(tree.CountEntries(), 0u);
}

TEST(BTreeBasic, UpsertOverwrites) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  tree.Insert(7, 70);
  tree.Insert(7, 71);
  EXPECT_EQ(tree.Search(7), 71u);
  EXPECT_EQ(tree.CountEntries(), 1u);
}

TEST(BTreeBasic, SequentialInsertGrowsHeight) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  for (Key k = 1; k <= 10000; ++k) tree.Insert(k, k + 1);
  EXPECT_GT(tree.Height(), 2);
  for (Key k = 1; k <= 10000; ++k) ASSERT_EQ(tree.Search(k), k + 1);
  EXPECT_EQ(tree.CountEntries(), 10000u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeBasic, ReverseSequentialInsert) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  for (Key k = 10000; k >= 1; --k) tree.Insert(k, k + 1);
  for (Key k = 1; k <= 10000; ++k) ASSERT_EQ(tree.Search(k), k + 1);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeBasic, ExtremeKeys) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  const Key kMax = ~std::uint64_t{0};
  tree.Insert(kMax, 1);
  tree.Insert(1, 2);
  tree.Insert(kMax - 1, 3);
  tree.Insert(kMax / 2, 4);
  EXPECT_EQ(tree.Search(kMax), 1u);
  EXPECT_EQ(tree.Search(1), 2u);
  EXPECT_EQ(tree.Search(kMax - 1), 3u);
  EXPECT_EQ(tree.Search(kMax / 2), 4u);
}

TEST(BTreeBasic, KeyZeroIsSupported) {
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  tree.Insert(0, 99);
  EXPECT_EQ(tree.Search(0), 99u);
  for (Key k = 1; k < 200; ++k) tree.Insert(k, k + 1);
  EXPECT_EQ(tree.Search(0), 99u);
  EXPECT_TRUE(tree.Remove(0));
  EXPECT_EQ(tree.Search(0), kNoValue);
}

TEST(BTreeScan, ReturnsSortedRange) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  for (Key k = 2; k <= 2000; k += 2) tree.Insert(k, k * 3 + 1);
  std::vector<Record> out(100);
  const std::size_t n = tree.Scan(501, 100, out.data());
  ASSERT_EQ(n, 100u);
  EXPECT_EQ(out[0].key, 502u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].key, 502 + 2 * i);
    EXPECT_EQ(out[i].ptr, out[i].key * 3 + 1);
  }
}

TEST(BTreeScan, RangeBounds) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  for (Key k = 1; k <= 1000; ++k) tree.Insert(k, k + 1);
  std::vector<Record> out(2000);
  EXPECT_EQ(tree.ScanRange(100, 199, out.data(), 2000), 100u);
  EXPECT_EQ(tree.ScanRange(1001, 2000, out.data(), 2000), 0u);
  EXPECT_EQ(tree.ScanRange(0, 0, out.data(), 2000), 0u);
  EXPECT_EQ(tree.ScanRange(1000, 1000, out.data(), 2000), 1u);
  EXPECT_EQ(tree.ScanRange(1, 1000, out.data(), 500), 500u);  // cap respected
}

TEST(BTreeScan, ScanAcrossManyLeaves) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  std::map<Key, Value> model;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.Next();
    if (k == 0) continue;
    tree.Insert(k, 2 * k + 1);
    model[k] = 2 * k + 1;
  }
  std::vector<Record> out(model.size() + 10);
  const std::size_t n = tree.Scan(0, out.size(), out.data());
  ASSERT_EQ(n, model.size());
  auto it = model.begin();
  for (std::size_t i = 0; i < n; ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first);
    ASSERT_EQ(out[i].ptr, it->second);
  }
}

// --- parameterized model tests over option combinations ------------------------

struct TreeConfig {
  ConcurrencyMode cc;
  RebalanceMode rb;
  SearchMode sm;
  const char* label;
};

void PrintTo(const TreeConfig& c, std::ostream* os) { *os << c.label; }

class BTreeModel : public ::testing::TestWithParam<TreeConfig> {};

TEST_P(BTreeModel, RandomOpsMatchStdMap) {
  const auto& cfg = GetParam();
  Options opts;
  opts.concurrency = cfg.cc;
  opts.rebalance = cfg.rb;
  opts.search = cfg.sm;
  pm::Pool pool(512 << 20);
  BTree tree(&pool, opts);
  std::map<Key, Value> model;
  Rng rng(42);
  for (int i = 0; i < 60000; ++i) {
    const Key k = rng.NextBounded(30000) + 1;
    switch (rng.NextBounded(10)) {
      case 0:
      case 1: {  // delete
        const bool in_model = model.erase(k) > 0;
        ASSERT_EQ(tree.Remove(k), in_model) << "op " << i;
        break;
      }
      case 2: {  // lookup
        const auto it = model.find(k);
        ASSERT_EQ(tree.Search(k),
                  it == model.end() ? kNoValue : it->second)
            << "op " << i;
        break;
      }
      default: {  // insert/upsert
        const Value v = (k << 20) + static_cast<Value>(i) + 1;
        tree.Insert(k, v);
        model[k] = v;
        break;
      }
    }
  }
  ASSERT_EQ(tree.CountEntries(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(tree.Search(k), v);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
  // Full scan equivalence.
  std::vector<Record> out(model.size());
  ASSERT_EQ(tree.Scan(0, out.size(), out.data()), model.size());
  auto it = model.begin();
  for (std::size_t i = 0; i < out.size(); ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BTreeModel,
    ::testing::Values(
        TreeConfig{ConcurrencyMode::kLockFree, RebalanceMode::kFair,
                   SearchMode::kLinear, "lockfree_fair_linear"},
        TreeConfig{ConcurrencyMode::kLeafLock, RebalanceMode::kFair,
                   SearchMode::kLinear, "leaflock_fair_linear"},
        TreeConfig{ConcurrencyMode::kLockFree, RebalanceMode::kLogging,
                   SearchMode::kLinear, "lockfree_logging_linear"},
        TreeConfig{ConcurrencyMode::kLockFree, RebalanceMode::kFair,
                   SearchMode::kBinary, "lockfree_fair_binary"}),
    [](const auto& info) { return info.param.label; });

// --- node size sweep --------------------------------------------------------------

template <typename TreeT>
class BTreeSizes : public ::testing::Test {};

using TreeTypes = ::testing::Types<BTreeT<256>, BTreeT<512>, BTreeT<1024>,
                                   BTreeT<2048>, BTreeT<4096>>;
TYPED_TEST_SUITE(BTreeSizes, TreeTypes);

TYPED_TEST(BTreeSizes, RandomOpsMatchStdMap) {
  pm::Pool pool(512 << 20);
  TypeParam tree(&pool);
  std::map<Key, Value> model;
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    const Key k = rng.NextBounded(15000) + 1;
    if (rng.NextBounded(5) == 0) {
      const bool in_model = model.erase(k) > 0;
      ASSERT_EQ(tree.Remove(k), in_model);
    } else {
      const Value v = (k << 16) + static_cast<Value>(i) + 1;
      tree.Insert(k, v);
      model[k] = v;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(tree.Search(k), v);
  ASSERT_EQ(tree.CountEntries(), model.size());
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TYPED_TEST(BTreeSizes, HeightShrinksWithLargerNodes) {
  pm::Pool pool(512 << 20);
  TypeParam tree(&pool);
  for (Key k = 1; k <= 50000; ++k) tree.Insert(k, 2 * k + 1);
  // Height bound: half-full nodes give fan-out >= capacity/2 per level.
  const double fanout = static_cast<double>(TypeParam::kNodeCapacity) / 2.0;
  const int bound =
      2 + static_cast<int>(std::ceil(std::log(50000.0) / std::log(fanout)));
  EXPECT_LE(tree.Height(), bound);
  for (Key k = 1; k <= 50000; k += 97) ASSERT_EQ(tree.Search(k), 2 * k + 1);
}

TEST(BTreeLogging, SplitLogLeavesTreeIdentical) {
  // FAST+Logging must produce byte-equivalent *logical* trees; it differs
  // only in write amplification.
  pm::Pool pool_a(256 << 20), pool_b(256 << 20);
  Options logging;
  logging.rebalance = RebalanceMode::kLogging;
  BTree a(&pool_a);
  BTree b(&pool_b, logging);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.Next() | 1;
    a.Insert(k, k ^ 0xff);
    b.Insert(k, k ^ 0xff);
  }
  EXPECT_EQ(a.CountEntries(), b.CountEntries());
  Rng rng2(11);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng2.Next() | 1;
    ASSERT_EQ(a.Search(k), b.Search(k));
  }
}

TEST(BTreeFlushCost, AverageFlushesPerInsertMatchPaper) {
  // Paper §5.2: a 512-byte node costs 8 flushes worst case, ~4 on average;
  // plus amortized split flushes. Assert the measured average is in the
  // single digits and far below wB+-tree's >= 4 *minimum* + logging.
  pm::Pool pool(512 << 20);
  BTree tree(&pool);
  const std::size_t kN = 50000;
  Rng rng(5);
  pm::ResetStats();
  const auto before = pm::Stats();
  for (std::size_t i = 0; i < kN; ++i) tree.Insert(rng.Next() | 1, i + 1);
  const auto delta = pm::Stats() - before;
  const double per_op =
      static_cast<double>(delta.flush_lines) / static_cast<double>(kN);
  EXPECT_GT(per_op, 1.0);
  EXPECT_LT(per_op, 8.0);
}

TEST(BTreeFlushCost, AscendingInsertsPinTheLinesPerLeafSplit) {
  // Ascending inserts append at the end of each node. An append flushes
  // its commit line, plus the new terminator's line when the terminator
  // starts one. A full leaf splits with the new key carried into the
  // sibling: the sibling is flushed from its header through its
  // terminator's line (14 copied records and the carried key leave the
  // terminator in line 4: 5 lines), then the left header and the
  // truncation, each with a fence: 7 lines and 3 fences, and no insert
  // after. The parent then takes one append; the first split grows a
  // root instead, a fresh node filled by plain stores (its two lines
  // through the terminator, then the meta's root word, each persist with
  // one fence: 3 lines, 2 fences).
  constexpr int kCap = BTree::kNodeCapacity;
  const auto append_lines = [](int cnt) -> std::uint64_t {
    return (cnt + 1) % 4 == 0 ? 2 : 1;
  };
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  int leaf = 0;   // records in the rightmost leaf
  int root = -1;  // records in the internal root; -1 while the root is a leaf
  int splits = 0;
  for (Key k = 1; splits < 20; ++k) {
    std::uint64_t lines, fences;
    if (leaf < kCap) {
      lines = fences = append_lines(leaf++);
    } else {
      ++splits;
      lines = 7;
      fences = 3;
      leaf = kCap - kCap / 2 + 1;
      if (root < 0) {
        lines += 3;
        fences += 2;
        root = 1;
      } else {
        lines += append_lines(root);
        fences += append_lines(root++);
      }
    }
    const auto before = pm::Stats();
    tree.Insert(k, k + 1);
    const auto delta = pm::Stats() - before;
    ASSERT_EQ(delta.flush_lines, lines) << "key " << k << ", split " << splits;
    ASSERT_EQ(delta.fences, fences) << "key " << k << ", split " << splits;
  }
  EXPECT_EQ(tree.Height(), 2);
  EXPECT_EQ(leaf, kCap - kCap / 2 + 1);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}


// --- ghost prefixes ------------------------------------------------------------

using Ops = NodeOps<BTree::NodeT, RealMem>;

std::uint64_t LineOf(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
}

// Lines records[a..b] of `n` span: what a FAST shift over them flushes.
std::uint64_t LinesSpanned(const BTree::NodeT* n, int a, int b) {
  return LineOf(&n->records[b]) - LineOf(&n->records[a]) + 1;
}

BTree::NodeT* RootNode(const BTree& tree) {
  return reinterpret_cast<BTree::NodeT*>(tree.meta()->root);
}

TEST(BTreeFlushCost, FrontDrainPersistsOneLinePerDelete) {
  // Every delete of the smallest key turns its slot into a ghost with one
  // 8-byte store, or, as the leaf's last live record, zeroes slots 1 and 0
  // of the first record line: one line and one fence either way, on every
  // leaf of an ascending-loaded tree.
  pm::Pool pool(64 << 20);
  BTree tree(&pool);
  constexpr Key kN = 3000;
  for (Key k = 1; k <= kN; ++k) tree.Insert(k, 2 * k + 1);
  const std::uint64_t leaves = pm::CheckTree(&pool, tree.meta()).leaves;
  ASSERT_GT(leaves, 100u);
  for (Key k = 1; k <= kN; ++k) {
    const auto before = pm::Stats();
    ASSERT_TRUE(tree.Remove(k));
    const auto d = pm::Stats() - before;
    ASSERT_EQ(d.flush_lines, 1u) << "key " << k;
    ASSERT_EQ(d.fences, 1u) << "key " << k;
  }
  EXPECT_EQ(tree.CountEntries(), 0u);
  const pm::CheckReport r = pm::CheckTree(&pool, tree.meta());
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.leaves, leaves);  // drained, not unlinked: no reclaim here
}

TEST(BTreeFlushCost, MiddleDeleteKeepsTheShiftsLineCount) {
  // A delete past the first live record shifts the tail left as FAST
  // does, ghosts or not: each line from the victim's through the last
  // record's, flushed and fenced once.
  constexpr int kCap = BTree::kNodeCapacity;
  for (const int ghosts : {0, 3}) {
    pm::Pool pool(16 << 20);
    BTree tree(&pool);
    for (Key k = 1; k <= kCap; ++k) tree.Insert(10 * k, 2 * k + 1);
    for (Key k = 1; k <= Key(ghosts); ++k) ASSERT_TRUE(tree.Remove(10 * k));
    const BTree::NodeT* leaf = RootNode(tree);
    ASSERT_TRUE(leaf->is_leaf());
    for (const int pos : {ghosts + 1, ghosts + 6, kCap - 2}) {
      const Key victim = leaf->records[pos].key;
      const std::uint64_t lines = LinesSpanned(leaf, pos, kCap - 1);
      const auto before = pm::Stats();
      ASSERT_TRUE(tree.Remove(victim));
      const auto d = pm::Stats() - before;
      EXPECT_EQ(d.flush_lines, lines) << ghosts << " ghosts, slot " << pos;
      EXPECT_EQ(d.fences, lines) << ghosts << " ghosts, slot " << pos;
      ASSERT_TRUE(tree.Insert(victim, victim + 1));  // refill: raw-full again
    }
  }
}

TEST(BTreeFlushCost, InsertIntoRawFullLeafWithGhostsCompactsInsteadOfSplit) {
  // A leaf whose raw count is at capacity but which holds ghosts frees a
  // slot with one left shift from its last ghost (each line from that
  // ghost's through the last record's), then inserts as FAST does (each
  // line from the new key's slot through the last record's): no split.
  constexpr int kCap = BTree::kNodeCapacity;
  constexpr int kGhosts = 3;
  pm::Pool pool(16 << 20);
  BTree tree(&pool);
  for (Key k = 1; k <= kCap; ++k) tree.Insert(10 * k, 2 * k + 1);
  for (Key k = 1; k <= kGhosts; ++k) ASSERT_TRUE(tree.Remove(10 * k));
  const BTree::NodeT* leaf = RootNode(tree);
  RealMem m;
  ASSERT_EQ(Ops::CountRaw(m, leaf), kCap);
  ASSERT_EQ(Ops::GhostPrefix(m, leaf, kCap), kGhosts);
  // 105 lands after 40..100 (7 keys), which the compaction moves down to
  // slots kGhosts - 1 on.
  const int slot = kGhosts - 1 + 7;
  const std::uint64_t lines = LinesSpanned(leaf, kGhosts - 1, kCap - 1) +
                              LinesSpanned(leaf, slot, kCap - 1);
  const auto before = pm::Stats();
  ASSERT_TRUE(tree.Insert(105, 211));
  const auto d = pm::Stats() - before;
  EXPECT_EQ(d.flush_lines, lines);
  EXPECT_EQ(d.fences, lines);
  EXPECT_EQ(RootNode(tree), leaf);  // no split grew a root
  EXPECT_EQ(Ops::CountRaw(m, leaf), kCap);
  EXPECT_EQ(Ops::GhostPrefix(m, leaf, kCap), kGhosts - 1);
  EXPECT_EQ(leaf->records[slot].key, 105u);
  EXPECT_EQ(tree.Search(105), 211u);
  EXPECT_EQ(tree.CountEntries(), static_cast<std::size_t>(kCap - kGhosts + 1));
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

// A seeded op stream against std::map that keeps leaves carrying ghost
// prefixes: a sliding key window drained from the front and appended at
// the back, puts just above the smallest key into the leaf whose front is
// ghosts (compactions, then splits), re-puts below the smallest key
// (writes into the last ghost), upserts, deletes and lookups of keys whose
// stale copies sit in ghosts, and deletes at the front, middle and back.
class BTreeGhostModel : public ::testing::TestWithParam<const char*> {};

TEST_P(BTreeGhostModel, RandomOpsMatchStdMap) {
  pm::Pool pool(256 << 20);
  const std::unique_ptr<Index> idx = MakeIndex(GetParam(), &pool);
  ASSERT_NE(idx, nullptr);
  BTree& tree = *idx->core_tree();
  std::map<Key, Value> model;
  std::deque<Key> drained;  // recent front deletes: keys with stale ghosts
  Rng rng(29);
  Key hi = 1'000'000;
  Value next_value = 1;
  const auto value = [&] { return 2 * next_value++ + 1; };  // odd, distinct
  const auto check_tree = [&] {
    const pm::CheckReport r = pm::CheckTree(&pool, tree.meta());
    ASSERT_TRUE(r.ok()) << r.ToString();
    ASSERT_EQ(r.entries, model.size());
  };
  const auto put = [&](Key k, int op) {
    const Value v = value();
    const bool fresh = model.count(k) == 0;
    ASSERT_EQ(tree.Insert(k, v), fresh) << "op " << op << " put " << k;
    model[k] = v;
  };
  const auto remove = [&](Key k, int op) {
    const bool present = model.erase(k) > 0;
    ASSERT_EQ(tree.Remove(k), present) << "op " << op << " remove " << k;
  };
  for (Key k = hi; k < hi + 2000; ++k) put(k, -1);
  hi += 2000;
  constexpr int kOps = 150000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t r = rng.NextBounded(100);
    const Key lo = model.empty() ? hi : model.begin()->first;
    const Key span = hi - lo + 1;
    if (r < 26) {  // append at the back
      hi += 1 + rng.NextBounded(3);
      put(hi, op);
    } else if (r < 36) {  // a middle key, new or upserted
      put(lo + rng.NextBounded(span), op);
    } else if (r < 40) {  // just above the smallest: into a ghosted leaf
      put(lo + 1 + rng.NextBounded(20), op);
    } else if (r < 44) {  // below the smallest key
      if (lo > 1) put(lo - 1 - rng.NextBounded(std::min<Key>(lo - 1, 40)), op);
    } else if (r < 50 && !drained.empty()) {  // upsert a ghost's key
      put(drained[rng.NextBounded(drained.size())], op);
    } else if (r < 74 && !model.empty()) {  // drain the front
      const Key k = model.begin()->first;
      remove(k, op);
      drained.push_back(k);
      if (drained.size() > 256) drained.pop_front();
    } else if (r < 80 && !model.empty()) {  // a middle delete
      remove(lo + rng.NextBounded(span), op);
    } else if (r < 83 && !model.empty()) {  // the back
      remove(model.rbegin()->first, op);
    } else if (r < 88 && !drained.empty()) {  // delete a ghost's key
      remove(drained[rng.NextBounded(drained.size())], op);
    } else {  // look up a live, ghost or absent key
      const Key k = !drained.empty() && r < 94
                        ? drained[rng.NextBounded(drained.size())]
                        : lo + rng.NextBounded(span);
      const auto it = model.find(k);
      ASSERT_EQ(tree.Search(k), it == model.end() ? kNoValue : it->second)
          << "op " << op << " search " << k;
    }
    if (op % 25000 == 0) check_tree();
  }
  check_tree();
  ASSERT_EQ(tree.CountEntries(), model.size());
  std::vector<Record> out(model.size() + 1);
  ASSERT_EQ(tree.Scan(0, out.size(), out.data()), model.size());
  auto it = model.begin();
  for (std::size_t i = 0; i < model.size(); ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first) << "scan " << i;
    ASSERT_EQ(out[i].ptr, it->second) << "scan " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BTreeGhostModel,
                         ::testing::Values("fastfair", "fastfair-reclaim"),
                         [](const auto& info) {
                           return std::string(info.param) == "fastfair"
                                      ? std::string("fastfair")
                                      : std::string("fastfair_reclaim");
                         });

TEST(BTreeOldFormat, LeafWithoutItsAddressReadsRepairsAndWrites) {
  // A leaf written before leaves carried their own address: leftmost 0, so
  // slot 0 has no left neighbour, a crash can leave the slot-0 hole, and
  // every delete shifts.
  constexpr int kCap = BTree::kNodeCapacity;
  pm::Pool pool(16 << 20);
  BTree tree(&pool);
  for (Key k = 1; k <= 20; ++k) tree.Insert(10 * k, 2 * k + 1);
  BTree::NodeT* leaf = RootNode(tree);
  leaf->hdr.leftmost = 0;
  leaf->records[0].ptr = 0;  // a crashed slot-0 delete: the hole
  RealMem m;
  EXPECT_EQ(tree.Search(10), kNoValue);
  for (Key k = 2; k <= 20; ++k) EXPECT_EQ(tree.Search(10 * k), 2 * k + 1);
  EXPECT_EQ(tree.CountEntries(), 19u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
  // The first write repairs the hole (one shift), then inserts at slot 0.
  ASSERT_TRUE(tree.Insert(5, 11));
  EXPECT_EQ(leaf->hdr.leftmost, 0u);
  EXPECT_EQ(leaf->records[0].key, 5u);
  EXPECT_EQ(Ops::CountRaw(m, leaf), 20);
  // A front delete shifts: no ghost, every line of the shift.
  const std::uint64_t lines = LinesSpanned(leaf, 0, 19);
  const auto before = pm::Stats();
  ASSERT_TRUE(tree.Remove(5));
  const auto d = pm::Stats() - before;
  EXPECT_EQ(d.flush_lines, lines);
  EXPECT_EQ(Ops::GhostPrefix(m, leaf, Ops::CountRaw(m, leaf)), 0);
  EXPECT_EQ(Ops::CountRaw(m, leaf), 19);
  // Fill to a split: the sibling is a fresh leaf in the new format.
  for (Key k = 21; k <= Key(kCap) + 5; ++k) tree.Insert(10 * k, 2 * k + 1);
  EXPECT_EQ(tree.Height(), 2);
  const auto* sib = reinterpret_cast<const BTree::NodeT*>(leaf->hdr.sibling);
  ASSERT_NE(sib, nullptr);
  EXPECT_EQ(sib->hdr.leftmost, reinterpret_cast<std::uint64_t>(sib));
  EXPECT_EQ(leaf->hdr.leftmost, 0u);
  for (Key k = 2; k <= Key(kCap) + 5; ++k) {
    EXPECT_EQ(tree.Search(10 * k), 2 * k + 1) << 10 * k;
  }
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

}  // namespace
}  // namespace fastfair::core
