// Functional tests for the FAST+FAIR B+-tree: model-based random-operation
// equivalence against std::map across node sizes and option combinations,
// plus targeted edge cases (splits, root growth, scans, upserts).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/btree.h"

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

}  // namespace
}  // namespace fastfair::core
