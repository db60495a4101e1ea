// Tests for lazy empty-leaf reclamation (paper §4.2's merge path): emptied
// leaves are marked dead, unlinked from the sibling chain by the next
// writer arriving from the left, and their parent separators are repaired
// lazily when a writer trips over them.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/btree.h"
#include "pm/check.h"

namespace fastfair::core {
namespace {

Options ReclaimOpts() {
  Options o;
  o.reclaim_empty_leaves = true;
  return o;
}

TEST(BTreeMerge, DrainedRegionShrinksLeafChain) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool, ReclaimOpts());
  for (Key k = 1; k <= 20000; ++k) tree.Insert(k, 2 * k + 1);
  const pm::CheckReport before = pm::CheckTree(&pool, tree.meta());
  // Drain the middle half entirely.
  for (Key k = 5000; k <= 15000; ++k) tree.Remove(k);
  // Writer traffic from the left of each emptied leaf triggers unlinking;
  // spray upserts over the surviving ranges.
  for (int round = 0; round < 3; ++round) {
    for (Key k = 1; k <= 20000; k += 7) {
      if (k < 5000 || k > 15000) tree.Insert(k, 2 * k + 1);
    }
  }
  const pm::CheckReport after = pm::CheckTree(&pool, tree.meta());
  EXPECT_LT(after.leaves, before.leaves) << "empty leaves were never reclaimed";
  // Correctness unaffected.
  for (Key k = 1; k <= 20000; ++k) {
    const Value expect = (k < 5000 || k > 15000) ? 2 * k + 1 : kNoValue;
    ASSERT_EQ(tree.Search(k), expect) << k;
  }
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeMerge, InsertIntoDeadRangeLandsCorrectly) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool, ReclaimOpts());
  for (Key k = 1; k <= 5000; ++k) tree.Insert(k, 2 * k + 1);
  // Empty a band, then force its leaves to be unlinked via left-neighbour
  // writer traffic.
  for (Key k = 2000; k <= 3000; ++k) tree.Remove(k);
  for (int round = 0; round < 5; ++round) {
    for (Key k = 1; k <= 5000; k += 13) {
      if (k < 2000 || k > 3000) tree.Insert(k, 2 * k + 1);
    }
  }
  // Now insert back into the drained range: traversals that hit a dead
  // node must repair the parent separator and retry, not spin or lose keys.
  for (Key k = 2000; k <= 3000; ++k) tree.Insert(k, 2 * k + 2);
  for (Key k = 2000; k <= 3000; ++k) ASSERT_EQ(tree.Search(k), 2 * k + 2);
  for (Key k = 1; k < 2000; ++k) ASSERT_EQ(tree.Search(k), 2 * k + 1);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeMerge, ScansCrossDeadRegionsSeamlessly) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool, ReclaimOpts());
  for (Key k = 1; k <= 10000; ++k) tree.Insert(k, 2 * k + 1);
  for (Key k = 3000; k <= 7000; ++k) tree.Remove(k);
  for (int round = 0; round < 3; ++round) {
    for (Key k = 1; k < 3000; k += 11) tree.Insert(k, 2 * k + 1);
  }
  std::vector<Record> out(5000);
  const std::size_t n = tree.Scan(2500, out.size(), out.data());
  // Expect 2500..2999 then 7001..10000.
  ASSERT_EQ(n, 500u + 3000u);
  EXPECT_EQ(out[499].key, 2999u);
  EXPECT_EQ(out[500].key, 7001u);
  for (std::size_t i = 1; i < n; ++i) ASSERT_GT(out[i].key, out[i - 1].key);
}

TEST(BTreeMerge, RepeatedDrainAndRefillIsStable) {
  pm::Pool pool(512 << 20);
  BTree tree(&pool, ReclaimOpts());
  std::map<Key, Value> model;
  Rng rng(99);
  for (int cycle = 0; cycle < 6; ++cycle) {
    // Fill a random band, then drain a random band.
    const Key base = rng.NextBounded(50000) + 1;
    for (Key k = base; k < base + 8000; ++k) {
      const Value v = 2 * k + 1 + static_cast<Value>(cycle % 2);
      tree.Insert(k, v);
      model[k] = v;
    }
    const Key dbase = rng.NextBounded(50000) + 1;
    for (Key k = dbase; k < dbase + 8000; ++k) {
      model.erase(k);
      tree.Remove(k);
    }
  }
  ASSERT_EQ(tree.CountEntries(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(tree.Search(k), v);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

// With reclamation left at its default (off), concurrent drain/refill must
// be fully correct: empty leaves are tolerated, never unlinked.
TEST(BTreeMerge, ConcurrentDrainersAndFillers) {
  pm::Pool pool(1u << 30);
  BTree tree(&pool);
  constexpr int kThreads = 6;
  constexpr Key kBand = 6000;
  // Preload every thread's band.
  for (int t = 0; t < kThreads; ++t) {
    for (Key k = 1; k <= kBand; ++k) {
      const Key key = (static_cast<Key>(t) << 33) | k;
      tree.Insert(key, 2 * key + 1);
    }
  }
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread repeatedly drains and refills its own band while
      // probing: forces constant empty-leaf creation and reclamation under
      // concurrency.
      for (int cycle = 0; cycle < 4; ++cycle) {
        for (Key k = 1; k <= kBand; ++k) {
          tree.Remove((static_cast<Key>(t) << 33) | k);
        }
        for (Key k = 1; k <= kBand; ++k) {
          const Key key = (static_cast<Key>(t) << 33) | k;
          tree.Insert(key, 2 * key + 1);
          if ((k & 63) == 0 && tree.Search(key) != 2 * key + 1) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(tree.CountEntries(),
            static_cast<std::size_t>(kThreads) * kBand);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BTreeMerge, StatsReportShrinkingStructure) {
  pm::Pool pool(256 << 20);
  BTree tree(&pool);
  for (Key k = 1; k <= 30000; ++k) tree.Insert(k, 2 * k + 1);
  const pm::CheckReport full = pm::CheckTree(&pool, tree.meta());
  ASSERT_TRUE(full.ok()) << full.ToString();
  EXPECT_EQ(full.entries, 30000u);
  EXPECT_GE(full.levels, 3u);
  EXPECT_EQ(full.levels, static_cast<std::uint64_t>(tree.Height()));
  const double leaf_fill =
      static_cast<double>(full.entries) /
      (static_cast<double>(full.leaves) * BTree::kNodeCapacity);
  EXPECT_GT(leaf_fill, 0.4);
  EXPECT_LE(leaf_fill, 1.0);
  // Top level is a single root: it has no right sibling.
  const auto* root = reinterpret_cast<const BTree::NodeT*>(
      std::atomic_ref<std::uint64_t>(tree.meta()->root).load());
  EXPECT_EQ(root->hdr.sibling, 0u);
  // The levels above the leaves hold fewer nodes than the leaf level.
  EXPECT_LT(full.nodes - full.leaves, full.leaves);
}

}  // namespace
}  // namespace fastfair::core
