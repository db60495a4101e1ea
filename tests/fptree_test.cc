// Tests for the FP-tree baseline: fingerprint probing, bitmap publication,
// inner-rebuild recovery, concurrency, and model equivalence.

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "baselines/fptree/fptree.h"
#include "common/rng.h"

namespace fastfair::baselines {
namespace {

TEST(FPTree, EmptyTree) {
  pm::Pool pool(64 << 20);
  FPTree t(&pool);
  EXPECT_EQ(t.Search(1), kNoValue);
  EXPECT_FALSE(t.Remove(1));
  EXPECT_EQ(t.CountEntries(), 0u);
}

TEST(FPTree, InsertSearchRemove) {
  pm::Pool pool(64 << 20);
  FPTree t(&pool);
  for (Key k = 1; k <= 100; ++k) t.Insert(k, k * 3 + 1);
  for (Key k = 1; k <= 100; ++k) ASSERT_EQ(t.Search(k), k * 3 + 1);
  EXPECT_TRUE(t.Remove(50));
  EXPECT_EQ(t.Search(50), kNoValue);
  EXPECT_FALSE(t.Remove(50));
  EXPECT_EQ(t.CountEntries(), 99u);
}

TEST(FPTree, UpsertInPlace) {
  pm::Pool pool(64 << 20);
  FPTree t(&pool);
  t.Insert(9, 90);
  t.Insert(9, 91);
  EXPECT_EQ(t.Search(9), 91u);
  EXPECT_EQ(t.CountEntries(), 1u);
}

TEST(FPTree, FingerprintCollisionsStillResolve) {
  // Keys engineered to collide in the 1-byte fingerprint must still be
  // disambiguated by the full-key check.
  pm::Pool pool(64 << 20);
  FPTree t(&pool);
  // Brute-force a few fingerprint collisions among small keys.
  std::vector<Key> keys = {1};
  const auto fp = [](Key k) {
    return static_cast<std::uint8_t>((k * 0x9e3779b97f4a7c15ull) >> 56);
  };
  for (Key k = 2; keys.size() < 6 && k < 2000000; ++k) {
    if (fp(k) == fp(1)) keys.push_back(k);
  }
  ASSERT_GE(keys.size(), 3u);
  for (const Key k : keys) t.Insert(k, k + 1);
  for (const Key k : keys) ASSERT_EQ(t.Search(k), k + 1);
  ASSERT_TRUE(t.Remove(keys[1]));
  EXPECT_EQ(t.Search(keys[1]), kNoValue);
  for (const Key k : keys) {
    if (k != keys[1]) {
      ASSERT_EQ(t.Search(k), k + 1);
    }
  }
}

TEST(FPTree, ModelEquivalence) {
  pm::Pool pool(512 << 20);
  FPTree t(&pool);
  std::map<Key, Value> model;
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    const Key k = rng.NextBounded(25000) + 1;
    if (rng.NextBounded(5) == 0) {
      const bool in_model = model.erase(k) > 0;
      ASSERT_EQ(t.Remove(k), in_model);
    } else {
      const Value v = k * 9 + 1;
      t.Insert(k, v);
      model[k] = v;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(t.Search(k), v);
  ASSERT_EQ(t.CountEntries(), model.size());
}

TEST(FPTree, ScanSortsUnsortedLeaves) {
  pm::Pool pool(256 << 20);
  FPTree t(&pool);
  Rng rng(31);
  std::map<Key, Value> model;
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.Next() | 1;
    t.Insert(k, k + 4);
    model[k] = k + 4;
  }
  std::vector<core::Record> out(1000);
  const std::size_t n = t.Scan(1, out.size(), out.data());
  ASSERT_EQ(n, 1000u);
  auto it = model.begin();
  for (std::size_t i = 0; i < n; ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first) << i;
  }
}

TEST(FPTree, RebuildInnerRecoversSearchability) {
  pm::Pool pool(256 << 20);
  FPTree t(&pool);
  Rng rng(35);
  std::vector<Key> keys;
  for (int i = 0; i < 30000; ++i) {
    const Key k = rng.Next() | 1;
    t.Insert(k, k + 6);
    keys.push_back(k);
  }
  t.RebuildInner();  // simulates the post-crash inner reconstruction
  for (const Key k : keys) ASSERT_EQ(t.Search(k), k + 6);
  // Still writable afterwards.
  t.Insert(2, 22);
  EXPECT_EQ(t.Search(2), 22u);
}

TEST(FPTree, LeafInsertIsCheapInFlushes) {
  // Non-split FP-tree insert: entry + fingerprint + bitmap ~ 3 flushes,
  // fewer than wB+-tree's >= 4 (paper: 4.8 vs 4.2 including splits).
  pm::Pool pool(64 << 20);
  FPTree t(&pool);
  t.Insert(500, 1);
  pm::ResetStats();
  const auto before = pm::Stats();
  t.Insert(100, 2);
  const auto delta = pm::Stats() - before;
  EXPECT_LE(delta.flush_lines, 3u);
  EXPECT_GE(delta.flush_lines, 2u);
}

TEST(FPTree, ConcurrentInsertsAndSearches) {
  pm::Pool pool(1u << 30);
  FPTree t(&pool);
  constexpr int kThreads = 6, kPerThread = 10000;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Rng rng(60 + tid);
      for (int i = 0; i < kPerThread; ++i) {
        const Key k = (static_cast<Key>(tid) << 40) | static_cast<Key>(i + 1);
        t.Insert(k, k + 1);
        if ((i & 15) == 0) {
          const Key probe = (static_cast<Key>(tid) << 40) |
                            (rng.NextBounded(static_cast<Key>(i) + 1) + 1);
          if (t.Search(probe) != probe + 1) failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(t.CountEntries(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace fastfair::baselines
