// Tests for the WORT baseline: path compression (short and chained
// prefixes), failure-atomic commit flush counts, sorted DFS scans, and
// model equivalence across key distributions.

#include <gtest/gtest.h>

#include <map>

#include "baselines/wort/wort.h"
#include "common/rng.h"

namespace fastfair::baselines {
namespace {

TEST(Wort, EmptyTree) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  EXPECT_EQ(t.Search(1), kNoValue);
  EXPECT_FALSE(t.Remove(1));
  EXPECT_EQ(t.CountEntries(), 0u);
}

TEST(Wort, SingleAndPairKeys) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  t.Insert(42, 420);
  EXPECT_EQ(t.Search(42), 420u);
  t.Insert(43, 430);  // diverges in the last nibble
  EXPECT_EQ(t.Search(42), 420u);
  EXPECT_EQ(t.Search(43), 430u);
  EXPECT_EQ(t.Search(44), kNoValue);
}

TEST(Wort, UpsertInPlace) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  t.Insert(7, 70);
  t.Insert(7, 71);
  EXPECT_EQ(t.Search(7), 71u);
  EXPECT_EQ(t.CountEntries(), 1u);
}

TEST(Wort, LongSharedPrefixChains) {
  // Keys differing only in the final nibble share 15 nibbles: forces the
  // chained compressed-prefix path (> kMaxPrefix).
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  const Key base = 0x0123456789abcdef0ull & ~0xfull;
  for (Key i = 0; i < 16; ++i) t.Insert(base | i, i + 100);
  for (Key i = 0; i < 16; ++i) ASSERT_EQ(t.Search(base | i), i + 100);
  EXPECT_EQ(t.CountEntries(), 16u);
}

TEST(Wort, PrefixMismatchSplitsCompressedPath) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  // Two keys sharing a long prefix create a compressed node; a third key
  // diverging inside that prefix forces the copy-and-reparent path.
  t.Insert(0xaaaa00000000000full, 1);
  t.Insert(0xaaaa000000000001ull, 2);
  t.Insert(0xaabb000000000001ull, 3);  // mismatch at nibble 2
  EXPECT_EQ(t.Search(0xaaaa00000000000full), 1u);
  EXPECT_EQ(t.Search(0xaaaa000000000001ull), 2u);
  EXPECT_EQ(t.Search(0xaabb000000000001ull), 3u);
  EXPECT_EQ(t.Search(0xaacc000000000001ull), kNoValue);
}

TEST(Wort, RemoveUnlinksLeafOnly) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  for (Key k = 1; k <= 50; ++k) t.Insert(k, k + 1);
  EXPECT_TRUE(t.Remove(25));
  EXPECT_EQ(t.Search(25), kNoValue);
  EXPECT_FALSE(t.Remove(25));
  for (Key k = 1; k <= 50; ++k) {
    if (k != 25) {
      ASSERT_EQ(t.Search(k), k + 1);
    }
  }
}

TEST(Wort, ModelEquivalenceUniformKeys) {
  pm::Pool pool(512 << 20);
  Wort t(&pool);
  std::map<Key, Value> model;
  Rng rng(29);
  for (int i = 0; i < 50000; ++i) {
    const Key k = rng.Next() | 1;
    if (rng.NextBounded(5) == 0 && !model.empty()) {
      // delete a previously inserted key
      auto it = model.lower_bound(rng.Next());
      if (it == model.end()) it = model.begin();
      const Key victim = it->first;
      model.erase(it);
      ASSERT_TRUE(t.Remove(victim));
    } else {
      t.Insert(k, k ^ 0xf0f0);
      model[k] = k ^ 0xf0f0;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(t.Search(k), v);
  ASSERT_EQ(t.CountEntries(), model.size());
}

TEST(Wort, ModelEquivalenceDenseKeys) {
  // Dense small keys exercise deep shared prefixes aggressively.
  pm::Pool pool(256 << 20);
  Wort t(&pool);
  std::map<Key, Value> model;
  Rng rng(37);
  for (int i = 0; i < 40000; ++i) {
    const Key k = rng.NextBounded(20000) + 1;
    if (rng.NextBounded(4) == 0) {
      const bool in_model = model.erase(k) > 0;
      ASSERT_EQ(t.Remove(k), in_model);
    } else {
      t.Insert(k, k + 13);
      model[k] = k + 13;
    }
  }
  for (const auto& [k, v] : model) ASSERT_EQ(t.Search(k), v);
}

TEST(Wort, ScanYieldsSortedOrder) {
  pm::Pool pool(256 << 20);
  Wort t(&pool);
  Rng rng(41);
  std::map<Key, Value> model;
  for (int i = 0; i < 10000; ++i) {
    const Key k = rng.Next() | 1;
    t.Insert(k, k + 3);
    model[k] = k + 3;
  }
  std::vector<core::Record> out(300);
  const Key start = model.begin()->first;
  const std::size_t n = t.Scan(start, out.size(), out.data());
  ASSERT_EQ(n, 300u);
  auto it = model.begin();
  for (std::size_t i = 0; i < n; ++i, ++it) {
    ASSERT_EQ(out[i].key, it->first);
    ASSERT_EQ(out[i].ptr, it->second);
  }
}

TEST(Wort, ScanFromMiddlePrunesCorrectly) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  for (Key k = 1; k <= 1000; ++k) t.Insert(k, k + 1);
  std::vector<core::Record> out(100);
  const std::size_t n = t.Scan(500, out.size(), out.data());
  ASSERT_EQ(n, 100u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i].key, 500 + i);
}

TEST(Wort, CommonInsertIsTwoFlushes) {
  // WORT's headline property: an insert into an existing node's empty slot
  // persists the leaf record and one 8-byte pointer — two flush points.
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  t.Insert(0x10, 1);
  t.Insert(0x20, 2);  // same parent node, different nibble
  pm::ResetStats();
  const auto before = pm::Stats();
  t.Insert(0x30, 3);  // empty child slot in the existing node
  const auto delta = pm::Stats() - before;
  // Leaf record + committing pointer, plus one allocator-metadata line.
  EXPECT_LE(delta.flush_lines, 3u);
}

TEST(Wort, ZeroAndMaxKeys) {
  pm::Pool pool(64 << 20);
  Wort t(&pool);
  t.Insert(0, 10);
  t.Insert(~std::uint64_t{0}, 20);
  EXPECT_EQ(t.Search(0), 10u);
  EXPECT_EQ(t.Search(~std::uint64_t{0}), 20u);
}

}  // namespace
}  // namespace fastfair::baselines
