// Tests for the hash-sharded index tier (index/hash_sharded.h): routing
// balance under clustered keys, the streaming k-way merge Scan (ordering
// and completeness, including under interleaved inserts/deletes; batched
// scans paying exactly the scalar merge's reads), the ScanIterator API
// (merge iterator and the default batched adapter), point and batch write
// visibility (scalar and concurrent), and the "hashed-<kind>[:N]"
// registry grammar.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "index/hash_sharded.h"
#include "index/index.h"
#include "index/sharded.h"
#include "pm/persist.h"
#include "pm/pool.h"

namespace fastfair {
namespace {

std::unique_ptr<HashShardedIndex> MakeHashed(pm::Pool* pool,
                                             std::size_t shards) {
  return std::make_unique<HashShardedIndex>(
      "hashed-fastfair", shards,
      [pool](std::size_t) { return MakeIndex("fastfair", pool); });
}

TEST(HashShardedIndex, ClusteredKeysSpreadAcrossShards) {
  // The raison d'être: keys packed into a tiny prefix of the key space —
  // which the range partition would dump entirely into shard 0 — spread
  // near-evenly under fibonacci-hash routing.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 8);
  std::vector<std::size_t> per_shard(8, 0);
  for (Key k = 1; k <= 8000; ++k) {
    const std::size_t s = idx->ShardOf(k);
    ASSERT_LT(s, 8u);
    per_shard[s] += 1;
    idx->Insert(k, k + 1);
  }
  EXPECT_LE(ImbalanceRatio(per_shard), 1.5)
      << "dense sequential keys must spread under hashing";
  const auto counts = idx->ShardEntryCounts();
  EXPECT_EQ(per_shard, counts) << "routing and storage must agree";
  EXPECT_EQ(idx->CountEntries(), 8000u);
}

TEST(HashShardedIndex, ScanMergesShardsIntoGlobalOrder) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 5);
  std::map<Key, Value> model;
  Rng rng(91);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.Next() | 1;
    idx->Insert(k, k ^ 0x1234);
    model[k] = k ^ 0x1234;
  }
  std::vector<core::Record> out(509);
  for (int q = 0; q < 20; ++q) {
    const Key start = rng.Next();
    const std::size_t n = idx->Scan(start, out.size(), out.data());
    auto it = model.lower_bound(start);
    const std::size_t expect = std::min<std::size_t>(
        out.size(), static_cast<std::size_t>(std::distance(it, model.end())));
    ASSERT_EQ(n, expect) << "scan from " << start;
    for (std::size_t i = 0; i < n; ++i, ++it) {
      ASSERT_EQ(out[i].key, it->first) << "position " << i;
      ASSERT_EQ(out[i].ptr, it->second);
      if (i > 0) {
        ASSERT_LT(out[i - 1].key, out[i].key) << "must be sorted";
      }
    }
  }
}

TEST(HashShardedIndex, ScanStaysCompleteUnderInterleavedInsertsAndDeletes) {
  // The merge must not lose or duplicate surviving keys when the entry set
  // churns between scans: keys deleted from one shard must vanish from the
  // merged stream, keys inserted must appear, everything else persists.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  std::map<Key, Value> model;
  Rng rng(93);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 600; ++i) {
      const Key k = rng.NextBounded(10000) + 1;
      if (rng.NextBounded(3) == 0) {
        const bool in_model = model.erase(k) > 0;
        ASSERT_EQ(idx->Remove(k), in_model);
      } else {
        const Value v = (k << 20) + static_cast<Value>(round) + 1;
        idx->Insert(k, v);
        model[k] = v;
      }
    }
    // Full-stream check through the iterator API every few rounds.
    if (round % 5 != 4) continue;
    auto it = idx->NewScanIterator(0);
    core::Record rec;
    auto mit = model.begin();
    std::size_t n = 0;
    while (it->Next(&rec)) {
      ASSERT_NE(mit, model.end());
      ASSERT_EQ(rec.key, mit->first) << "round " << round << " pos " << n;
      ASSERT_EQ(rec.ptr, mit->second);
      ++mit;
      ++n;
    }
    ASSERT_EQ(mit, model.end()) << "merge lost trailing keys";
    ASSERT_EQ(n, model.size());
  }
}

TEST(HashShardedIndex, ScanBatchPaysExactlyTheScalarMergesReads) {
  // One merge serves every hashed scan: ScanBatch is the default Scan
  // loop, and each Scan runs every shard's first batch as one cross-tree
  // ScanBatch sized from the cap (DESIGN.md §4.2). So a batch of scans
  // returns the same records and pays exactly the read stalls and leaf
  // visits of the same scans one by one, and both stay near the ~3
  // stalls per Scan(100) the grouped first fill costs, far from a merge
  // that pays one stall per shard. Bounds carry ~10 % margin over the
  // counts measured on this data.
  struct Case {
    const char* kind;
    double max_stalls;  // per scan
    double max_visits;  // leaf visits (read annotations) per scan
  };
  for (const Case& c : {Case{"hashed-fastfair:4", 3.3, 16.0},
                        Case{"hashed-fastfair:8", 3.3, 20.5},
                        Case{"hashed-fastfair:16", 4.6, 32.5}}) {
    SCOPED_TRACE(c.kind);
    pm::Pool pool(std::size_t{1} << 30);
    auto idx = MakeIndex(c.kind, &pool);
    const std::vector<Key> keys = bench::UniformKeys(200000, 5);
    for (const Key k : keys) idx->Insert(k, k + 7);
    const std::set<Key> model(keys.begin(), keys.end());

    constexpr std::size_t kScans = 512;
    constexpr std::size_t kCap = 100;
    constexpr std::size_t kBatch = 64;
    std::vector<core::Record> scalar(kScans * kCap);
    std::vector<core::Record> batched(kScans * kCap);
    std::vector<std::size_t> scalar_n(kScans);
    std::vector<std::size_t> batched_n(kScans);
    std::vector<ScanOp> ops(kScans);
    Rng rng(7);
    for (std::size_t i = 0; i < kScans; ++i) {
      ops[i] = {rng.Next(), kCap, batched.data() + i * kCap};
    }

    auto before = pm::Stats();
    for (std::size_t i = 0; i < kScans; ++i) {
      scalar_n[i] = idx->Scan(ops[i].min_key, kCap, scalar.data() + i * kCap);
    }
    const auto scan = pm::Stats() - before;
    before = pm::Stats();
    for (std::size_t i = 0; i < kScans; i += kBatch) {
      idx->ScanBatch(ops.data() + i, kBatch, batched_n.data() + i);
    }
    const auto batch = pm::Stats() - before;

    for (std::size_t i = 0; i < kScans; ++i) {
      auto it = model.lower_bound(ops[i].min_key);
      ASSERT_EQ(batched_n[i], scalar_n[i]) << "scan " << i;
      for (std::size_t j = 0; j < scalar_n[i]; ++j, ++it) {
        ASSERT_NE(it, model.end()) << "scan " << i << " pos " << j;
        const core::Record& s = scalar[i * kCap + j];
        ASSERT_EQ(s.key, *it) << "scan " << i << " pos " << j;
        ASSERT_EQ(s.ptr, *it + 7);
        ASSERT_EQ(batched[i * kCap + j].key, s.key);
        ASSERT_EQ(batched[i * kCap + j].ptr, s.ptr);
      }
      if (scalar_n[i] < kCap) {
        ASSERT_EQ(it, model.end()) << "scan " << i;
      }
    }
    EXPECT_EQ(batch.read_stalls, scan.read_stalls);
    EXPECT_EQ(batch.read_annotations, scan.read_annotations);
    const double stalls = static_cast<double>(scan.read_stalls) / kScans;
    const double visits = static_cast<double>(scan.read_annotations) / kScans;
    EXPECT_LE(stalls, c.max_stalls);
    EXPECT_LE(visits, c.max_visits);
    std::printf("%s Scan(100): %.3f stalls, %.2f leaf visits per scan\n",
                c.kind, stalls, visits);
  }
}

TEST(ScanIteratorApi, DefaultBatchedIteratorMatchesScanOnEveryKind) {
  // The base-class iterator adapts the virtual Scan, so every registered
  // kind — plain, range-sharded, hash-sharded — must stream the same
  // entries Scan returns, across refill boundaries (batches start at 16
  // and double to 256, so 3000 keys cross several).
  pm::Pool pool(std::size_t{1} << 30);
  for (const char* kind : {"fastfair", "wbtree", "skiplist",
                           "sharded-fastfair:3", "hashed-fastfair:3"}) {
    auto idx = MakeIndex(kind, &pool);
    Rng rng(95);
    std::set<Key> keys;
    for (int i = 0; i < 3000; ++i) keys.insert(rng.Next() | 1);
    for (const Key k : keys) idx->Insert(k, k + 3);
    const Key start = *std::next(keys.begin(), 100);
    auto it = idx->NewScanIterator(start);
    core::Record rec;
    auto kit = keys.lower_bound(start);
    std::size_t n = 0;
    while (it->Next(&rec)) {
      ASSERT_NE(kit, keys.end()) << kind;
      ASSERT_EQ(rec.key, *kit) << kind << " pos " << n;
      ASSERT_EQ(rec.ptr, *kit + 3) << kind;
      ++kit;
      ++n;
    }
    EXPECT_EQ(kit, keys.end()) << kind << " iterator ended early";
    // Exhausted iterators stay exhausted.
    EXPECT_FALSE(it->Next(&rec)) << kind;
  }
}

TEST(HashShardedIndex, ConcurrentInsertAndSearch) {
  pm::Pool pool(std::size_t{2} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  ASSERT_TRUE(idx->supports_concurrency());
  constexpr int kWriters = 4, kPerWriter = 15000;
  // Sequential per-writer key blocks: maximally clustered, so balance and
  // correctness both rest on the hash routing.
  auto key_of = [](int w, int i) {
    return static_cast<Key>(w) * kPerWriter + static_cast<Key>(i) + 1;
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const Key k = key_of(w, i);
        idx->Insert(k, 2 * k + 1);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::thread reader([&] {
    Rng rng(7);
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = key_of(static_cast<int>(rng.NextBounded(kWriters)),
                           static_cast<int>(rng.NextBounded(kPerWriter)));
      const Value v = idx->Search(k);
      if (v != kNoValue) {
        ASSERT_EQ(v, 2 * k + 1);
        ++local;
      }
    }
    hits.fetch_add(local);
  });
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(idx->CountEntries(),
            static_cast<std::size_t>(kWriters) * kPerWriter);
}

TEST(HashShardedIndex, UpsertThenRemoveVisibleToSearchAndBatch) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  const std::vector<Key> keys{10, 11, 999};  // 11 and 999 never inserted
  std::vector<Value> out(keys.size());
  auto expect_batch = [&](Value want10) {
    idx->SearchBatch(keys.data(), keys.size(), out.data());
    EXPECT_EQ(out[0], want10);
    EXPECT_EQ(out[1], kNoValue);
    EXPECT_EQ(out[2], kNoValue);
  };
  idx->Insert(10, 101);
  ASSERT_EQ(idx->Search(10), 101u);
  expect_batch(101);
  idx->Insert(10, 102);  // upsert
  EXPECT_EQ(idx->Search(10), 102u);
  expect_batch(102);
  ASSERT_TRUE(idx->Remove(10));
  EXPECT_EQ(idx->Search(10), kNoValue);
  expect_batch(kNoValue);
  EXPECT_FALSE(idx->Remove(10));
}

TEST(HashShardedIndex, BatchUpsertVisibleToSearchBatch) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  std::vector<core::Record> ops;
  for (Key k = 1; k <= 300; ++k) ops.push_back({k, k + 1});
  idx->InsertBatch(ops.data(), ops.size());

  std::vector<Key> keys;
  for (Key k = 1; k <= 400; ++k) keys.push_back(k);  // 301..400 absent
  std::vector<Value> out(keys.size());
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_EQ(out[k - 1], k <= 300 ? k + 1 : kNoValue) << "key " << k;
  }

  for (auto& op : ops) op.ptr += 1000;
  idx->InsertBatch(ops.data(), ops.size());
  idx->SearchBatch(keys.data(), keys.size(), out.data());
  for (Key k = 1; k <= 400; ++k) {
    ASSERT_EQ(out[k - 1], k <= 300 ? k + 1001 : kNoValue)
        << "stale value after batch upsert, key " << k;
  }
}

TEST(HashShardedIndex, ConcurrentUpsertsStayCoherent) {
  // A writer upserts while readers assert every result is a value the key
  // actually held at some point: never a miss for an always-present key,
  // never another key's value. Once the writer quiesces, every key reads
  // back its last write exactly.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeHashed(&pool, 4);
  constexpr Key kKeys = 64;
  for (Key k = 1; k <= kKeys; ++k) idx->Insert(k, k * 1000000);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(40 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.NextBounded(kKeys) + 1;
        const Value v = idx->Search(k);
        // Every value ever written to k is k*1000000 + i for some i.
        if (v == kNoValue || v / 1000000 != k) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Rng rng(41);
  std::vector<Value> final_val(kKeys + 1, 0);
  for (Key k = 1; k <= kKeys; ++k) final_val[k] = k * 1000000;
  for (int i = 1; i <= 20000; ++i) {
    const Key k = rng.NextBounded(kKeys) + 1;
    final_val[k] = k * 1000000 + static_cast<Value>(i);
    idx->Insert(k, final_val[k]);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0);
  for (Key k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(idx->Search(k), final_val[k]) << "post-quiescence key " << k;
  }
}

TEST(HashShardedIndex, FactoryParsesHashedGrammar) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeIndex("hashed-fastfair:16", &pool);
  EXPECT_EQ(idx->name(), "hashed-fastfair:16");
  idx->Insert(7, 8);
  EXPECT_EQ(idx->Search(7), 8u);
  auto* hashed = dynamic_cast<HashShardedIndex*>(idx.get());
  ASSERT_NE(hashed, nullptr);
  EXPECT_EQ(hashed->num_shards(), 16u);
  // Default shard count, any inner kind, concurrency conjunction.
  EXPECT_EQ(dynamic_cast<HashShardedIndex*>(
                MakeIndex("hashed-fptree", &pool).get())
                ->num_shards(),
            8u);
  EXPECT_TRUE(MakeIndex("hashed-skiplist:2", &pool)->supports_concurrency());
  EXPECT_FALSE(MakeIndex("hashed-wbtree:2", &pool)->supports_concurrency());
  // Malformed counts and inner kinds.
  EXPECT_THROW(MakeIndex("hashed-fastfair:0", &pool), std::invalid_argument);
  EXPECT_THROW(MakeIndex("hashed-fastfair:x", &pool), std::invalid_argument);
  EXPECT_THROW(MakeIndex("hashed-fastfair:", &pool), std::invalid_argument);
  EXPECT_THROW(MakeIndex("hashed-", &pool), std::invalid_argument);
  EXPECT_THROW(MakeIndex("hashed-btrfs:2", &pool), std::invalid_argument);
  // Nested sharding adapters are rejected in both directions.
  EXPECT_THROW(MakeIndex("hashed-hashed-fastfair:2", &pool),
               std::invalid_argument);
  EXPECT_THROW(MakeIndex("hashed-sharded-fastfair:2", &pool),
               std::invalid_argument);
  EXPECT_THROW(MakeIndex("sharded-hashed-fastfair:2", &pool),
               std::invalid_argument);
}

TEST(HashShardedIndex, RegisteredInAllIndexKinds) {
  const auto kinds = AllIndexKinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "hashed-fastfair"),
            kinds.end());
}

}  // namespace
}  // namespace fastfair
