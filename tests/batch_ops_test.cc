// Batched operation pipeline (DESIGN.md §8): Search/Insert/Remove/Scan
// batches and class-ordered PointBatch calls on the core tree and through
// the index registry — scalar and class-call equivalence, degenerate
// batches (empty, duplicate, unsorted), shard-boundary spanning and
// mixed-height batches on both sharded adapters, grouped read-stall
// accounting (within one tree, across shard trees, across op classes),
// and batches racing concurrent splits, unlinks and Rebalance.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "core/btree.h"
#include "index/hash_sharded.h"
#include "index/index.h"
#include "index/sharded.h"
#include "pm/check.h"
#include "pm/persist.h"
#include "race_sched.h"

namespace fastfair {
namespace {

Value ValueFor(Key k) { return 2 * k + 1; }

// One ScanBatch call under the budget rule (DESIGN.md §8.1, §8.2b): each
// grouped stall covers at most kBatchGroup node fetches, and every node a
// scan visits was fetched, so stalls x kBatchGroup >= visits. Returns
// whether the call kept it.
bool ScanBatchWithinBudget(const core::BTree& tree, const ScanOp* ops,
                           std::size_t n, std::size_t* counts) {
  const auto before = pm::Stats();
  tree.ScanBatch(ops, n, counts);
  const auto d = pm::Stats() - before;
  return d.read_stalls * core::BTree::kBatchGroup >= d.read_annotations;
}

// Checks every op of a ScanBatch result against the scalar Scan.
void ExpectMatchesScalar(const core::BTree& tree, const ScanOp* ops,
                         std::size_t n, const std::size_t* counts) {
  std::vector<core::Record> want;
  for (std::size_t i = 0; i < n; ++i) {
    want.resize(ops[i].cap);
    const std::size_t wn = tree.Scan(ops[i].min_key, ops[i].cap, want.data());
    ASSERT_EQ(counts[i], wn) << "start " << ops[i].min_key;
    for (std::size_t j = 0; j < wn; ++j) {
      ASSERT_EQ(ops[i].out[j].key, want[j].key) << "start " << ops[i].min_key;
      ASSERT_EQ(ops[i].out[j].ptr, want[j].ptr) << "start " << ops[i].min_key;
    }
  }
}

TEST(BatchOps, EmptyBatchIsANoOp) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  tree.InsertBatch(nullptr, 0);
  tree.SearchBatch(nullptr, 0, nullptr);
  tree.RemoveBatch(nullptr, 0, nullptr);
  EXPECT_EQ(tree.CountEntries(), 0u);

  for (const char* kind : {"sharded-fastfair:4", "hashed-fastfair:4"}) {
    auto idx = MakeIndex(kind, &pool);
    idx->InsertBatch(nullptr, 0);
    idx->SearchBatch(nullptr, 0, nullptr);
    idx->RemoveBatch(nullptr, 0, nullptr);
    EXPECT_EQ(idx->CountEntries(), 0u) << kind;
  }
}

TEST(BatchOps, SearchBatchMatchesScalarAtOddSizes) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(20000, 42);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  // Unsorted probe mix: present keys interleaved with misses.
  std::vector<Key> probes;
  Rng rng(7);
  for (std::size_t i = 0; i < 4096; ++i) {
    probes.push_back(i % 3 == 0 ? (rng.Next() | 1) : keys[rng.NextBounded(keys.size())]);
  }
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{13},
                                  std::size_t{1024}}) {
    std::vector<Value> got(probes.size());
    for (std::size_t i = 0; i < probes.size(); i += batch) {
      const std::size_t n = std::min(batch, probes.size() - i);
      tree.SearchBatch(probes.data() + i, n, got.data() + i);
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[i], tree.Search(probes[i])) << "batch=" << batch;
    }
  }
}

TEST(BatchOps, InsertBatchDuplicateAndUnsortedKeys) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  // Unsorted, with duplicates inside one group and across groups: upsert
  // order is batch order, so the last occurrence wins.
  std::vector<core::Record> ops;
  for (Key k = 100; k > 0; --k) ops.push_back({k, ValueFor(k)});
  ops.push_back({50, 999});
  ops.push_back({50, 1001});
  tree.InsertBatch(ops.data(), ops.size());
  EXPECT_EQ(tree.CountEntries(), 100u);
  EXPECT_EQ(tree.Search(50), Value{1001});
  EXPECT_EQ(tree.Search(100), ValueFor(100));
  EXPECT_EQ(tree.Search(1), ValueFor(1));
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BatchOps, BatchesSpanShardBoundaries) {
  for (const char* kind : {"sharded-fastfair:4", "hashed-fastfair:4"}) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Keys spread across the whole 2^64 space so every batch straddles
    // several shards of the range partition (and all of the hash one).
    const auto keys = bench::UniformKeys(20000, 99);
    std::vector<core::Record> ops;
    ops.reserve(keys.size());
    for (const Key k : keys) ops.push_back({k, ValueFor(k)});
    idx->InsertBatch(ops.data(), ops.size());
    EXPECT_EQ(idx->CountEntries(), keys.size()) << kind;

    std::vector<Value> vals(keys.size());
    idx->SearchBatch(keys.data(), keys.size(), vals.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(vals[i], ValueFor(keys[i])) << kind;
    }
    // Misses stay misses through the scatter/gather.
    std::vector<Key> missing = {2, 4, 6, 8};
    std::vector<Value> mvals(missing.size());
    idx->SearchBatch(missing.data(), missing.size(), mvals.data());
    for (const Value v : mvals) EXPECT_EQ(v, kNoValue) << kind;
  }
}

TEST(BatchOps, GroupedStallAccounting) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  pm::ResetStats();
  const auto before_scalar = pm::Stats();
  for (std::size_t i = 0; i < 4096; ++i) {
    ASSERT_NE(tree.Search(keys[i]), kNoValue);
  }
  const auto scalar = pm::Stats() - before_scalar;

  std::vector<Value> vals(4096);
  const auto before_batched = pm::Stats();
  tree.SearchBatch(keys.data(), 4096, vals.data());
  const auto batched = pm::Stats() - before_batched;

  // Node-visit accounting is unchanged; only the serialized-stall count
  // drops — by the group factor (8), the pipeline's whole point. >= 2x is
  // the CI gate; the slack covers sibling-hop scalar annotations.
  EXPECT_EQ(batched.read_annotations, scalar.read_annotations);
  EXPECT_GE(scalar.read_stalls, 2 * batched.read_stalls);
  EXPECT_LE(batched.read_stalls,
            scalar.read_stalls / core::BTree::kBatchGroup +
                scalar.read_stalls / 8 + 1);
}

TEST(BatchOps, SearchBatchRacesConcurrentSplitsAndDeletes) {
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool);
  // Anchors are never touched by the writer; churn keys around them force
  // continuous splits (inserts) and in-node shifts (removes).
  std::vector<Key> anchors;
  for (Key k = 1000; k <= 500000; k += 1000) {
    anchors.push_back(k);
    tree.Insert(k, ValueFor(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::thread writer([&] {
    Rng rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.NextBounded(500000) + 1;
      if (k % 1000 == 0) continue;
      if (rng.NextBounded(2) == 0) {
        tree.Insert(k, ValueFor(k));
      } else {
        tree.Remove(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      Key batch[64];
      Value vals[64];
      for (int iter = 0; iter < 400; ++iter) {
        for (std::size_t j = 0; j < 64; ++j) {
          batch[j] = anchors[rng.NextBounded(anchors.size())];
        }
        tree.SearchBatch(batch, 64, vals);
        for (std::size_t j = 0; j < 64; ++j) {
          if (vals[j] != ValueFor(batch[j])) misses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(misses.load(), 0u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(BatchOps, InsertBatchRacesOnConcurrentWriters) {
  // Two writer threads InsertBatch into disjoint key ranges while a third
  // runs scalar inserts — the batched write path under real concurrency.
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool);
  auto worker = [&](Key base, std::size_t n) {
    core::Record ops[128];
    Rng rng(base);
    for (std::size_t i = 0; i < n; i += 128) {
      for (std::size_t j = 0; j < 128; ++j) {
        const Key k = base + (rng.Next() % 1000000) * 4;
        ops[j] = {k, ValueFor(k)};
      }
      tree.InsertBatch(ops, 128);
    }
  };
  std::thread t1([&] { worker(1, 20000); });
  std::thread t2([&] { worker(2, 20000); });
  std::thread t3([&] {
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
      const Key k = 3 + (rng.Next() % 1000000) * 4;
      tree.Insert(k, ValueFor(k));
    }
  });
  t1.join();
  t2.join();
  t3.join();
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
  // Spot-check a batch over everything that must be present.
  std::vector<Key> probe;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) probe.push_back(1 + (rng.Next() % 1000000) * 4);
  std::vector<Value> vals(probe.size());
  tree.SearchBatch(probe.data(), probe.size(), vals.data());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(vals[i], ValueFor(probe[i]));
  }
}

TEST(BatchOps, InsertBatchReportsInsertVersusUpdate) {
  // Per-op status plumbing: fresh keys report kInserted, upserts report
  // kUpdated, and a duplicate later in the SAME batch sees the earlier
  // entry (batch order is the contract). Exercised on the core tree
  // (native path) first, then through every registry adapter — sharded
  // scatter, hashed scatter, and the probe-based default loop alike.
  {
    pm::Pool pool(std::size_t{256} << 20);
    core::BTree tree(&pool);
    std::vector<core::Record> ops;
    for (Key k = 10; k <= 100; k += 10) ops.push_back({k, ValueFor(k)});
    ops.push_back({30, 999});  // duplicate within the batch
    std::vector<InsertStatus> st(ops.size());
    tree.InsertBatch(ops.data(), ops.size(), st.data());
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      EXPECT_EQ(st[i], InsertStatus::kInserted) << i;
    }
    EXPECT_EQ(st.back(), InsertStatus::kUpdated);
    EXPECT_EQ(tree.Search(30), 999u);
  }
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Enough keys to force structural splits under the fresh batch.
    std::vector<core::Record> fresh;
    for (Key k = 1; k <= 2000; ++k) fresh.push_back({k * 3, ValueFor(k * 3)});
    std::vector<InsertStatus> st(fresh.size());
    idx->InsertBatch(fresh.data(), fresh.size(), st.data());
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_EQ(st[i], InsertStatus::kInserted) << kind << " op " << i;
    }
    // Upsert half of them, interleaved with new keys: statuses must track
    // per op, not per batch.
    std::vector<core::Record> mixed;
    for (Key k = 1; k <= 200; ++k) {
      mixed.push_back({k * 3, ValueFor(k * 3) + 1});  // exists -> update
      mixed.push_back({k * 3 + 1, ValueFor(k * 3 + 1)});  // fresh -> insert
    }
    st.assign(mixed.size(), InsertStatus::kInserted);
    idx->InsertBatch(mixed.data(), mixed.size(), st.data());
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      const auto want =
          i % 2 == 0 ? InsertStatus::kUpdated : InsertStatus::kInserted;
      EXPECT_EQ(st[i], want) << kind << " op " << i;
      EXPECT_EQ(idx->Search(mixed[i].key), mixed[i].ptr) << kind;
    }
  }
}

TEST(ScanBatch, EmptyBatchAndZeroCapOps) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  for (Key k = 1; k <= 100; ++k) tree.Insert(k, ValueFor(k));
  // Empty batch is a no-op.
  tree.ScanBatch(nullptr, 0, nullptr);
  // cap == 0 ops are born finished and must not touch their (null) buffer,
  // even mixed into a group with live ops.
  core::Record out[16];
  ScanOp ops[3] = {{1, 0, nullptr}, {10, 16, out}, {200, 0, nullptr}};
  std::size_t counts[3] = {99, 99, 99};
  tree.ScanBatch(ops, 3, counts);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 16u);
  EXPECT_EQ(counts[2], 0u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i].key, Key{10} + i);
  }
  // More ops than cursor slots, every third with cap 0: those are retired
  // as slots free up, between ops that take the slots.
  constexpr std::size_t kOps = 3 * core::BTree::kBatchGroup + 1;
  core::Record many[kOps][8];
  std::vector<ScanOp> mixed;
  for (std::size_t i = 0; i < kOps; ++i) {
    const bool empty = i % 3 == 1;
    mixed.push_back(
        {Key{1} + 3 * i, empty ? 0u : 8u, empty ? nullptr : many[i]});
  }
  std::vector<std::size_t> mixed_counts(kOps, 99);
  tree.ScanBatch(mixed.data(), kOps, mixed_counts.data());
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_EQ(mixed_counts[i], i % 3 == 1 ? 0u : 8u) << "op " << i;
    for (std::size_t j = 0; j < mixed_counts[i]; ++j) {
      EXPECT_EQ(many[i][j].key, mixed[i].min_key + j) << "op " << i;
    }
  }
}

TEST(ScanBatch, MatchesScalarWithDuplicateAndUnsortedStarts) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(20000, 21);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  // Start keys in arbitrary order, with duplicates (same start twice in
  // one group) and past-the-end starts that must return 0.
  std::vector<Key> starts;
  Rng rng(11);
  for (std::size_t i = 0; i < 200; ++i) {
    const Key s = i % 7 == 0 ? rng.Next() : keys[rng.NextBounded(keys.size())];
    starts.push_back(s);
    if (i % 5 == 0) starts.push_back(s);  // duplicate start
  }
  constexpr std::size_t kCap = 64;
  std::vector<core::Record> got(starts.size() * kCap);
  std::vector<std::size_t> counts(starts.size());
  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    ops.push_back({starts[i], kCap, got.data() + i * kCap});
  }
  // Odd batch sizes so groups of every residue size run.
  for (std::size_t i = 0; i < ops.size(); i += 13) {
    const std::size_t n = std::min<std::size_t>(13, ops.size() - i);
    EXPECT_TRUE(ScanBatchWithinBudget(tree, ops.data() + i, n,
                                      counts.data() + i));
  }
  core::Record want[kCap];
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t wn = tree.Scan(starts[i], kCap, want);
    ASSERT_EQ(counts[i], wn) << "start " << starts[i];
    for (std::size_t j = 0; j < wn; ++j) {
      EXPECT_EQ(got[i * kCap + j].key, want[j].key);
      EXPECT_EQ(got[i * kCap + j].ptr, want[j].ptr);
    }
  }
}

TEST(ScanBatch, GroupedStallAccounting) {
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));

  constexpr std::size_t kScans = 1024;
  constexpr std::size_t kCap = 100;
  std::vector<core::Record> out(kScans * kCap);

  pm::ResetStats();
  const auto before_scalar = pm::Stats();
  for (std::size_t i = 0; i < kScans; ++i) {
    ASSERT_GT(tree.Scan(keys[i], kCap, out.data() + i * kCap), 0u);
  }
  const auto scalar = pm::Stats() - before_scalar;

  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < kScans; ++i) {
    ops.push_back({keys[i], kCap, out.data() + i * kCap});
  }
  std::vector<std::size_t> counts(kScans);
  const auto before_batched = pm::Stats();
  tree.ScanBatch(ops.data(), kScans, counts.data());
  const auto batched = pm::Stats() - before_batched;

  // Same node visits either way; the grouped descents plus wave-interleaved
  // leaf-chain drains collapse serialized stalls by roughly the group
  // factor (one grouped stall per wave of 8 sibling hops instead of one
  // per hop per scan). >= 2x is the CI perf-smoke gate's contract. The
  // rolling window admits the next scan into a finished scan's slot, so
  // no wave drains with idle slots while ops are left: the call stays
  // within one window's worth of stalls of ceil(visits / kBatchGroup).
  EXPECT_EQ(batched.read_annotations, scalar.read_annotations);
  EXPECT_GE(scalar.read_stalls, 2 * batched.read_stalls);
  EXPECT_GE(batched.read_stalls * core::BTree::kBatchGroup,
            batched.read_annotations);
  constexpr std::size_t kG = core::BTree::kBatchGroup;
  EXPECT_LE(batched.read_stalls, (batched.read_annotations + kG - 1) / kG + kG);
}

TEST(ScanBatch, FullScanChargesNoUnvisitedSibling) {
  // The cap fills inside the first leaf, which has a right sibling: both
  // scans stop before loading that sibling, so the one leaf they visit is
  // the one read annotation they charge.
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  for (Key k = 1; k <= 400; ++k) tree.Insert(k, ValueFor(k));
  ASSERT_GE(tree.Height(), 2);
  core::Record out[4];
  auto before = pm::Stats();
  ASSERT_EQ(tree.Scan(1, 4, out), 4u);
  EXPECT_EQ((pm::Stats() - before).read_annotations, 1u);
  const ScanOp op{1, 4, out};
  std::size_t count = 0;
  before = pm::Stats();
  tree.ScanBatch(&op, 1, &count);
  ASSERT_EQ(count, 4u);
  EXPECT_EQ((pm::Stats() - before).read_annotations, 1u);
}

TEST(ScanBatch, LoneScanPaysAtMostHalfTheScalarStalls) {
  // A batch of one has no group to share a wave with: its savings come
  // from the lookahead alone. The wave that fetches its start leaf also
  // fetches the next seven leaves its level-1 parent routes to, so a
  // Scan(100) over about six leaves pays that one stall and no other.
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));
  constexpr std::size_t kScans = 256;
  constexpr std::size_t kCap = 100;
  std::vector<core::Record> out(kCap);

  const auto before_scalar = pm::Stats();
  for (std::size_t i = 0; i < kScans; ++i) tree.Scan(keys[i], kCap, out.data());
  const auto scalar = pm::Stats() - before_scalar;

  pm::ThreadStats batched;
  for (std::size_t i = 0; i < kScans; ++i) {
    const ScanOp op{keys[i], kCap, out.data()};
    std::size_t count = 0;
    const auto before = pm::Stats();
    tree.ScanBatch(&op, 1, &count);
    const auto d = pm::Stats() - before;
    EXPECT_GE(d.read_stalls * core::BTree::kBatchGroup, d.read_annotations);
    EXPECT_EQ(d.read_stalls, 1u) << "start " << keys[i];
    batched += d;
    ExpectMatchesScalar(tree, &op, 1, &count);
  }
  EXPECT_EQ(batched.read_annotations, scalar.read_annotations);
  EXPECT_LE(2 * batched.read_stalls, scalar.read_stalls);
}

TEST(ScanBatch, LookaheadFollowsLevelOneSiblings) {
  // A scan that starts in the last child of a level-1 node continues into
  // leaves routed by that node's right sibling. The lookahead reads them
  // there, so the wave that fetches the start leaf also fetches every
  // leaf the scan goes on to: one stall in all.
  using NodeT = core::BTree::NodeT;
  using Ops = core::BTree::Ops;
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(50000, 5);
  for (const Key k : keys) tree.Insert(k, ValueFor(k));
  ASSERT_GE(tree.Height(), 3);  // level-1 nodes have siblings
  core::RealMem m;
  const auto* p = reinterpret_cast<const NodeT*>(tree.meta()->root);
  while (p->level() > 1) p = reinterpret_cast<const NodeT*>(p->hdr.leftmost);
  ASSERT_NE(Ops::LoadSibling(m, p), 0u);
  core::Record routes[core::BTree::kNodeCapacity];
  const int r = Ops::CollectValid(m, p, routes);
  ASSERT_GT(r, 0);
  const Key start = routes[r - 1].key;  // first key of p's last child

  constexpr std::size_t kCap = 100;
  core::Record out[kCap];
  const ScanOp op{start, kCap, out};
  std::size_t count = 0;
  const auto before = pm::Stats();
  tree.ScanBatch(&op, 1, &count);
  const auto d = pm::Stats() - before;
  ASSERT_EQ(count, kCap);
  EXPECT_GT(d.read_annotations, 4u);  // the scan left p's last child
  EXPECT_EQ(d.read_stalls, 1u);
  EXPECT_GE(d.read_stalls * core::BTree::kBatchGroup, d.read_annotations);
  ExpectMatchesScalar(tree, &op, 1, &count);
}

TEST(ScanBatch, SparseLeavesAndSingleLeafTreeMatchScalar) {
  // Sparse leaves: a cap that needs far more leaves than the lookahead
  // array holds refills it many times over. A height-1 tree has no level-1
  // parent and so no lookahead at all. Both must match scalar Scan, at
  // every group size, within the budget.
  pm::Pool pool(std::size_t{256} << 20);
  core::BTree sparse(&pool);
  for (Key k = 1; k <= 40000; ++k) sparse.Insert(k, ValueFor(k));
  for (Key k = 1; k <= 40000; ++k) {
    if (k % 16 != 0) sparse.Remove(k);
  }
  core::BTree single(&pool);
  for (Key k = 10; k <= 100; k += 10) single.Insert(k, ValueFor(k));
  ASSERT_EQ(single.Height(), 1);

  for (const core::BTree* tree : {&sparse, &single}) {
    constexpr std::size_t kCap = 300;
    std::vector<Key> starts;
    Rng rng(17);
    const Key span = tree == &single ? 120 : 40000;
    for (std::size_t i = 0; i < 24; ++i) {
      starts.push_back(rng.NextBounded(span));
    }
    std::vector<core::Record> got(starts.size() * kCap);
    std::vector<ScanOp> ops;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ops.push_back({starts[i], kCap, got.data() + i * kCap});
    }
    std::vector<std::size_t> counts(starts.size());
    for (const std::size_t group : {std::size_t{1}, std::size_t{3},
                                    core::BTree::kBatchGroup}) {
      for (std::size_t i = 0; i < ops.size(); i += group) {
        const std::size_t n = std::min(group, ops.size() - i);
        EXPECT_TRUE(ScanBatchWithinBudget(*tree, ops.data() + i, n,
                                          counts.data() + i));
      }
      ExpectMatchesScalar(*tree, ops.data(), ops.size(), counts.data());
    }
  }
}

TEST(ScanBatch, SpansShardSeams) {
  for (const char* kind : {"sharded-fastfair:4", "hashed-fastfair:4"}) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    // Whole-key-space spread: every long scan crosses range-shard
    // boundaries (continuation into later shards) and, for the hash
    // partition, interleaves entries from all four shards per group.
    const auto keys = bench::UniformKeys(20000, 99);
    std::vector<core::Record> rows;
    for (const Key k : keys) rows.push_back({k, ValueFor(k)});
    idx->InsertBatch(rows.data(), rows.size());

    // Caps big enough that a range shard's tail forces the seam hop.
    constexpr std::size_t kCap = 600;
    std::vector<Key> starts;
    Rng rng(3);
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 32; ++i) {
      starts.push_back(keys[rng.NextBounded(keys.size())]);
    }
    // Starts sitting just below a likely shard seam: quartile keys.
    for (std::size_t q = 1; q < 4; ++q) {
      starts.push_back(sorted[q * sorted.size() / 4 - 2]);
    }
    std::vector<core::Record> got(starts.size() * kCap);
    std::vector<std::size_t> counts(starts.size());
    std::vector<ScanOp> ops;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ops.push_back({starts[i], kCap, got.data() + i * kCap});
    }
    idx->ScanBatch(ops.data(), ops.size(), counts.data());
    std::vector<core::Record> want(kCap);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::size_t wn = idx->Scan(starts[i], kCap, want.data());
      ASSERT_EQ(counts[i], wn) << kind << " start " << starts[i];
      for (std::size_t j = 0; j < wn; ++j) {
        ASSERT_EQ(got[i * kCap + j].key, want[j].key) << kind;
        ASSERT_EQ(got[i * kCap + j].ptr, want[j].ptr) << kind;
      }
    }
  }
}

TEST(ScanBatch, RangeShardedChunksRollOneWindow) {
  // The range-sharded adapter hands each 64-op route chunk to one
  // cross-tree ScanBatch, whose rolling window refills a finished scan's
  // slot with the next op whatever its shard. Scan(100)s from loaded keys
  // then pay about one stall per kBatchGroup leaf visits (0.795 per scan
  // measured on this data, floor 0.785), with the scalar scans' records
  // and leaf visits. The 0.82 bound fails a pipeline that drains each
  // group of 8 to its last scan before starting the next (0.863 here).
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeIndex("sharded-fastfair:8", &pool);
  const std::vector<Key> keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) idx->Insert(k, ValueFor(k));

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
    ops[i] = {keys[rng.NextBounded(keys.size())], kCap,
              batched.data() + i * kCap};
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
    ASSERT_EQ(batched_n[i], scalar_n[i]) << "scan " << i;
    for (std::size_t j = 0; j < scalar_n[i]; ++j) {
      ASSERT_EQ(batched[i * kCap + j].key, scalar[i * kCap + j].key)
          << "scan " << i << " pos " << j;
      ASSERT_EQ(batched[i * kCap + j].ptr, scalar[i * kCap + j].ptr);
    }
  }
  EXPECT_EQ(batch.read_annotations, scan.read_annotations);
  const double stalls = static_cast<double>(batch.read_stalls) / kScans;
  EXPECT_LE(stalls, 0.82);
  std::printf("sharded-fastfair:8 ScanBatch(64 x Scan(100)): %.3f stalls, "
              "%.2f leaf visits per scan\n",
              stalls, static_cast<double>(batch.read_annotations) / kScans);
}

TEST(ScanBatch, DefaultAdapterCoversEveryRegisteredKind) {
  // Kinds without a native ScanBatch ride the Index default loop; kinds
  // with one (fastfair, sharded-*, hashed-*) must agree with it.
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    std::vector<core::Record> rows;
    for (Key k = 2; k <= 4096; k += 2) rows.push_back({k, ValueFor(k)});
    idx->InsertBatch(rows.data(), rows.size());

    constexpr std::size_t kCap = 48;
    std::vector<Key> starts = {1, 2, 3, 4000, 4096, 5000, 777, 777};
    std::vector<core::Record> got(starts.size() * kCap);
    std::vector<std::size_t> counts(starts.size());
    std::vector<ScanOp> ops;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      ops.push_back({starts[i], kCap, got.data() + i * kCap});
    }
    idx->ScanBatch(ops.data(), ops.size(), counts.data());
    std::vector<core::Record> want(kCap);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::size_t wn = idx->Scan(starts[i], kCap, want.data());
      ASSERT_EQ(counts[i], wn) << kind << " start " << starts[i];
      for (std::size_t j = 0; j < wn; ++j) {
        ASSERT_EQ(got[i * kCap + j].key, want[j].key) << kind;
      }
    }
  }
}

TEST(ScanBatch, RacesSplitsAndUnlinks) {
  // Writers churn non-anchor keys (continuous splits; removes drain leaves,
  // and with reclaim_empty_leaves on, empty runs get unlinked from the
  // chain mid-scan) while readers drive grouped scans over the anchors.
  // Invariants per scan: sorted strictly ascending, every key >= min_key,
  // no duplicates (split copies must dedup), and every never-touched
  // anchor inside the covered range present exactly once.
  core::Options topts;
  topts.reclaim_empty_leaves = true;
  pm::Pool pool(std::size_t{512} << 20);
  core::BTree tree(&pool, topts);
  std::vector<Key> anchors;
  for (Key k = 1000; k <= 400000; k += 1000) {
    anchors.push_back(k);
    tree.Insert(k, ValueFor(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    race::Rng rng(2026, 1);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.Below(400000) + 1;
      if (k % 1000 == 0) continue;
      if (rng.Chance(50)) {
        tree.Insert(k, ValueFor(k));
      } else {
        tree.Remove(k);
      }
      race::Perturb(rng);
    }
  });
  race::RunWorkers(3, [&](std::size_t w) {
    race::Rng rng(2026, 10 + w);
    constexpr std::size_t kGroup = 12;  // > kBatchGroup: two waves
    constexpr std::size_t kCap = 96;
    std::vector<core::Record> out(kGroup * kCap);
    ScanOp ops[kGroup];
    std::size_t counts[kGroup];
    for (int iter = 0; iter < 300; ++iter) {
      for (std::size_t j = 0; j < kGroup; ++j) {
        ops[j] = {anchors[rng.Below(anchors.size())], kCap,
                  out.data() + j * kCap};
      }
      // Stale lookahead (a split not yet in the parent, an unlinked
      // leaf) may cost stalls, never the budget or a record.
      if (!ScanBatchWithinBudget(tree, ops, kGroup, counts)) {
        violations.fetch_add(1);
      }
      for (std::size_t j = 0; j < kGroup; ++j) {
        const core::Record* r = out.data() + j * kCap;
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < counts[j]; ++i) {
          if (r[i].key < ops[j].min_key) ++bad;
          if (i > 0 && r[i].key <= r[i - 1].key) ++bad;
        }
        if (counts[j] > 0) {
          // Anchors are immutable; all in [min, last] must be present.
          std::size_t found = 0, expect = 0;
          for (Key a = (ops[j].min_key + 999) / 1000 * 1000;
               a <= r[counts[j] - 1].key; a += 1000) {
            ++expect;
            bool hit = false;
            for (std::size_t i = 0; i < counts[j]; ++i) {
              if (r[i].key == a) { hit = true; break; }
            }
            if (hit) ++found;
          }
          if (found != expect) ++bad;
        }
        if (bad != 0) violations.fetch_add(bad);
      }
      race::Perturb(rng);
    }
  });
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(violations.load(), 0u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(ScanBatch, RacesConcurrentRebalance) {
  // Grouped scans on the range-sharded adapter while writers churn and a
  // maintenance thread repeatedly republishes shard boundaries. During the
  // migration window a scan may transiently observe an entry's copy in
  // two shards (same exposure as the scalar Scan — the repo's Rebalance
  // race suite asserts final state, not mid-window snapshots), so the
  // racing phase checks liveness + bounds only; exact ScanBatch == Scan
  // equivalence is asserted after the writers quiesce and a final
  // Rebalance settles the boundaries.
  pm::Pool pool(std::size_t{512} << 20);
  auto owned = MakeIndex("sharded-fastfair:4", &pool);
  auto& idx = *owned;
  auto* sharded = dynamic_cast<ShardedIndex*>(owned.get());
  ASSERT_NE(sharded, nullptr);
  std::vector<Key> anchors;
  const Key step = ~Key{0} / 4096;
  for (std::size_t i = 1; i <= 4000; ++i) {
    anchors.push_back(static_cast<Key>(i) * step);
    idx.Insert(anchors.back(), ValueFor(anchors.back()));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    race::Rng rng(77, 1);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = (rng.Next() | 1);  // odd: never collides with anchors
      if (rng.Chance(60)) {
        idx.Insert(k, ValueFor(k));
      } else {
        idx.Remove(k);
      }
      race::Perturb(rng);
    }
  });
  std::thread rebalancer([&] {
    race::Rng rng(77, 2);
    while (!stop.load(std::memory_order_acquire)) {
      sharded->Rebalance();
      race::Perturb(rng);
      std::this_thread::yield();
    }
  });
  race::RunWorkers(2, [&](std::size_t w) {
    race::Rng rng(77, 10 + w);
    constexpr std::size_t kGroup = 10;
    constexpr std::size_t kCap = 64;
    std::vector<core::Record> out(kGroup * kCap);
    ScanOp ops[kGroup];
    std::size_t counts[kGroup];
    for (int iter = 0; iter < 200; ++iter) {
      for (std::size_t j = 0; j < kGroup; ++j) {
        ops[j] = {anchors[rng.Below(anchors.size())], kCap,
                  out.data() + j * kCap};
      }
      idx.ScanBatch(ops, kGroup, counts);
      for (std::size_t j = 0; j < kGroup; ++j) {
        if (counts[j] > kCap) violations.fetch_add(1);
      }
      race::Perturb(rng);
    }
  });
  stop.store(true, std::memory_order_release);
  writer.join();
  rebalancer.join();
  EXPECT_EQ(violations.load(), 0u);
  // Quiesced: grouped and scalar scans must agree exactly, across the
  // freshly republished boundaries.
  sharded->Rebalance();
  constexpr std::size_t kCap = 64;
  std::vector<core::Record> got(anchors.size() / 16 * kCap);
  std::vector<std::size_t> counts(anchors.size() / 16);
  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < anchors.size() / 16; ++i) {
    ops.push_back({anchors[i * 16], kCap, got.data() + i * kCap});
  }
  idx.ScanBatch(ops.data(), ops.size(), counts.data());
  std::vector<core::Record> want(kCap);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t wn = idx.Scan(ops[i].min_key, kCap, want.data());
    ASSERT_EQ(counts[i], wn) << "op " << i;
    for (std::size_t j = 0; j < wn; ++j) {
      ASSERT_EQ(got[i * kCap + j].key, want[j].key);
    }
  }
}

TEST(BatchOps, DefaultAdapterCoversEveryRegisteredKind) {
  // The virtual batch entry points must behave for kinds without a native
  // pipeline too (default loop adapter).
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto idx = MakeIndex(kind, &pool);
    std::vector<core::Record> ops;
    for (Key k = 2; k <= 512; k += 2) ops.push_back({k, ValueFor(k)});
    idx->InsertBatch(ops.data(), ops.size());
    std::vector<Key> probes;
    for (Key k = 1; k <= 512; ++k) probes.push_back(k);
    std::vector<Value> vals(probes.size());
    idx->SearchBatch(probes.data(), probes.size(), vals.data());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Key k = probes[i];
      EXPECT_EQ(vals[i], k % 2 == 0 ? ValueFor(k) : kNoValue) << kind;
    }
  }
}

TEST(RemoveBatch, DuplicateAndAbsentKeys) {
  // Batch order is the contract: a key's first occurrence removes it, a
  // later duplicate (same group or a later one) finds it gone, and keys
  // never inserted report false.
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  for (Key k = 1; k <= 100; ++k) tree.Insert(k, ValueFor(k));
  const std::vector<Key> keys = {50, 7, 50, 1000, 3, 2000, 4, 5, 6, 8, 3, 7};
  const std::vector<bool> want = {true,  true,  false, false, true, false,
                                  true,  true,  true,  true,  false, false};
  bool out[12];
  tree.RemoveBatch(keys.data(), keys.size(), out);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "op " << i << " key " << keys[i];
  }
  EXPECT_EQ(tree.CountEntries(), 93u);
  EXPECT_EQ(tree.Search(50), kNoValue);
  EXPECT_EQ(tree.Search(9), ValueFor(9));
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(RemoveBatch, MatchesSequentialRemoveOnEveryKind) {
  // Two identical indexes per kind: one drains through RemoveBatch (the
  // native pipeline, the sharded cross-tree path, or the default loop),
  // the other through scalar Remove. Per-op results and the survivors
  // must agree.
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{256} << 20);
    auto batched = MakeIndex(kind, &pool);
    auto scalar = MakeIndex(kind, &pool);
    std::vector<core::Record> rows;
    for (Key k = 3; k <= 3 * 3000; k += 3) rows.push_back({k, ValueFor(k)});
    batched->InsertBatch(rows.data(), rows.size());
    scalar->InsertBatch(rows.data(), rows.size());
    // Unsorted mix of present keys, absent keys, and duplicates, in odd
    // batch sizes so every group residue runs.
    std::vector<Key> keys;
    Rng rng(17);
    for (std::size_t i = 0; i < 2500; ++i) {
      keys.push_back(rng.NextBounded(9500));
    }
    std::unique_ptr<bool[]> got(new bool[keys.size()]);
    for (std::size_t i = 0; i < keys.size(); i += 13) {
      const std::size_t n = std::min<std::size_t>(13, keys.size() - i);
      batched->RemoveBatch(keys.data() + i, n, got.get() + i);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(got[i], scalar->Remove(keys[i])) << kind << " op " << i;
    }
    EXPECT_EQ(batched->CountEntries(), scalar->CountEntries()) << kind;
    for (const auto& r : rows) {
      ASSERT_EQ(batched->Search(r.key), scalar->Search(r.key)) << kind;
    }
  }
}

TEST(RemoveBatch, DrainsWholeLeavesOnReclaimingShards) {
  // Range-sharded reclaiming trees: batches that empty whole leaves (and
  // whole runs of them) make the pipeline's later slots land on hints an
  // earlier slot unlinked, which LockCovering absorbs by re-descending.
  pm::Pool pool(std::size_t{512} << 20);
  auto idx = MakeIndex("sharded-fastfair-reclaim:8", &pool);
  const auto keys = bench::UniformKeys(40000, 23);
  std::vector<core::Record> rows;
  for (const Key k : keys) rows.push_back({k, ValueFor(k)});
  idx->InsertBatch(rows.data(), rows.size());
  // Remove every key outside the bottom eighth of each shard's range,
  // ascending, so whole leaves drain in chain order within each batch.
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const Key shard_width = ~Key{0} / 8;
  std::vector<Key> doomed, kept;
  for (const Key k : sorted) {
    ((k % shard_width) < shard_width / 8 ? kept : doomed).push_back(k);
  }
  std::unique_ptr<bool[]> out(new bool[doomed.size()]);
  for (std::size_t i = 0; i < doomed.size(); i += 256) {
    const std::size_t n = std::min<std::size_t>(256, doomed.size() - i);
    idx->RemoveBatch(doomed.data() + i, n, out.get() + i);
  }
  for (std::size_t i = 0; i < doomed.size(); ++i) ASSERT_TRUE(out[i]) << i;
  EXPECT_EQ(idx->CountEntries(), kept.size());
  std::vector<core::Record> all(kept.size() + 8);
  const std::size_t got = idx->Scan(0, all.size(), all.data());
  ASSERT_EQ(got, kept.size());
  for (std::size_t i = 0; i < got; ++i) {
    ASSERT_EQ(all[i].key, kept[i]) << i;
    ASSERT_EQ(all[i].ptr, ValueFor(kept[i])) << i;
  }
}

TEST(RemoveBatch, RacesSearchBatchReaders) {
  // A writer inserts and batch-removes churn keys between anchors that
  // are never removed, on both sharded adapters over reclaiming trees, so
  // RemoveBatch's cross-tree waves unlink emptied leaves while
  // SearchBatch readers' waves descend the same shards. Every anchor must
  // be found, with its value, in every reader batch.
  for (const char* kind :
       {"sharded-fastfair-reclaim:4", "hashed-fastfair-reclaim:4"}) {
    pm::Pool pool(std::size_t{512} << 20);
    auto idx = MakeIndex(kind, &pool);
    const Key step = ~Key{0} / 2048;
    std::vector<Key> anchors;
    for (Key i = 1; i < 2048; ++i) {
      anchors.push_back(i * step);
      idx->Insert(anchors.back(), ValueFor(anchors.back()));
    }
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> misses{0};
    std::thread writer([&] {
      race::Rng rng(2027, 1);
      std::vector<core::Record> puts(32);
      Key dels[32];
      bool removed[32];
      while (!stop.load(std::memory_order_acquire)) {
        // Churn keys sit strictly between anchors (never a multiple of
        // step), clustered so whole leaves fill and then drain.
        const Key base = (rng.Below(2047) + 1) * step;
        for (std::size_t j = 0; j < 32; ++j) {
          const Key k = base + 1 + rng.Below(4096);
          puts[j] = {k, ValueFor(k)};
          dels[j] = k;
        }
        idx->InsertBatch(puts.data(), puts.size());
        race::Perturb(rng);
        idx->RemoveBatch(dels, 32, removed);
        race::Perturb(rng);
      }
    });
    race::RunWorkers(3, [&](std::size_t w) {
      race::Rng rng(2027, 10 + w);
      Key batch[24];
      Value vals[24];
      for (int iter = 0; iter < 1500; ++iter) {
        for (std::size_t j = 0; j < 24; ++j) {
          batch[j] = anchors[rng.Below(anchors.size())];
        }
        idx->SearchBatch(batch, 24, vals);
        for (std::size_t j = 0; j < 24; ++j) {
          if (vals[j] != ValueFor(batch[j])) misses.fetch_add(1);
        }
        race::Perturb(rng);
      }
    });
    stop.store(true, std::memory_order_release);
    writer.join();
    EXPECT_EQ(misses.load(), 0u) << kind;
    EXPECT_EQ(idx->CountEntries(), anchors.size()) << kind;
  }
}

// Eight keys, one in each shard of an 8-shard adapter, so every shard is a
// single-leaf tree and a batch of them descends eight distinct trees.
std::vector<Key> OneKeyPerShard(const Index& idx) {
  std::vector<Key> keys(8, 0);
  std::size_t found = 0;
  for (Key k = 1; found < 8; k += 0x0123456789ABCDull) {
    std::size_t s;
    if (const auto* h = dynamic_cast<const HashShardedIndex*>(&idx)) {
      s = h->ShardOf(k);
    } else {
      s = dynamic_cast<const ShardedIndex&>(idx).ShardOf(k);
    }
    if (keys[s] == 0) {
      keys[s] = k;
      ++found;
    }
  }
  return keys;
}

TEST(BatchOps, CrossShardBatchChargesOneWave) {
  // A batch whose eight ops land in eight different single-leaf shards
  // still pays ONE grouped read stall: the adapters run it as one
  // cross-tree pipeline, whose first wave holds all eight root leaves.
  // Node visits match the scalar ops exactly.
  for (const char* kind : {"hashed-fastfair:8", "sharded-fastfair:8"}) {
    SCOPED_TRACE(kind);
    pm::Pool pool(std::size_t{64} << 20);
    auto idx = MakeIndex(kind, &pool);
    const std::vector<Key> keys = OneKeyPerShard(*idx);
    for (const Key k : keys) idx->Insert(k, ValueFor(k));

    auto before = pm::Stats();
    for (const Key k : keys) ASSERT_EQ(idx->Search(k), ValueFor(k));
    const auto scalar_search = pm::Stats() - before;
    Value vals[8];
    before = pm::Stats();
    idx->SearchBatch(keys.data(), 8, vals);
    const auto batch_search = pm::Stats() - before;
    for (std::size_t j = 0; j < 8; ++j) ASSERT_EQ(vals[j], ValueFor(keys[j]));
    EXPECT_EQ(scalar_search.read_stalls, 8u);
    EXPECT_EQ(batch_search.read_stalls, 1u);
    EXPECT_EQ(batch_search.read_annotations, scalar_search.read_annotations);

    // Scans: one cap-1 scan per key on the range partition (no seam hop);
    // the hashed adapter fans one scan out to all eight shards, so a
    // single op is already eight descents into eight trees — and its
    // scalar Scan runs them as one cross-tree first fill, one stall.
    const bool hashed = std::string_view(kind).starts_with("hashed");
    const std::size_t n_scans = hashed ? 1 : 8;
    core::Record out[8];
    std::vector<ScanOp> ops;
    for (std::size_t j = 0; j < n_scans; ++j) {
      ops.push_back({keys[j], 1, out + j});
    }
    before = pm::Stats();
    for (const ScanOp& op : ops) {
      ASSERT_EQ(idx->Scan(op.min_key, 1, op.out), 1u);
    }
    const auto scalar_scan = pm::Stats() - before;
    std::size_t counts[8];
    before = pm::Stats();
    idx->ScanBatch(ops.data(), ops.size(), counts);
    const auto batch_scan = pm::Stats() - before;
    for (std::size_t j = 0; j < n_scans; ++j) {
      ASSERT_EQ(counts[j], 1u);
      ASSERT_EQ(out[j].key, keys[j]);
    }
    EXPECT_EQ(scalar_scan.read_stalls, hashed ? 1u : 8u);
    EXPECT_EQ(batch_scan.read_stalls, 1u);
    EXPECT_EQ(batch_scan.read_annotations, scalar_scan.read_annotations);

    before = pm::Stats();
    for (const Key k : keys) ASSERT_TRUE(idx->Remove(k));
    const auto scalar_remove = pm::Stats() - before;
    for (const Key k : keys) idx->Insert(k, ValueFor(k));
    bool removed[8];
    before = pm::Stats();
    idx->RemoveBatch(keys.data(), 8, removed);
    const auto batch_remove = pm::Stats() - before;
    for (std::size_t j = 0; j < 8; ++j) ASSERT_TRUE(removed[j]);
    EXPECT_EQ(scalar_remove.read_stalls, 8u);
    EXPECT_EQ(batch_remove.read_stalls, 1u);
    EXPECT_EQ(batch_remove.read_annotations, scalar_remove.read_annotations);
  }
}

TEST(BatchOps, MixedHeightShardsMatchScalar) {
  // Shard 0 holds a multi-level tree, shards 1 and 3 are empty (their
  // roots are leaves), shard 2 holds a handful of keys: every batch mixes
  // descents of different lengths in one pipeline. Each batch call must
  // match the scalar ops on a twin index.
  pm::Pool pool(std::size_t{256} << 20);
  auto batched = MakeIndex("sharded-fastfair:4", &pool);
  auto scalar = MakeIndex("sharded-fastfair:4", &pool);
  const Key quarter = Key{1} << 62;
  std::vector<core::Record> rows;
  for (Key k = 1; k <= 6000; ++k) rows.push_back({k * 7, ValueFor(k * 7)});
  for (Key k = 1; k <= 5; ++k) {
    rows.push_back({2 * quarter + k, ValueFor(2 * quarter + k)});
  }
  batched->InsertBatch(rows.data(), rows.size());
  scalar->InsertBatch(rows.data(), rows.size());

  // Probe keys cycle through all four shards, hits and misses.
  std::vector<Key> keys;
  Rng rng(5);
  for (std::size_t i = 0; i < 400; ++i) {
    switch (i % 4) {
      case 0: keys.push_back(7 * (rng.NextBounded(7000) + 1)); break;
      case 1: keys.push_back(quarter + rng.NextBounded(100)); break;
      case 2: keys.push_back(2 * quarter + rng.NextBounded(8)); break;
      default: keys.push_back(3 * quarter + rng.NextBounded(100)); break;
    }
  }
  std::vector<Value> vals(keys.size());
  batched->SearchBatch(keys.data(), keys.size(), vals.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(vals[i], scalar->Search(keys[i])) << "search " << i;
  }

  constexpr std::size_t kCap = 40;
  std::vector<core::Record> got(keys.size() * kCap), want(kCap);
  std::vector<ScanOp> ops;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ops.push_back({keys[i], kCap, got.data() + i * kCap});
  }
  std::vector<std::size_t> counts(keys.size());
  batched->ScanBatch(ops.data(), ops.size(), counts.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t wn = scalar->Scan(keys[i], kCap, want.data());
    ASSERT_EQ(counts[i], wn) << "scan " << i;
    for (std::size_t j = 0; j < wn; ++j) {
      ASSERT_EQ(got[i * kCap + j].key, want[j].key) << "scan " << i;
    }
  }

  std::vector<core::Record> puts;
  for (const Key k : keys) puts.push_back({k, ValueFor(k) + 2});
  std::vector<InsertStatus> st(puts.size());
  batched->InsertBatch(puts.data(), puts.size(), st.data());
  for (std::size_t i = 0; i < puts.size(); ++i) {
    const bool fresh = scalar->Search(puts[i].key) == kNoValue;
    scalar->Insert(puts[i].key, puts[i].ptr);
    ASSERT_EQ(st[i], fresh ? InsertStatus::kInserted : InsertStatus::kUpdated)
        << "insert " << i;
  }

  std::unique_ptr<bool[]> removed(new bool[keys.size()]);
  batched->RemoveBatch(keys.data(), keys.size(), removed.get());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(removed[i], scalar->Remove(keys[i])) << "remove " << i;
  }
  EXPECT_EQ(batched->CountEntries(), scalar->CountEntries());
}

// --- PointBatch: one class-ordered pipeline ---------------------------------

// The pm counter delta of one call.
template <class Fn>
pm::ThreadStats DeltaOf(Fn&& fn) {
  const auto before = pm::Stats();
  fn();
  return pm::Stats() - before;
}

// Keys of a tree filled with 10, 20, ..., 10 * n in order: a leaf holds at
// most kNodeCapacity (27) keys, so keys 50 ranks apart sit in distinct
// leaves, and no leaf but the last is more than half full.
Key SpacedKey(std::size_t i) { return 10 * (50 * i + 7); }

// Differs between the keys a round writes and between the rounds that
// write one key, so adjacent records never share a value (core/btree.h
// value-uniqueness contract).
Value RoundValue(Key k, std::uint64_t round) {
  return (round << 40) | (2 * k + 1);
}

TEST(PointBatch, MatchesTheThreeClassCalls) {
  // Random class-ordered batches whose classes repeat keys (a Put, a Del
  // and a Get of one key in one call, duplicates within a class too),
  // against a twin index fed the same ops as InsertBatch, RemoveBatch and
  // SearchBatch in sequence. Rounds alternate filling and draining so
  // whole leaves empty, and the reclaiming kinds unlink them mid-batch.
  constexpr Key kUniverse = 4096;
  const Key stride = ~Key{0} / kUniverse;
  for (const char* kind :
       {"fastfair", "fastfair-reclaim", "sharded-fastfair:8",
        "sharded-fastfair-reclaim:4", "hashed-fastfair:8"}) {
    SCOPED_TRACE(kind);
    pm::Pool pool(std::size_t{256} << 20);
    auto merged = MakeIndex(kind, &pool);
    auto classes = MakeIndex(kind, &pool);
    Rng rng(31);
    const auto key = [&](std::uint64_t r) {
      return (r % kUniverse + 1) * stride;
    };
    std::vector<core::Record> puts;
    std::vector<Key> dels, gets;
    for (std::uint64_t round = 1; round <= 400; ++round) {
      const bool filling = round / 50 % 2 == 0;
      // Every seventh batch is long enough to cross the adapters' 64-op
      // route chunks, which then cut through the class spans.
      const std::uint64_t scale = round % 7 == 0 ? 6 : 1;
      puts.resize(rng.NextBounded(scale * (filling ? 20 : 4)));
      dels.resize(rng.NextBounded(scale * (filling ? 4 : 20)));
      gets.resize(rng.NextBounded(scale * 24));
      // Keys cluster in a window of the universe so leaves fill and drain.
      const std::uint64_t base = rng.NextBounded(kUniverse);
      for (auto& p : puts) {
        const Key k = key(base + rng.NextBounded(64));
        p = {k, RoundValue(k, round)};
      }
      for (Key& d : dels) {
        d = !puts.empty() && rng.NextBounded(3) == 0
                ? puts[rng.NextBounded(puts.size())].key
                : key(base + rng.NextBounded(64));
      }
      for (Key& g : gets) {
        const std::uint64_t pick = rng.NextBounded(3);
        if (pick == 0 && !puts.empty()) {
          g = puts[rng.NextBounded(puts.size())].key;
        } else if (pick == 1 && !dels.empty()) {
          g = dels[rng.NextBounded(dels.size())];
        } else {
          g = key(base + rng.NextBounded(64));
        }
      }
      std::vector<InsertStatus> st(puts.size()), want_st(puts.size());
      std::unique_ptr<bool[]> ok(new bool[dels.size() + 1]);
      std::unique_ptr<bool[]> want_ok(new bool[dels.size() + 1]);
      std::vector<Value> vals(gets.size()), want_vals(gets.size());
      merged->PointBatch({puts.data(), puts.size(), st.data(), dels.data(),
                          dels.size(), ok.get(), gets.data(), gets.size(),
                          vals.data()});
      classes->InsertBatch(puts.data(), puts.size(), want_st.data());
      classes->RemoveBatch(dels.data(), dels.size(), want_ok.get());
      classes->SearchBatch(gets.data(), gets.size(), want_vals.data());
      for (std::size_t i = 0; i < puts.size(); ++i) {
        ASSERT_EQ(st[i], want_st[i]) << "round " << round << " put " << i;
      }
      for (std::size_t i = 0; i < dels.size(); ++i) {
        ASSERT_EQ(ok[i], want_ok[i]) << "round " << round << " del " << i;
      }
      for (std::size_t i = 0; i < gets.size(); ++i) {
        ASSERT_EQ(vals[i], want_vals[i]) << "round " << round << " get " << i;
      }
    }
    const std::size_t entries = classes->CountEntries();
    ASSERT_EQ(merged->CountEntries(), entries);
    std::vector<core::Record> a(entries + 1), b(entries + 1);
    ASSERT_EQ(merged->Scan(0, a.size(), a.data()), entries);
    ASSERT_EQ(classes->Scan(0, b.size(), b.data()), entries);
    for (std::size_t i = 0; i < entries; ++i) {
      ASSERT_EQ(a[i].key, b[i].key) << i;
      ASSERT_EQ(a[i].ptr, b[i].ptr) << i;
    }
  }
}

TEST(PointBatch, ChunksShareOneWaveAcrossClasses) {
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool);
  for (Key k = 1; k <= 4000; ++k) tree.Insert(10 * k, ValueFor(10 * k));
  ASSERT_EQ(tree.Height(), 3);

  // 4 Puts + 4 Gets on 8 distinct leaves: one chunk, one wave, one stall.
  // The same ops as class calls pay a wave per class.
  {
    core::Record puts[4];
    Key gets[4];
    InsertStatus st[4];
    Value vals[4];
    for (std::size_t i = 0; i < 4; ++i) {
      puts[i] = {SpacedKey(i) + 5, ValueFor(SpacedKey(i) + 5)};
      gets[i] = SpacedKey(4 + i);
    }
    const auto merged = DeltaOf([&] {
      tree.PointBatch({.puts = puts, .n_puts = 4, .put_out = st,
                       .gets = gets, .n_gets = 4, .get_out = vals});
    });
    EXPECT_EQ(merged.read_stalls, 1u);
    EXPECT_EQ(merged.read_annotations, 8u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(st[i], InsertStatus::kInserted);
      EXPECT_EQ(vals[i], ValueFor(gets[i]));
    }
    const auto classes = DeltaOf([&] {
      tree.InsertBatch(puts, 4, st);
      tree.SearchBatch(gets, 4, vals);
    });
    EXPECT_EQ(classes.read_stalls, 2u);
  }

  // 61 Gets + 2 Puts + 1 Del on 64 distinct leaves: eight chunks, eight
  // stalls, where the class calls pay 1 + 1 + 8.
  {
    const core::Record puts[2] = {{SpacedKey(0) + 3, ValueFor(3)},
                                  {SpacedKey(1) + 3, ValueFor(4)}};
    const Key del = SpacedKey(2);
    Key gets[61];
    for (std::size_t i = 0; i < 61; ++i) gets[i] = SpacedKey(3 + i);
    InsertStatus st[2];
    bool removed = false;
    Value vals[61];
    const auto merged = DeltaOf([&] {
      tree.PointBatch({puts, 2, st, &del, 1, &removed, gets, 61, vals});
    });
    EXPECT_EQ(merged.read_stalls, 8u);
    EXPECT_EQ(merged.read_annotations, 64u);
    EXPECT_TRUE(removed);
    for (std::size_t i = 0; i < 61; ++i) EXPECT_EQ(vals[i], ValueFor(gets[i]));
    tree.Insert(del, ValueFor(del));
    const auto classes = DeltaOf([&] {
      tree.InsertBatch(puts, 2, st);
      tree.RemoveBatch(&del, 1, &removed);
      tree.SearchBatch(gets, 61, vals);
    });
    EXPECT_EQ(classes.read_stalls, 10u);
  }

  // A Get of a leaf an earlier write of its chunk changed fetches it
  // again, and all such Gets of a chunk share one extra grouped stall; a
  // delete of an absent key changes nothing and costs its leaf's Gets
  // nothing. (Key k + 1 lives in the leaf of k.)
  {
    const core::Record put = {SpacedKey(10) + 1, ValueFor(SpacedKey(10) + 1)};
    const Key dels[2] = {SpacedKey(11) + 1, SpacedKey(12)};  // absent, present
    const Key gets[5] = {SpacedKey(10), SpacedKey(11), SpacedKey(12),
                         SpacedKey(13), SpacedKey(14)};
    InsertStatus st;
    bool removed[2];
    Value vals[5];
    const auto d = DeltaOf([&] {
      tree.PointBatch({&put, 1, &st, dels, 2, removed, gets, 5, vals});
    });
    EXPECT_EQ(d.read_stalls, 2u);
    EXPECT_EQ(d.read_annotations, 10u);  // 8 leaves, 2 fetched again
    EXPECT_EQ(st, InsertStatus::kInserted);
    EXPECT_FALSE(removed[0]);
    EXPECT_TRUE(removed[1]);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(vals[i], i == 2 ? kNoValue : ValueFor(gets[i]));
    }
  }

  // Single-class batches keep one stall per chunk.
  {
    Key keys[64];
    core::Record recs[64];
    for (std::size_t i = 0; i < 64; ++i) {
      keys[i] = SpacedKey(i) + 10;
      recs[i] = {keys[i], ValueFor(keys[i])};
    }
    InsertStatus st[64];
    Value vals[64];
    bool removed[64];
    EXPECT_EQ(DeltaOf([&] { tree.InsertBatch(recs, 64, st); }).read_stalls,
              8u);
    EXPECT_EQ(DeltaOf([&] { tree.SearchBatch(keys, 64, vals); }).read_stalls,
              8u);
    EXPECT_EQ(
        DeltaOf([&] { tree.RemoveBatch(keys, 64, removed); }).read_stalls,
        8u);
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(vals[i], ValueFor(keys[i]));
      EXPECT_TRUE(removed[i]);
    }
  }
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(PointBatch, ReadOfALeafUnlinkedInItsChunkDescendsAgain) {
  // The second leaf (keys 140..260 of a 200-key sequential tree) drains
  // to empty and stays linked: each delete locks the leaf it empties, and
  // only a writer holding the left neighbour unlinks it. One chunk then
  // holds a Put into the left leaf, which unlinks the empty one and drops
  // its route, and a Put and a Get of a key the descent wave routed to
  // the empty leaf. The Put re-descends from the dead hint and files its
  // key in the left leaf; the Get must follow it there.
  core::Options opts;
  opts.reclaim_empty_leaves = true;
  pm::Pool pool(std::size_t{64} << 20);
  core::BTree tree(&pool, opts);
  for (Key k = 1; k <= 200; ++k) tree.Insert(10 * k, ValueFor(10 * k));
  ASSERT_EQ(tree.Height(), 2);
  for (Key k = 140; k <= 260; k += 10) ASSERT_TRUE(tree.Remove(k));
  const std::uint64_t leaves = pm::CheckTree(&pool, tree.meta()).leaves;

  const core::Record puts[2] = {{15, ValueFor(15)}, {145, ValueFor(145)}};
  const Key get = 145;
  InsertStatus st[2];
  Value val = kNoValue;
  const auto d = DeltaOf([&] {
    tree.PointBatch({.puts = puts, .n_puts = 2, .put_out = st, .gets = &get,
                     .n_gets = 1, .get_out = &val});
  });
  EXPECT_EQ(pm::CheckTree(&pool, tree.meta()).leaves, leaves - 1);
  EXPECT_EQ(st[0], InsertStatus::kInserted);
  EXPECT_EQ(st[1], InsertStatus::kInserted);
  EXPECT_EQ(val, ValueFor(145));
  // The wave, the Put's re-descent, the Get's re-descent.
  EXPECT_EQ(d.read_stalls, 3u);
  std::string msg;
  EXPECT_TRUE(tree.CheckInvariants(&msg)) << msg;
}

TEST(PointBatch, RacesSplitsAndUnlinks) {
  // Mixed batches against live splits, unlinks and Rebalance(). Each
  // worker owns the keys of its residue, so its batch results are
  // deterministic whatever the other threads do: a Put of a key it does
  // not hold inserts, a Del of a key it holds removes, and a Get sees its
  // own batch's writes — Puts that filled or emptied leaves other ops of
  // the chunk were routed to included. A churn writer splits and drains
  // leaves around the same anchors, and on the range-sharded kind a
  // rebalancer republishes boundaries throughout. Anchors never change.
  for (const char* kind :
       {"fastfair-reclaim", "sharded-fastfair-reclaim:4",
        "hashed-fastfair-reclaim:4"}) {
    SCOPED_TRACE(kind);
    pm::Pool pool(std::size_t{512} << 20);
    auto idx = MakeIndex(kind, &pool);
    auto* sharded = dynamic_cast<ShardedIndex*>(idx.get());
    const Key step = ~Key{0} / 512;
    std::vector<Key> anchors;
    for (Key i = 1; i < 512; ++i) {
      anchors.push_back(i * step);
      idx->Insert(anchors.back(), ValueFor(anchors.back()));
    }
    // Keys of residue r near anchor a: a + 1 + 4 * j + r, j < 256.
    const auto near = [&](race::Rng& rng, Key r) {
      return anchors[rng.Below(anchors.size())] + 1 + 4 * rng.Below(256) + r;
    };
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> violations{0};
    std::thread churn([&] {
      race::Rng rng(2028, 1);
      while (!stop.load(std::memory_order_acquire)) {
        const Key base = anchors[rng.Below(anchors.size())] + 4;
        for (Key j = 0; j < 64; ++j) idx->Insert(base + 4 * j, ValueFor(base));
        race::Perturb(rng);
        for (Key j = 0; j < 64; ++j) idx->Remove(base + 4 * j);
        race::Perturb(rng);
      }
    });
    std::thread rebalancer([&] {
      if (sharded == nullptr) return;
      race::Rng rng(2028, 2);
      while (!stop.load(std::memory_order_acquire)) {
        sharded->Rebalance();
        race::Perturb(rng);
        std::this_thread::yield();
      }
    });
    race::RunWorkers(3, [&](std::size_t w) {
      race::Rng rng(2028, 10 + w);
      std::vector<Key> held;  // this worker's keys in the index
      std::vector<core::Record> puts;
      std::vector<Key> dels, gets;
      std::vector<Value> want;
      std::vector<InsertStatus> st;
      std::vector<Value> vals;
      bool removed[8];
      for (std::uint64_t round = 1; round <= 2000; ++round) {
        puts.clear();
        dels.clear();
        gets.clear();
        want.clear();
        for (std::size_t j = rng.Below(10); j > 0; --j) {
          const Key k = near(rng, w);
          if (std::find(held.begin(), held.end(), k) != held.end()) continue;
          bool dup = false;
          for (const auto& p : puts) dup = dup || p.key == k;
          if (!dup) puts.push_back({k, RoundValue(k, round)});
        }
        for (std::size_t j = rng.Below(8); j > 0 && !held.empty(); --j) {
          const std::size_t at = rng.Below(held.size());
          dels.push_back(held[at]);
          held[at] = held.back();
          held.pop_back();
        }
        for (const auto& p : puts) {
          gets.push_back(p.key);
          want.push_back(p.ptr);
        }
        for (const Key k : dels) {
          gets.push_back(k);
          want.push_back(kNoValue);
        }
        for (std::size_t j = rng.Below(8); j > 0; --j) {
          gets.push_back(anchors[rng.Below(anchors.size())]);
          want.push_back(ValueFor(gets.back()));
        }
        st.resize(puts.size());
        vals.resize(gets.size());
        idx->PointBatch({puts.data(), puts.size(), st.data(), dels.data(),
                         dels.size(), removed, gets.data(), gets.size(),
                         vals.data()});
        std::uint64_t bad = 0;
        for (const InsertStatus s : st) bad += s != InsertStatus::kInserted;
        for (std::size_t j = 0; j < dels.size(); ++j) bad += !removed[j];
        for (std::size_t j = 0; j < gets.size(); ++j) bad += vals[j] != want[j];
        if (bad != 0) violations.fetch_add(bad);
        for (const auto& p : puts) held.push_back(p.key);
        race::Perturb(rng);
      }
    });
    stop.store(true, std::memory_order_release);
    churn.join();
    rebalancer.join();
    EXPECT_EQ(violations.load(), 0u);
    for (const Key a : anchors) ASSERT_EQ(idx->Search(a), ValueFor(a));
  }
}

}  // namespace
}  // namespace fastfair
