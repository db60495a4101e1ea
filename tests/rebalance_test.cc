// Tests for ShardedIndex's skew instrumentation and boundary rebalancing
// (DESIGN.md §4.3): live per-shard counters, quantile boundary recomputation,
// migration losing zero keys, the copy→publish→delete protocol staying
// read-consistent under concurrent readers, and the migration's removes
// actually freeing the moved-out nodes through the PR-2 reclaimer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/index.h"
#include "index/sharded.h"
#include "maint/tasks.h"
#include "pm/persist.h"
#include "pm/pool.h"

namespace fastfair {
namespace {

// Keys clustered into the bottom 1/64 of the key space: under the uniform
// fixed-point partition every key lands in shard 0.
Key ClusteredKey(std::uint64_t i) { return (i + 1) << 32; }

std::unique_ptr<ShardedIndex> MakeSharded(pm::Pool* pool, std::size_t shards,
                                          const char* inner = "fastfair") {
  return std::make_unique<ShardedIndex>(
      "sharded", shards,
      [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
}

TEST(ShardedRebalance, ApproxCountersTrackSkew) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeSharded(&pool, 4);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    idx->Insert(ClusteredKey(i), i + 1);
  }
  const auto approx = idx->ApproxShardEntries();
  ASSERT_EQ(approx.size(), 4u);
  EXPECT_EQ(approx[0], 3000u) << "clustered keys pile onto shard 0";
  EXPECT_EQ(approx[1] + approx[2] + approx[3], 0u);
  EXPECT_GT(ImbalanceRatio(approx), 2.0);
  // Approximate counters track removes too.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(idx->Remove(ClusteredKey(i)));
  }
  EXPECT_EQ(idx->ApproxShardEntries()[0], 2000u);
  // The exact per-shard counts agree at quiescence.
  EXPECT_EQ(idx->ShardEntryCounts()[0], 2000u);
}

TEST(ShardedRebalance, RebalanceMovesQuantilesAndLosesNoKeys) {
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeSharded(&pool, 8);
  std::map<Key, Value> model;
  Rng rng(41);
  // Zipf-ish clustering: exponentially denser toward low keys.
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const Key k = ClusteredKey(rng.NextBounded(1u << (8 + i % 24)));
    idx->Insert(k, k + 9);
    model[k] = k + 9;
  }
  const double before = ImbalanceRatio(idx->ShardEntryCounts());
  EXPECT_GT(before, 2.0) << "workload must actually be skewed";

  const auto result = idx->Rebalance();
  EXPECT_GT(result.moved, 0u);
  EXPECT_DOUBLE_EQ(result.imbalance_before, before);
  EXPECT_LT(result.imbalance_after, 2.0);

  // Acceptance: measured (not just computed) post-migration balance.
  const auto counts = idx->ShardEntryCounts();
  EXPECT_LT(ImbalanceRatio(counts), 2.0);
  // Zero lost keys, zero duplicates, values intact, scans globally sorted.
  EXPECT_EQ(idx->CountEntries(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(idx->Search(k), v) << "key " << k;
  }
  auto it = idx->NewScanIterator(0);
  core::Record rec;
  auto mit = model.begin();
  while (it->Next(&rec)) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(rec.key, mit->first);
    ++mit;
  }
  EXPECT_EQ(mit, model.end());
  // A second rebalance on balanced data is a near no-op.
  const auto again = idx->Rebalance();
  EXPECT_LT(again.imbalance_after, 2.0);
  EXPECT_EQ(idx->CountEntries(), model.size());
}

TEST(ShardedRebalance, UniformPartitionSurvivesRebalanceOfUniformKeys) {
  // Rebalancing an already-balanced (uniform-key) index must not degrade
  // it: boundaries become explicit quantiles, everything stays findable.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeSharded(&pool, 4);
  Rng rng(43);
  std::vector<Key> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(rng.Next() | 1);
    idx->Insert(keys.back(), keys.back() + 1);
  }
  const auto result = idx->Rebalance();
  EXPECT_LT(result.imbalance_after, 2.0);
  EXPECT_EQ(idx->CountEntries(), keys.size());
  for (const Key k : keys) ASSERT_EQ(idx->Search(k), k + 1);
}

TEST(ShardedRebalance, MigrationFreesMovedNodesAndBoundsMemory) {
  // The acceptance question for the pm interaction: does migration memory
  // come back? Inner kind fastfair-reclaim => the phase-3 removes unlink
  // the drained leaves and free them through the pool free lists; repeated
  // skew→rebalance cycles must then plateau instead of exhausting the pool
  // (same shape as bench_micro_churn's gate).
  pm::Pool pool(std::size_t{24} << 20);  // deliberately small
  auto idx = MakeSharded(&pool, 4, "fastfair-reclaim");
  constexpr std::uint64_t kN = 20000;
  pm::ResetStats();
  const pm::ThreadStats start = pm::Stats();
  std::size_t used_after_first = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    // Re-skew: this cycle's keys cluster in a fresh slice of the key space
    // (cycle in the high bits), so every cycle's quantiles differ and the
    // migration really moves entries.
    for (std::uint64_t i = 0; i < kN; ++i) {
      idx->Insert((static_cast<Key>(cycle + 1) << 40) + (i << 8), i + 1);
    }
    const auto result = idx->Rebalance();
    ASSERT_LT(result.imbalance_after, 2.0) << "cycle " << cycle;
    ASSERT_EQ(idx->CountEntries(), kN) << "cycle " << cycle;
    // Drop this cycle's entries so the next one starts fresh (descending:
    // kind to the run-unlinker, as in Rebalance itself).
    for (std::uint64_t i = kN; i-- > 0;) {
      ASSERT_TRUE(idx->Remove((static_cast<Key>(cycle + 1) << 40) + (i << 8)));
    }
    if (cycle == 0) used_after_first = pool.used();
  }
  const pm::ThreadStats delta = pm::Stats() - start;
  EXPECT_GT(delta.frees, 0u) << "migration must free moved-out nodes";
  EXPECT_GT(delta.recycles, 0u) << "freed nodes must actually be reused";
  // used() is chunk-granular, so allow slack, but eight cycles of full
  // churn must not grow the reservation by more than ~2x the first
  // cycle's: the reclaimer, not the bump pointer, feeds later cycles.
  EXPECT_LE(pool.used(), used_after_first * 2)
      << "pool reservation must plateau across rebalance cycles";
}

TEST(ShardedRebalance, ConcurrentReadersNeverMissKeysDuringRebalance) {
  // The copy→publish→delete protocol's claim: a reader routed by either
  // boundary set always finds its key. Readers hammer Search over the
  // whole key set while Rebalance migrates most of it.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeSharded(&pool, 8);  // inner fastfair: lock-free readers
  constexpr std::uint64_t kN = 30000;
  std::vector<Key> keys;
  keys.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    keys.push_back(ClusteredKey(i * 3));
    idx->Insert(keys.back(), keys.back() + 5);
  }
  ASSERT_GT(ImbalanceRatio(idx->ShardEntryCounts()), 2.0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = keys[rng.NextBounded(kN)];
        const Value v = idx->Search(k);
        ASSERT_EQ(v, k + 5) << "reader lost key " << k << " mid-rebalance";
        ++n;
      }
      lookups.fetch_add(n);
    });
  }
  const auto result = idx->Rebalance();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(result.moved, 0u);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_LT(ImbalanceRatio(idx->ShardEntryCounts()), 2.0);
  EXPECT_EQ(idx->CountEntries(), kN);
}

TEST(ShardedRebalance, StopMidRebalanceLosesNoKeys) {
  // Maintenance shutdown race: StopMaintenance() while the policy task's
  // rebalance quantum is mid-migration. The scheduler interrupts between
  // quanta, never inside one — the in-flight copy→publish→delete protocol
  // always completes — so no timing of Stop() may lose a key. Sweep the
  // stop delay from "before the policy ever fires" to "long after it
  // finished" to land on every phase of the migration across trials.
  constexpr std::uint64_t kN = 30000;
  const int delays_us[] = {0, 50, 200, 1000, 5000, 20000};
  for (const int delay_us : delays_us) {
    pm::Pool pool(std::size_t{1} << 30);
    auto idx = MakeSharded(&pool, 8);
    for (std::uint64_t i = 0; i < kN; ++i) {
      idx->Insert(ClusteredKey(i), i + 1);
    }
    ASSERT_GT(ImbalanceRatio(idx->ShardEntryCounts()), 2.0);

    maint::TaskOptions topts;
    topts.rebalance_threshold = 1.2;
    std::vector<std::unique_ptr<maint::MaintenanceTask>> tasks;
    idx->CollectMaintenanceTasks(topts, &tasks);
    maint::MaintenanceThread::Options mo;
    mo.interval = std::chrono::microseconds(50);
    maint::MaintenanceThread mt(mo);
    for (auto& t : tasks) mt.AddTask(std::move(t));
    mt.Start();
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    mt.Stop();  // joins; a mid-migration quantum completes first

    // Zero lost keys whether the rebalance never started, was cut short
    // between quanta, or completed.
    EXPECT_EQ(idx->CountEntries(), kN) << "delay " << delay_us << "us";
    for (std::uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(idx->Search(ClusteredKey(i)), i + 1)
          << "delay " << delay_us << "us lost key " << i;
    }
  }
}

TEST(ShardedRebalance, ScanIteratorOutlivesRebalance) {
  // An open ScanIterator pins its epoch for its whole lifetime, and
  // Rebalance's entry grace period waits on every pin: a Rebalance issued
  // mid-scan therefore parks until the snapshot drains, and the iterator
  // observes the pristine pre-migration state — every key exactly once, in
  // global order, with its original value. No maintenance window, no
  // iterator invalidation.
  pm::Pool pool(std::size_t{1} << 30);
  auto idx = MakeSharded(&pool, 8, "fastfair-reclaim");
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    idx->Insert(ClusteredKey(i), i + 7);
  }
  ASSERT_GT(ImbalanceRatio(idx->ShardEntryCounts()), 2.0);

  auto it = idx->NewScanIterator(0);
  core::Record rec;
  std::uint64_t seen = 0;
  for (; seen < kN / 3; ++seen) {  // partially consumed when Rebalance lands
    ASSERT_TRUE(it->Next(&rec));
    ASSERT_EQ(rec.key, ClusteredKey(seen));
    ASSERT_EQ(rec.ptr, seen + 7);
  }

  std::atomic<bool> done{false};
  ShardedIndex::RebalanceResult result;
  std::thread reb([&] {
    result = idx->Rebalance();
    done.store(true, std::memory_order_release);
  });
  // The rebalance must park at its entry grace period while the snapshot
  // is open (deterministic: the pin is held right now, so `done` cannot
  // flip until the iterator drains — the sleep only gives the thread time
  // to reach the wait).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load(std::memory_order_acquire))
      << "Rebalance completed while a pinned snapshot was open";

  for (; it->Next(&rec); ++seen) {  // drain: the untouched snapshot
    ASSERT_EQ(rec.key, ClusteredKey(seen));
    ASSERT_EQ(rec.ptr, seen + 7);
  }
  EXPECT_EQ(seen, kN);
  it.reset();  // exhausted Next() already dropped the pin; destruction too

  reb.join();
  EXPECT_TRUE(done.load());
  EXPECT_GT(result.moved, 0u);
  EXPECT_LT(result.imbalance_after, 2.0);
  EXPECT_EQ(idx->CountEntries(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(idx->Search(ClusteredKey(i)), i + 7);
  }
}

TEST(ShardedRebalance, ExplicitBoundaryIndexRebalancesToo) {
  // TPC-C-style: constructed with explicit boundaries, rebalanced when the
  // observed distribution disagrees with them.
  pm::Pool pool(std::size_t{1} << 30);
  ShardedIndex idx(
      "sharded", std::vector<Key>{1000, 2000, 3000},
      [&pool](std::size_t) { return MakeIndex("fastfair", &pool); });
  for (Key k = 1; k <= 900; ++k) idx.Insert(k, k + 1);  // all in shard 0
  EXPECT_EQ(idx.ShardEntryCounts()[0], 900u);
  const auto result = idx.Rebalance();
  EXPECT_LT(result.imbalance_after, 2.0);
  EXPECT_EQ(idx.CountEntries(), 900u);
  for (Key k = 1; k <= 900; ++k) ASSERT_EQ(idx.Search(k), k + 1);
}

}  // namespace
}  // namespace fastfair
