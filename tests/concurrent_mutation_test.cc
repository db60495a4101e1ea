// Seeded race-schedule sweeps for always-on maintenance (DESIGN.md §6):
// live writers racing ShardedIndex::Rebalance() boundary migration, and
// live writers racing run-unlinking / drained-range sweeps in the
// reclaiming tree kinds. These are the proof obligations for retiring
// the maintenance-window concept — no quiesced-writer contract remains.
//
// Method (tests/race_sched.h): each seed fully determines every worker's
// op stream and its injected perturbation points, so (a) ~1000 seeds
// explore ~1000 distinct phase alignments between writers and
// maintenance, (b) one failing seed replays with
// FASTFAIR_RACE_SEED=<seed> (the failure message prints the command),
// and (c) the expected final state is exactly computable by replaying
// the streams serially — workers own disjoint key ranges, so the races
// under test are writer-vs-maintenance, not writer-vs-writer (same-key
// writer races are the tree's own linearizability, covered by
// btree_concurrency_test.cc).
//
// Verification per seed is exact, not statistical: a full ordered scan
// must equal the serial-replay model key-for-key value-for-value — no
// lost write, no resurrected key, no stale duplicate copy — and
// CountEntries must agree.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/index.h"
#include "index/sharded.h"
#include "maint/maintenance.h"
#include "maint/tasks.h"
#include "pm/pool.h"
#include "race_sched.h"
#include "test_util.h"

namespace fastfair {
namespace {

using race::Perturb;
using race::Rng;

constexpr std::size_t kWriters = 4;
constexpr std::size_t kOpsPerWriter = 150;
// Dense per-worker key blocks: the whole working set lands in one or two
// shards of a uniform partition, so every Rebalance really migrates it.
constexpr Key kKeysPerWorker = 64;

Key WorkerBase(std::size_t w) {
  return (static_cast<Key>(w) + 1) << 10;
}

/// The seed-determined op stream for worker `w`, fed to `apply(k, insert,
/// value)`. The live worker and the serial replayer both call this — the
/// stream, not the schedule, defines the expected final state.
template <class Apply>
void PlayStream(std::uint64_t seed, std::size_t w, Apply&& apply) {
  Rng rng(seed, w + 1);
  for (std::size_t i = 0; i < kOpsPerWriter; ++i) {
    const Key k = WorkerBase(w) + rng.Below(kKeysPerWorker);
    const bool insert = rng.Chance(65);
    // Unique nonzero value per (worker, op): a stale copy surviving from
    // an earlier upsert of the same key is detected, not masked.
    const Value v = (static_cast<Value>(w + 1) << 40) |
                    (static_cast<Value>(i) << 8) | 1u;
    apply(k, insert, v);
  }
}

/// Serial replay of every worker's stream -> the exact expected state
/// (disjoint ranges make the merge order irrelevant).
std::map<Key, Value> ExpectedState(std::uint64_t seed) {
  std::map<Key, Value> model;
  for (std::size_t w = 0; w < kWriters; ++w) {
    PlayStream(seed, w, [&](Key k, bool insert, Value v) {
      if (insert) {
        model[k] = v;
      } else {
        model.erase(k);
      }
    });
  }
  return model;
}

/// Exact final-state check: ordered scan == model, counts agree. Any
/// mismatch fails with the seed's one-command replay line.
::testing::AssertionResult StateMatches(const Index& idx,
                                        const std::map<Key, Value>& model,
                                        std::uint64_t seed) {
  const auto replay = [seed](const char* what) {
    return ::testing::AssertionFailure()
           << what << " at seed " << seed
           << " — replay: FASTFAIR_RACE_SEED=" << seed
           << " ./build/concurrent_mutation_test";
  };
  auto it = idx.NewScanIterator(Key{0});
  core::Record rec;
  auto want = model.begin();
  Key prev = 0;
  bool first = true;
  while (it->Next(&rec)) {
    if (!first && rec.key <= prev) {
      return replay("duplicate/unsorted scan key") << " key=" << rec.key;
    }
    first = false;
    prev = rec.key;
    if (want == model.end() || rec.key != want->first) {
      // Discriminate the failure class: a routed Search that also finds
      // the key means a resurrected entry in its home shard; a Search
      // miss means a stale copy stranded in a wrong shard (phase 3 /
      // sweep missed it).
      return replay("unexpected key in scan")
             << " key=" << rec.key << " value=" << rec.ptr
             << " routed_search=" << idx.Search(rec.key);
    }
    if (rec.ptr != want->second) {
      return replay("stale value") << " key=" << rec.key << " got=" << rec.ptr
                                   << " want=" << want->second;
    }
    ++want;
  }
  if (want != model.end()) {
    return replay("lost key") << " key=" << want->first;
  }
  if (idx.CountEntries() != model.size()) {
    return replay("CountEntries mismatch");
  }
  return ::testing::AssertionSuccess();
}

std::unique_ptr<ShardedIndex> MakeSharded(pm::Pool* pool, std::size_t shards,
                                          const std::string& inner) {
  return std::make_unique<ShardedIndex>(
      "sharded-" + inner, shards,
      [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
}

// --- writers vs Rebalance() ------------------------------------------------

void RunWriterVsRebalanceSeed(const std::string& inner, std::uint64_t seed) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeSharded(&pool, 4, inner);
  // Workers + one rebalancer, all through one start line so the migration
  // window really overlaps the write burst.
  race::RunWorkers(kWriters + 1, [&](std::size_t w) {
    if (w == kWriters) {
      // The rebalancer: a seed-derived warmup desynchronizes the window's
      // position within the burst across seeds, then two back-to-back
      // rebalances (the second migrates what the first's quantiles
      // missed and exercises boundary-buffer reuse under load).
      Rng rng(seed, 0);
      volatile std::uint64_t sink = 0;
      const std::uint64_t warm = rng.Below(20000);
      for (std::uint64_t i = 0; i < warm; ++i) sink = sink + i;
      idx->Rebalance();
      idx->Rebalance();
      return;
    }
    Rng rng(seed, w + 100);  // perturbation stream, distinct from the ops
    PlayStream(seed, w, [&](Key k, bool insert, Value v) {
      if (insert) {
        idx->Insert(k, v);
      } else {
        idx->Remove(k);
      }
      Perturb(rng);
    });
  });
  // Post-race rebalance from a quiesced state: boundaries settle on the
  // final occupancy, and the exact-state scan below also proves phase 3
  // left no stale copies behind.
  idx->Rebalance();
  EXPECT_TRUE(StateMatches(*idx, ExpectedState(seed), seed));
}

class WriterVsRebalance : public ::testing::TestWithParam<std::string> {};

TEST_P(WriterVsRebalance, SeededScheduleSweep) {
  const auto seeds = race::SweepSeeds(300, 0x5eed0000);
  for (const std::uint64_t seed : seeds) {
    RunWriterVsRebalanceSeed(GetParam(), seed);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[race_sched] failing seed %llu — replay: "
                   "FASTFAIR_RACE_SEED=%llu ./build/concurrent_mutation_test "
                   "--gtest_filter='*WriterVsRebalance*'\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, WriterVsRebalance,
                         ::testing::Values("fastfair", "fastfair-reclaim"));

// --- writers vs run-unlinking + drained-range sweep ------------------------

// Churn stream tuned to drain leaves: each worker cycles bursts of
// consecutive-key inserts followed by deletes of a prior burst, so empty
// leaves keep appearing for TryUnlinkEmptySibling (foreground, from every
// worker at once) and SweepDrainedRanges (the always-on maintenance
// thread) to race over; re-inserts land in just-drained ranges, the
// resurrection race the split/unlink interlock exists for.
template <class Apply>
void PlayChurnStream(std::uint64_t seed, std::size_t w, Apply&& apply) {
  Rng rng(seed, w + 1);
  const Key base = (static_cast<Key>(w) + 1) << 20;
  constexpr Key kBurst = 48;  // > one leaf of consecutive keys
  constexpr std::size_t kBursts = 6;
  for (std::size_t b = 0; b < kBursts; ++b) {
    const Key lo = base + static_cast<Key>(rng.Below(4)) * kBurst;
    for (Key k = lo; k < lo + kBurst; ++k) {
      // Value encodes (worker, burst, key): a failure shows exactly which
      // burst's insert survived when it should not have.
      apply(k, true,
            (static_cast<Value>(w + 1) << 40) |
                (static_cast<Value>(b) << 32) | (k << 4) | 1u);
    }
    // Delete most of the burst (sometimes all of it): full drains unlink,
    // partial drains leave sparse leaves for the next burst to refill.
    const Key keep = rng.Chance(50) ? 0 : 1 + rng.Below(3);
    for (Key k = lo + kBurst; k-- > lo + keep;) {
      apply(k, false, 0);
    }
  }
}

void RunWriterVsUnlinkSeed(const std::string& kind, std::uint64_t seed) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex(kind, &pool);
  // Always-on maintenance: started before the writers, stopped after —
  // no window, the sweep races every burst.
  maint::TaskOptions topts;
  auto mt = maint::MakeMaintenanceThread(&pool, {idx.get()}, topts,
                                         std::chrono::microseconds(50));
  mt->Start();
  race::RunWorkers(kWriters, [&](std::size_t w) {
    Rng rng(seed, w + 100);
    PlayChurnStream(seed, w, [&](Key k, bool insert, Value v) {
      if (insert) {
        idx->Insert(k, v);
      } else {
        idx->Remove(k);
      }
      Perturb(rng);
    });
  });
  mt->Stop();
  mt->RunPass();  // converge the sweeps deterministically before checking

  std::map<Key, Value> model;
  for (std::size_t w = 0; w < kWriters; ++w) {
    PlayChurnStream(seed, w, [&](Key k, bool insert, Value v) {
      if (insert) {
        model[k] = v;
      } else {
        model.erase(k);
      }
    });
  }
  EXPECT_TRUE(StateMatches(*idx, model, seed));
}

class WriterVsUnlink : public ::testing::TestWithParam<std::string> {};

TEST_P(WriterVsUnlink, SeededScheduleSweep) {
  const auto seeds = race::SweepSeeds(250, 0x5eed8000);
  for (const std::uint64_t seed : seeds) {
    RunWriterVsUnlinkSeed(GetParam(), seed);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[race_sched] failing seed %llu — replay: "
                   "FASTFAIR_RACE_SEED=%llu ./build/concurrent_mutation_test "
                   "--gtest_filter='*WriterVsUnlink*'\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, WriterVsUnlink,
                         ::testing::Values("fastfair-reclaim",
                                           "hashed-fastfair-reclaim:4",
                                           "sharded-fastfair-reclaim:4"));

// --- front deletes vs lock-free readers ------------------------------------

// One writer drains a preloaded range from its smallest key up, so most of
// its deletes ghost a leaf's first live record and the rest shift past an
// anchor, and it re-puts drained keys below the live ones: the key just
// drained, written into the last ghost and drained again, and now and then
// an older one, which stays. Lock-free readers meanwhile Search the
// anchors (every kAnchorEvery-th key, never deleted) and Scan across the
// drained region: every anchor is always found, and every scan ascends
// with FrontValue values and holds every anchor it passes.
constexpr Key kFrontLo = 1 << 12;
constexpr Key kFrontKeys = 4000;
constexpr Key kFrontDrained = 3000;  // keys the writer drains
constexpr Key kAnchorEvery = 16;
constexpr std::size_t kFrontReaders = 2;

bool IsAnchor(Key k) { return k % kAnchorEvery == 0; }
Value FrontValue(Key k) { return 2 * k + 1; }

/// The writer's seed-determined stream, fed to `apply(k, insert)`.
template <class Apply>
void PlayFrontStream(std::uint64_t seed, Apply&& apply) {
  Rng rng(seed, 0);
  for (Key k = kFrontLo; k < kFrontLo + kFrontDrained; ++k) {
    if (IsAnchor(k)) continue;
    apply(k, false);
    if (rng.Chance(15)) {
      apply(k, true);
      apply(k, false);
    }
    const Key back = k - 1 - rng.Below(6);
    if (rng.Chance(5) && !IsAnchor(back) && back >= kFrontLo) {
      apply(back, true);
    }
  }
}

/// Checks one reader scan of `n` records from `from`: ascending, in range,
/// FrontValue values, and every anchor between `from` and its last key
/// present (through the end of the range when it ran out).
bool ScanIsSound(const core::Record* out, std::size_t n, std::size_t cap,
                 Key from) {
  std::size_t anchors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i].key < from || (i > 0 && out[i].key <= out[i - 1].key) ||
        out[i].ptr != FrontValue(out[i].key)) {
      return false;
    }
    anchors += IsAnchor(out[i].key);
  }
  const Key last = n == cap ? out[n - 1].key : kFrontLo + kFrontKeys - 1;
  return anchors == last / kAnchorEvery - (from - 1) / kAnchorEvery;
}

void RunFrontDeleteSeed(const std::string& kind, std::uint64_t seed) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex(kind, &pool);
  std::vector<Key> anchors;
  for (Key k = kFrontLo; k < kFrontLo + kFrontKeys; ++k) {
    idx->Insert(k, FrontValue(k));
    if (IsAnchor(k)) anchors.push_back(k);
  }
  std::atomic<bool> drained{false};
  std::atomic<int> lost{0}, bad_scans{0};
  race::RunWorkers(1 + kFrontReaders, [&](std::size_t w) {
    Rng rng(seed, w + 100);
    if (w == 0) {
      PlayFrontStream(seed, [&](Key k, bool insert) {
        if (insert) {
          idx->Insert(k, FrontValue(k));
        } else {
          idx->Remove(k);
        }
        Perturb(rng);
      });
      drained.store(true, std::memory_order_release);
      return;
    }
    constexpr std::size_t kCap = 48;
    core::Record out[kCap];
    while (!drained.load(std::memory_order_acquire)) {
      const Key a = anchors[rng.Below(anchors.size())];
      if (idx->Search(a) != FrontValue(a)) {
        lost.fetch_add(1, std::memory_order_relaxed);
      }
      const Key from = kFrontLo + rng.Below(kFrontDrained);
      if (!ScanIsSound(out, idx->Scan(from, kCap, out), kCap, from)) {
        bad_scans.fetch_add(1, std::memory_order_relaxed);
      }
      Perturb(rng);
    }
  });
  EXPECT_EQ(lost.load(), 0) << "anchor searches missed at seed " << seed;
  EXPECT_EQ(bad_scans.load(), 0) << "unsound scans at seed " << seed;

  std::map<Key, Value> model;
  for (Key k = kFrontLo; k < kFrontLo + kFrontKeys; ++k) {
    model[k] = FrontValue(k);
  }
  PlayFrontStream(seed, [&](Key k, bool insert) {
    if (insert) {
      model[k] = FrontValue(k);
    } else {
      model.erase(k);
    }
  });
  EXPECT_TRUE(StateMatches(*idx, model, seed));
}

class FrontDeleteVsReaders : public ::testing::TestWithParam<std::string> {};

TEST_P(FrontDeleteVsReaders, SeededScheduleSweep) {
  const auto seeds = race::SweepSeeds(40, 0x5eedf000);
  for (const std::uint64_t seed : seeds) {
    RunFrontDeleteSeed(GetParam(), seed);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[race_sched] failing seed %llu — replay: "
                   "FASTFAIR_RACE_SEED=%llu ./build/concurrent_mutation_test "
                   "--gtest_filter='*FrontDeleteVsReaders*'\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(seed));
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, FrontDeleteVsReaders,
                         ::testing::Values("fastfair", "fastfair-reclaim"));

}  // namespace
}  // namespace fastfair
