// google-benchmark microbenchmarks for the core primitives: node-level
// FAST operations, pool allocation, flush/fence costs, and point ops on
// the assembled tree — scalar and batched (SearchBatch/InsertBatch,
// DESIGN.md §8). Complements the figure harnesses with statistically-sound
// per-op numbers.
//
// Custom main (not benchmark_main): strips a `--json=<path>` flag before
// handing the rest to google-benchmark and, when given, emits every run as
// one JSON object per benchmark — items/sec plus the pm counter rates
// (flush/fence/read-annotation/read-stall per op) the perf trajectory
// tracks. BENCH_micro_ops.json at the repo root is the committed baseline;
// the CI perf-smoke job regenerates it as a build artifact and gates on
// the deterministic counter ratios: BM_TreeSearchBatch must pay >= 2x fewer
// serialized read stalls per op than BM_TreeSearch, BM_TreeScanBatch and
// BM_TreeScanBatchOne (a batch of one scan) >= 2x fewer per scan than the
// scalar BM_TreeScan100 loop, and the index-tier BM_IndexSearchBatch >= 2x
// fewer than BM_IndexSearch, and BM_IndexPointBatch (mixed-class batches
// as one Index::PointBatch) fewer than BM_IndexPointBatchByClass (the same
// ops as three class calls). BM_TreeRemoveFront (deletes of the smallest
// key) must flush at most one line per op. Two wall-time rows run
// kGateRepetitions times and the gate reads their medians: the bare
// BM_NodeSimdSearch must take at most 0.6x BM_NodeLinearSearch; a repeated
// row's JSON entry is its median run. BM_TreeScanBatch64 (the index
// tier's 64-op route chunk per call), BM_IndexSearchOne (BM_IndexSearch's
// lookups as batches of one), BM_TreeRemove (random deletes) and the
// index-tier hashed scan rows (BM_IndexScan, BM_IndexScanBatch) are
// trajectory only.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "common/simd.h"
#include "core/btree.h"
#include "core/mem_policy.h"
#include "core/node_ops.h"
#include "core/node_search_simd.h"
#include "index/index.h"
#include "index/sharded.h"

namespace {

using namespace fastfair;
using NodeT = core::Node<512>;
using Ops = core::NodeOps<NodeT, core::RealMem>;

/// Runs of each row the wall-time SIMD gate compares: it reads their
/// medians, since one run of either row swings with the host.
constexpr int kGateRepetitions = 5;

/// Publishes this run's pm-counter deltas as per-op benchmark counters
/// (google-benchmark folds them into the report; the JSON emitter and the
/// stall gate read them back). Call after the state loop.
void SetPmCounters(benchmark::State& state, const pm::ThreadStats& delta,
                   double ops) {
  if (ops <= 0) return;
  state.counters["flush_per_op"] =
      static_cast<double>(delta.flush_lines) / ops;
  state.counters["fence_per_op"] = static_cast<double>(delta.fences) / ops;
  state.counters["pm_reads_per_op"] =
      static_cast<double>(delta.read_annotations) / ops;
  state.counters["read_stalls_per_op"] =
      static_cast<double>(delta.read_stalls) / ops;
}

void BM_NodeInsertAscending(benchmark::State& state) {
  alignas(64) NodeT node;
  core::RealMem m;
  pm::SetConfig(pm::Config{});
  Key k = 0;
  node.Init(0);
  for (auto _ : state) {
    if (k % NodeT::kCapacity == 0) node.Init(0);
    Ops::InsertKey(m, &node, k % NodeT::kCapacity + 1, k + 1);
    k += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NodeInsertAscending);

void BM_NodeInsertWorstCaseShift(benchmark::State& state) {
  alignas(64) NodeT node;
  core::RealMem m;
  pm::SetConfig(pm::Config{});
  std::uint64_t round = 0;
  node.Init(0);
  int filled = 0;
  for (auto _ : state) {
    if (filled == NodeT::kCapacity) {
      node.Init(0);
      filled = 0;
      ++round;
    }
    // Descending keys force a full shift each time.
    Ops::InsertKey(m, &node,
                   static_cast<Key>(NodeT::kCapacity - filled),
                   round * 1000 + static_cast<Value>(filled) + 1);
    ++filled;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NodeInsertWorstCaseShift);

void BM_NodeLinearSearch(benchmark::State& state) {
  alignas(64) NodeT node;
  core::RealMem m;
  pm::SetConfig(pm::Config{});
  node.Init(0);
  for (int i = 0; i < NodeT::kCapacity; ++i) {
    Ops::InsertKey(m, &node, static_cast<Key>(2 * i + 2), static_cast<Value>(i) + 1);
  }
  Key k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ops::SearchLeaf(m, &node, k));
    k = k % (2 * NodeT::kCapacity) + 2;
  }
}
BENCHMARK(BM_NodeLinearSearch)->Repetitions(kGateRepetitions);

// Same node state and probe sequence as BM_NodeLinearSearch, but through
// the SIMD leaf-search path for a given ISA. Registered once per supported
// vector ISA (BM_NodeSimdSearch/<isa>) plus a bare BM_NodeSimdSearch row on
// the best one — the row the 0.6x-vs-linear gate and CI perf-smoke read.
void BM_NodeSimdSearch(benchmark::State& state, simd::Isa isa) {
  using Simd = core::SimdNodeOps<NodeT, core::RealMem>;
  alignas(64) NodeT node;
  core::RealMem m;
  pm::SetConfig(pm::Config{});
  node.Init(0);
  for (int i = 0; i < NodeT::kCapacity; ++i) {
    Ops::InsertKey(m, &node, static_cast<Key>(2 * i + 2),
                   static_cast<Value>(i) + 1);
  }
  const auto leaf_fn = Simd::LeafSearchFor(isa);
  Key k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(leaf_fn(m, &node, k));
    k = k % (2 * NodeT::kCapacity) + 2;
  }
}

void BM_NodeBinarySearch(benchmark::State& state) {
  alignas(64) NodeT node;
  core::RealMem m;
  pm::SetConfig(pm::Config{});
  node.Init(0);
  for (int i = 0; i < NodeT::kCapacity; ++i) {
    Ops::InsertKey(m, &node, static_cast<Key>(2 * i + 2), static_cast<Value>(i) + 1);
  }
  Key k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ops::BinarySearchLeaf(m, &node, k));
    k = k % (2 * NodeT::kCapacity) + 2;
  }
}
BENCHMARK(BM_NodeBinarySearch);

void BM_PoolAlloc(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{2} << 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Alloc(512));
    if (pool.used() > (std::size_t{2} << 30) - 4096) {
      state.PauseTiming();
      pool.Reset();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_PoolAlloc);

void BM_PersistLine(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  alignas(64) char buf[64];
  for (auto _ : state) {
    buf[0] += 1;
    pm::Persist(buf, 64);
  }
}
BENCHMARK(BM_PersistLine);

// The insert rows grow their tree inside the timed loop, so their flush
// and fence counts per insert depend on how many inserts ran. Each fixes
// its op count with ->Iterations(n) instead of letting wall time pick it,
// which makes those counters exact from run to run.
void BM_TreeInsert(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  Rng rng(1);
  const auto before = pm::Stats();
  for (auto _ : state) {
    const Key k = rng.Next() | 1;
    tree.Insert(k, 2 * k + 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeInsert)->Iterations(300000);

// Tree-level appends: each key above every key before it, the put pattern
// of a sliding-window workload (bench_e2e's write-churn). Every insert
// lands in the rightmost leaf, and each full leaf splits with the new key
// carried into its sibling.
void BM_TreeInsertAscending(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  Key k = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    ++k;
    tree.Insert(k, 2 * k + 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeInsertAscending)->Iterations(300000);

void BM_TreeInsertBatch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  constexpr std::size_t kBatch = 256;
  core::Record ops[kBatch];
  Rng rng(1);
  const auto before = pm::Stats();
  for (auto _ : state) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      const Key k = rng.Next() | 1;
      ops[j] = {k, 2 * k + 1};
    }
    tree.InsertBatch(ops, kBatch);
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}
BENCHMARK(BM_TreeInsertBatch)->Iterations(1000);

// Tree-level deletes of the smallest key, upward through an ascending
// preload: the delete pattern of a sliding-window workload (bench_e2e's
// write-churn). Each turns the leaf's first live record into a ghost with
// one line persisted, or empties the leaf; the gate in main() holds it to
// at most one flushed line per op.
void BM_TreeRemoveFront(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto n = static_cast<Key>(state.max_iterations);
  for (Key k = 1; k <= n; ++k) tree.Insert(k, 2 * k + 1);
  Key k = 0;
  const auto before = pm::Stats();
  for (auto _ : state) benchmark::DoNotOptimize(tree.Remove(++k));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeRemoveFront)->Iterations(300000);

// Deletes of preloaded keys in random order: half of a uniform preload.
// Trajectory only, no gate.
void BM_TreeRemove(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(2 * state.max_iterations, 5);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  std::size_t i = 0;
  const auto before = pm::Stats();
  for (auto _ : state) benchmark::DoNotOptimize(tree.Remove(keys[i++]));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeRemove)->Iterations(200000);

void BM_TreeSearch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  std::size_t i = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Search(keys[i]));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeSearch);

// Absent-key lookups on the BM_TreeSearch tree. UniformKeys draws distinct
// keys from a seeded stream, so its first 200000 keys are exactly that
// tree's and the next 200000 are never inserted: every probe descends to a
// random leaf and misses there, the path a vector reader hands to the
// scalar one (DESIGN.md §9.2). Trajectory only, no gate.
void BM_TreeSearchMiss(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  constexpr std::size_t kLoaded = 200000;
  const auto keys = bench::UniformKeys(2 * kLoaded, 3);
  for (std::size_t j = 0; j < kLoaded; ++j) tree.Insert(keys[j], 2 * keys[j] + 1);
  std::size_t i = kLoaded;
  const auto before = pm::Stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Search(keys[i]));
    i = i + 1 < keys.size() ? i + 1 : kLoaded;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeSearchMiss);

void BM_TreeSearchBatch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  constexpr std::size_t kBatch = 1024;
  std::vector<Value> vals(kBatch);
  std::size_t off = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    if (off + kBatch > keys.size()) off = 0;
    tree.SearchBatch(keys.data() + off, kBatch, vals.data());
    benchmark::DoNotOptimize(vals.data());
    off += kBatch;
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}
BENCHMARK(BM_TreeSearchBatch);

void BM_TreeScan100(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  core::Record out[100];
  Rng rng(7);
  const auto before = pm::Stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Scan(rng.Next(), 100, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeScan100);

// Same workload as BM_TreeScan100 — 100-record scans from random starts —
// but `batch` scans per ScanBatch call: grouped descents to the start
// leaves plus interleaved leaf-chain drains, so the batch pays one grouped
// read stall per wave of sibling hops where the scalar loop pays one per
// hop per scan.
void TreeScanBatch(benchmark::State& state, std::size_t batch) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  constexpr std::size_t kScanLen = 100;
  std::vector<core::Record> out(batch * kScanLen);
  std::vector<ScanOp> ops(batch);
  std::vector<std::size_t> counts(batch);
  Rng rng(7);
  const auto before = pm::Stats();
  for (auto _ : state) {
    for (std::size_t j = 0; j < batch; ++j) {
      ops[j] = {rng.Next(), kScanLen, out.data() + j * kScanLen};
    }
    tree.ScanBatch(ops.data(), batch, counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}

// kBatchGroup scans per call, one window's worth. The perf-smoke gate reads
// this row's read_stalls_per_op against BM_TreeScan100's (>= 2x apart,
// deterministic counters).
void BM_TreeScanBatch(benchmark::State& state) {
  TreeScanBatch(state, core::BTree::kBatchGroup);
}
BENCHMARK(BM_TreeScanBatch);

// 64 scans per call, the index tier's route chunk: the rolling window
// admits the next scan into each finished scan's slot, so the call
// approaches one stall per kBatchGroup leaf visits (DESIGN.md §8.2b).
// Trajectory only, no gate.
void BM_TreeScanBatch64(benchmark::State& state) {
  TreeScanBatch(state, detail::kRouteChunk);
}
BENCHMARK(BM_TreeScanBatch64);

// BM_TreeScan100's tree and starts, one scan per ScanBatch call: a lone
// scan has no group to share a wave with, so what it saves over the scalar
// loop comes from the parent-routed lookahead alone — the wave that
// fetches its start leaf also fetches the next leaves its level-1 parent
// routes to, one stall per scan (DESIGN.md §8.2b). The perf-smoke gate
// reads this row against BM_TreeScan100 too.
void BM_TreeScanBatchOne(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  core::Record out[100];
  Rng rng(7);
  const auto before = pm::Stats();
  for (auto _ : state) {
    const ScanOp op{rng.Next(), 100, out};
    std::size_t count = 0;
    tree.ScanBatch(&op, 1, &count);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TreeScanBatchOne);

// Index tier (routing plus op): uniform lookups on hashed-fastfair:8, one
// Index::Search per key against Index::SearchBatch over batches of
// kBatchGroup keys. Eight uniform keys land on ~5.3 distinct shards, so
// the batch row pays its one grouped stall per wave only because the
// adapter runs the whole batch as one cross-tree pipeline; the gate in
// main() reads these two rows' read_stalls_per_op (>= 2x apart).
void BM_IndexSearch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  std::size_t i = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Search(keys[i]));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexSearch);

// BM_IndexSearch's lookups as batches of one (Index::SearchBatch with
// n = 1): what the sharded adapters' scalar ops would cost if they ran as
// a batch of one. No gate.
void BM_IndexSearchOne(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  std::size_t i = 0;
  Value val = kNoValue;
  const auto before = pm::Stats();
  for (auto _ : state) {
    idx->SearchBatch(&keys[i], 1, &val);
    benchmark::DoNotOptimize(val);
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexSearchOne);

void BM_IndexSearchBatch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  constexpr std::size_t kBatch = core::BTree::kBatchGroup;
  Value vals[kBatch];
  std::size_t off = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    if (off + kBatch > keys.size()) off = 0;
    idx->SearchBatch(keys.data() + off, kBatch, vals);
    benchmark::DoNotOptimize(vals);
    off += kBatch;
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}
BENCHMARK(BM_IndexSearchBatch);

// Index tier, mixed classes: 12-op batches on hashed-fastfair:8 drawn at
// mixed-zipf's 16 Get : 4 Put : 1 Del mix (uniform keys here), ordered
// puts, deletes, gets. BM_IndexPointBatch runs each batch as one
// Index::PointBatch, whose descent waves cut across the classes;
// BM_IndexPointBatchByClass runs the same ops as the three class calls, a
// wave or part wave per class. The gate in main() requires the merged row
// to pay fewer read stalls per op.
struct MixedBatch {
  std::vector<core::Record> puts;
  std::vector<Key> dels;
  std::vector<Key> gets;
};

void RunMixedBatches(benchmark::State& state, bool merged) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 3);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  constexpr std::size_t kOps = 12;
  std::vector<MixedBatch> batches(4096);
  Rng rng(11);
  for (MixedBatch& b : batches) {
    for (std::size_t i = 0; i < kOps; ++i) {
      const Key k = keys[rng.NextBounded(keys.size())];
      const std::uint64_t c = rng.NextBounded(21);
      if (c < 16) {
        b.gets.push_back(k);
      } else if (c < 20) {
        b.puts.push_back({k, 2 * k + 1});
      } else {
        b.dels.push_back(k);
      }
    }
  }
  InsertStatus st[kOps];
  bool removed[kOps];
  Value vals[kOps];
  std::size_t next = 0;
  const auto before = pm::Stats();
  for (auto _ : state) {
    const MixedBatch& b = batches[next];
    next = (next + 1) % batches.size();
    if (merged) {
      idx->PointBatch({b.puts.data(), b.puts.size(), st, b.dels.data(),
                       b.dels.size(), removed, b.gets.data(), b.gets.size(),
                       vals});
    } else {
      idx->InsertBatch(b.puts.data(), b.puts.size(), st);
      idx->RemoveBatch(b.dels.data(), b.dels.size(), removed);
      idx->SearchBatch(b.gets.data(), b.gets.size(), vals);
    }
    benchmark::DoNotOptimize(vals);
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kOps);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}

void BM_IndexPointBatch(benchmark::State& state) {
  RunMixedBatches(state, /*merged=*/true);
}
BENCHMARK(BM_IndexPointBatch);

void BM_IndexPointBatchByClass(benchmark::State& state) {
  RunMixedBatches(state, /*merged=*/false);
}
BENCHMARK(BM_IndexPointBatchByClass);

// Index-tier hashed scans, trajectory only (no gate): 100-record scans
// from uniform starts on hashed-fastfair:8, one Index::Scan per op against
// Index::ScanBatch over batches of kBatchGroup ops. Both rows run the
// adapter's one k-way merge (DESIGN.md §4.2), whose first fill runs the
// eight shards' first batches as one cross-tree ScanBatch; the batch row
// is the default Scan loop, so its per-op counters equal the scalar row's.
void BM_IndexScan(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  core::Record out[100];
  Rng rng(7);
  const auto before = pm::Stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Scan(rng.Next(), 100, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  SetPmCounters(state, pm::Stats() - before,
                static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexScan);

void BM_IndexScanBatch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  auto idx = MakeIndex("hashed-fastfair:8", &pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) idx->Insert(k, 2 * k + 1);
  constexpr std::size_t kGroup = core::BTree::kBatchGroup;
  constexpr std::size_t kScanLen = 100;
  std::vector<core::Record> out(kGroup * kScanLen);
  ScanOp ops[kGroup];
  std::size_t counts[kGroup];
  Rng rng(7);
  const auto before = pm::Stats();
  for (auto _ : state) {
    for (std::size_t j = 0; j < kGroup; ++j) {
      ops[j] = {rng.Next(), kScanLen, out.data() + j * kScanLen};
    }
    idx->ScanBatch(ops, kGroup, counts);
    benchmark::DoNotOptimize(counts);
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kGroup);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}
BENCHMARK(BM_IndexScanBatch);

// --- reporting ---------------------------------------------------------------

struct RunRecord {
  std::string name;
  std::int64_t iterations = 0;
  double real_ns_per_iter = 0.0;
  double items_per_second = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Tees to the normal console output while capturing every non-aggregate
/// run for the JSON emitter and the stall gate.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      RunRecord rec;
      rec.name = r.benchmark_name();
      // A repeated row keeps its bare name, in the JSON and for the gates.
      const std::string repeats = "/repeats:" + std::to_string(r.repetitions);
      if (const auto at = rec.name.find(repeats); at != std::string::npos) {
        rec.name.erase(at, repeats.size());
      }
      rec.iterations = r.iterations;
      rec.real_ns_per_iter =
          r.GetAdjustedRealTime();  // default time unit: nanoseconds
      for (const auto& [cname, counter] : r.counters) {
        if (cname == "items_per_second") rec.items_per_second = counter.value;
        rec.counters.emplace_back(cname, counter.value);
      }
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<RunRecord> records;
};

/// The run of `name` with the median wall time: the only run of a row
/// without repetitions. nullptr when the row did not run (filtered out).
const RunRecord* MedianRun(const std::vector<RunRecord>& records,
                           const std::string& name) {
  std::vector<const RunRecord*> runs;
  for (const auto& r : records) {
    if (r.name == name) runs.push_back(&r);
  }
  if (runs.empty()) return nullptr;
  std::sort(runs.begin(), runs.end(), [](const auto* a, const auto* b) {
    return a->real_ns_per_iter < b->real_ns_per_iter;
  });
  return runs[runs.size() / 2];
}

double CounterOf(const RunRecord& r, const std::string& name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return 0.0;
}

bool WriteJson(const std::string& path,
               const std::vector<RunRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "micro_ops: cannot write %s\n", path.c_str());
    return false;
  }
  // One row per benchmark, in run order: a repeated row's median run.
  std::vector<const RunRecord*> rows;
  for (const auto& r : records) {
    const bool seen = std::any_of(rows.begin(), rows.end(), [&](const auto* x) {
      return x->name == r.name;
    });
    if (!seen) rows.push_back(MedianRun(records, r.name));
  }
  out << "{\n  \"bench\": \"micro_ops\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = *rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"iterations\": "
        << r.iterations << ", \"real_ns_per_iter\": " << r.real_ns_per_iter;
    for (const auto& [cname, value] : r.counters) {
      out << ", \"" << cname << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  // Strip --json=<path> before google-benchmark sees (and rejects) it.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  // Per-ISA rows exist only where the CPU supports the path; the bare
  // BM_NodeSimdSearch row (best ISA) is what the SIMD/scalar gate reads.
  benchmark::RegisterBenchmark("BM_NodeSimdSearch", &BM_NodeSimdSearch,
                               simd::BestSupportedIsa())
      ->Repetitions(kGateRepetitions);
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::IsaSupported(isa)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeSimdSearch/") + simd::IsaName(isa)).c_str(),
        &BM_NodeSimdSearch, isa);
  }

  benchmark::Initialize(&out_argc, argv);
  if (benchmark::ReportUnrecognizedArguments(out_argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty() && !WriteJson(json_path, reporter.records)) return 1;

  // Deterministic pipeline gates (counter ratios, never wall time): each
  // batched row must pay at least 2x fewer serialized read stalls per op
  // than its scalar twin — the batched search groups kBatchGroup leaf
  // fetches per stall, the batched scan one grouped stall per wave of
  // sibling hops instead of one per hop per scan, a lone batched scan
  // fetches its next leaves from its parent's routes, and the index-tier
  // batch keeps one stall per wave although its keys land on several
  // shards.
  for (const auto& [scalar_name, batched_name] :
       {std::pair{"BM_TreeSearch", "BM_TreeSearchBatch"},
        std::pair{"BM_TreeScan100", "BM_TreeScanBatch"},
        std::pair{"BM_TreeScan100", "BM_TreeScanBatchOne"},
        std::pair{"BM_IndexSearch", "BM_IndexSearchBatch"}}) {
    const RunRecord* scalar = nullptr;
    const RunRecord* batched = nullptr;
    for (const auto& r : reporter.records) {
      if (r.name == scalar_name) scalar = &r;
      if (r.name == batched_name) batched = &r;
    }
    if (scalar == nullptr || batched == nullptr) continue;  // filtered out
    const double s = CounterOf(*scalar, "read_stalls_per_op");
    const double b = CounterOf(*batched, "read_stalls_per_op");
    if (b * 2.0 > s) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: %s read stalls/op %.3f not >=2x "
                   "below %s %.3f\n",
                   batched_name, b, scalar_name, s);
      return 1;
    }
  }

  // Mixed-class gate: the same 12-op batches pay fewer read stalls per op
  // as one PointBatch than as three class calls, whose partial waves each
  // pay a stall of their own.
  {
    const RunRecord* merged = nullptr;
    const RunRecord* by_class = nullptr;
    for (const auto& r : reporter.records) {
      if (r.name == "BM_IndexPointBatch") merged = &r;
      if (r.name == "BM_IndexPointBatchByClass") by_class = &r;
    }
    if (merged != nullptr && by_class != nullptr) {
      const double m = CounterOf(*merged, "read_stalls_per_op");
      const double c = CounterOf(*by_class, "read_stalls_per_op");
      if (m >= c) {
        std::fprintf(stderr,
                     "GATE FAIL micro_ops: BM_IndexPointBatch read stalls/op "
                     "%.3f not below BM_IndexPointBatchByClass %.3f\n",
                     m, c);
        return 1;
      }
    }
  }

  // Front-delete gate (exact): a delete of the smallest key persists at
  // most one line, ghosting its slot instead of shifting the leaf.
  if (const RunRecord* front = MedianRun(
          reporter.records, "BM_TreeRemoveFront/iterations:300000")) {
    const double lines = CounterOf(*front, "flush_per_op");
    if (lines > 1.0) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: BM_TreeRemoveFront flushes %.4f "
                   "lines/op, not <= 1\n",
                   lines);
      return 1;
    }
  }

  // SIMD intra-node search gate (on a CPU without a vector tier the best
  // ISA is scalar and there is nothing to gate): the vectorized leaf
  // search's median run must take <= 0.6x the scalar linear scan's.
  if (simd::IsaSupported(simd::Isa::kAvx2) ||
      simd::IsaSupported(simd::Isa::kAvx512)) {
    const RunRecord* lin = MedianRun(reporter.records, "BM_NodeLinearSearch");
    const RunRecord* vec = MedianRun(reporter.records, "BM_NodeSimdSearch");
    if (lin != nullptr && vec != nullptr &&
        vec->real_ns_per_iter > 0.6 * lin->real_ns_per_iter) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: SIMD node search median %.1f ns/op "
                   "not <= 0.6x scalar linear median %.1f ns/op\n",
                   vec->real_ns_per_iter, lin->real_ns_per_iter);
      return 1;
    }
  }
  return 0;
}
