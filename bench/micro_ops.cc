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
// serialized read stalls per op than BM_TreeSearch, and BM_TreeScanBatch
// >= 2x fewer per scan than the scalar BM_TreeScan100 loop.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
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
BENCHMARK(BM_NodeLinearSearch);

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

// Batch shard routing: the stable bucketing pass every sharded batch op
// runs first. 4096 elements over 8 shards, the default hashed-tier shape.
// The `simd` variant pins the active ISA for the duration of the run so
// the scalar row stays honest whatever FASTFAIR_SIMD says.
void BM_BucketByShard(benchmark::State& state, simd::Isa isa) {
  const simd::Isa prev = simd::ActiveIsa();
  simd::ForceIsa(isa);
  constexpr std::size_t kN = 4096, kShards = 8;
  std::vector<std::uint32_t> ids(kN);
  Rng rng(11);
  for (auto& x : ids) x = static_cast<std::uint32_t>(rng.NextBounded(kShards));
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> start;
  for (auto _ : state) {
    detail::BucketByShard(ids.data(), kN, kShards, &order, &start);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
  simd::ForceIsa(prev);
}

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
BENCHMARK(BM_TreeInsert);

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
BENCHMARK(BM_TreeInsertBatch);

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
// but kBatchGroup scans per ScanBatch call: grouped descents to the start
// leaves plus interleaved leaf-chain drains, so the group pays one grouped
// read stall per wave of sibling hops where the scalar loop pays one per
// hop per scan. The perf-smoke gate reads these two rows' read_stalls_per_op
// (>= 2x apart, deterministic counters).
void BM_TreeScanBatch(benchmark::State& state) {
  pm::SetConfig(pm::Config{});
  pm::Pool pool(std::size_t{4} << 30);
  core::BTree tree(&pool);
  const auto keys = bench::UniformKeys(200000, 5);
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
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
    tree.ScanBatch(ops, kGroup, counts);
    benchmark::DoNotOptimize(counts);
  }
  const double items =
      static_cast<double>(state.iterations()) * static_cast<double>(kGroup);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  SetPmCounters(state, pm::Stats() - before, items);
}
BENCHMARK(BM_TreeScanBatch);

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
  out << "{\n  \"bench\": \"micro_ops\",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"name\": \"" << r.name << "\", \"iterations\": "
        << r.iterations << ", \"real_ns_per_iter\": " << r.real_ns_per_iter;
    for (const auto& [cname, value] : r.counters) {
      out << ", \"" << cname << "\": " << value;
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
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
                               simd::BestSupportedIsa());
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::IsaSupported(isa)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_NodeSimdSearch/") + simd::IsaName(isa)).c_str(),
        &BM_NodeSimdSearch, isa);
  }
  benchmark::RegisterBenchmark("BM_BucketByShard/scalar", &BM_BucketByShard,
                               simd::Isa::kScalar);
  benchmark::RegisterBenchmark("BM_BucketByShard/simd", &BM_BucketByShard,
                               simd::BestSupportedIsa());

  benchmark::Initialize(&out_argc, argv);
  if (benchmark::ReportUnrecognizedArguments(out_argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty() && !WriteJson(json_path, reporter.records)) return 1;

  // Deterministic pipeline gate (counter ratio, never wall time): the
  // batched search must pay at least 2x fewer serialized read stalls per
  // op than the scalar one (it groups kBatchGroup leaf fetches per stall).
  const RunRecord* scalar = nullptr;
  const RunRecord* batched = nullptr;
  for (const auto& r : reporter.records) {
    if (r.name == "BM_TreeSearch") scalar = &r;
    if (r.name == "BM_TreeSearchBatch") batched = &r;
  }
  if (scalar != nullptr && batched != nullptr) {
    const double s = CounterOf(*scalar, "read_stalls_per_op");
    const double b = CounterOf(*batched, "read_stalls_per_op");
    if (b * 2.0 > s) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: batched read stalls/op %.3f not "
                   ">=2x below scalar %.3f\n",
                   b, s);
      return 1;
    }
  }

  // Same contract for range scans: the grouped-descent + interleaved
  // leaf-chain drain must pay at least 2x fewer serialized read stalls per
  // scan than the scalar Scan loop (one grouped stall per wave of sibling
  // hops instead of one per hop per scan).
  const RunRecord* scan_scalar = nullptr;
  const RunRecord* scan_batched = nullptr;
  for (const auto& r : reporter.records) {
    if (r.name == "BM_TreeScan100") scan_scalar = &r;
    if (r.name == "BM_TreeScanBatch") scan_batched = &r;
  }
  if (scan_scalar != nullptr && scan_batched != nullptr) {
    const double s = CounterOf(*scan_scalar, "read_stalls_per_op");
    const double b = CounterOf(*scan_batched, "read_stalls_per_op");
    if (b * 2.0 > s) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: ScanBatch read stalls/op %.3f not "
                   ">=2x below scalar scan %.3f\n",
                   b, s);
      return 1;
    }
  }

  // SIMD intra-node search gate (on a CPU without a vector tier the best
  // ISA is scalar and there is nothing to gate): the vectorized leaf
  // search must run at <= 0.6x the scalar linear scan.
  if (simd::IsaSupported(simd::Isa::kAvx2) ||
      simd::IsaSupported(simd::Isa::kAvx512)) {
    const RunRecord* lin = nullptr;
    const RunRecord* vec = nullptr;
    for (const auto& r : reporter.records) {
      if (r.name == "BM_NodeLinearSearch") lin = &r;
      if (r.name == "BM_NodeSimdSearch") vec = &r;
    }
    if (lin != nullptr && vec != nullptr &&
        vec->real_ns_per_iter > 0.6 * lin->real_ns_per_iter) {
      std::fprintf(stderr,
                   "GATE FAIL micro_ops: SIMD node search %.1f ns/op not "
                   "<= 0.6x scalar linear %.1f ns/op\n",
                   vec->real_ns_per_iter, lin->real_ns_per_iter);
      return 1;
    }
  }
  return 0;
}
