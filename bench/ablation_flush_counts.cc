// Ablation A1: where do the cache-line flushes go?
//
// DESIGN.md calls out the flush discipline as the core design lever; this
// ablation reports flushes and fences per insert for every index, plus a
// "naive shift" strawman (flush after every 8-byte store) to show what FAST
// saves by flushing only at cache-line boundaries. Exits non-zero when a
// deterministic count gate fails (CI perf-smoke job): fastfair must stay
// within 6 flushes/fences per insert, and must flush fewer lines per
// insert than wbtree (Fig 5(a)'s clflush ordering; 3.99 vs 5.62 at
// --scale=ci).

#include <cstdio>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "core/mem_policy.h"
#include "core/node_ops.h"
#include "index/index.h"

namespace {

using namespace fastfair;

/// Memory policy that flushes after *every* store: the strawman a naive
/// port of B+-tree shifting to PM would use.
struct NaiveMem {
  static void Store64(void* addr, std::uint64_t value) {
    core::RealMem::Store64(addr, value);
    pm::Clflush(addr);
    pm::Sfence();
  }
  static std::uint64_t Load64(const void* addr) {
    return core::RealMem::Load64(addr);
  }
  static void Flush(const void*) {}  // already flushed per store
  static void Fence() {}
  static void FenceIfNotTso() {}
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::ParseOptions(argc, argv);
  const std::size_t n = opt.ScaledN(2000000);
  const auto keys = bench::UniformKeys(n, opt.seed);
  pm::SetConfig(pm::Config{});

  std::printf("Ablation: flush/fence counts per insert, %zu keys\n", n);
  bench::Table table(
      {"index", "flushes_per_insert", "fences_per_insert", "insert_us"});

  // Deterministic gates (CI perf-smoke): count-based, never wall time.
  bool gate_ok = true;
  double fastfair_lines = 0.0, wbtree_lines = 0.0;
  for (const auto& kind : AllIndexKinds()) {
    pm::Pool pool(std::size_t{4} << 30);
    auto idx = MakeIndex(kind, &pool);
    pm::ResetStats();
    const auto phase = bench::MeasurePhase(
        [&] { bench::LoadIndex(idx.get(), keys, opt.batch); });
    table.AddRow({std::string(kind), bench::Table::Num(phase.FlushPerOp(n), 2),
                  bench::Table::Num(static_cast<double>(phase.pm.fences) /
                                        static_cast<double>(n),
                                    2),
                  bench::Table::Num(phase.PerOpUs(n))});
    if (kind == "wbtree") wbtree_lines = phase.FlushPerOp(n);
    if (kind == "fastfair") {
      fastfair_lines = phase.FlushPerOp(n);
      // The gate's reference row: verify its contents (batched lookups,
      // outside the measured phase) before trusting its counts.
      bench::VerifyIndex(idx.get(), keys);
      // FAST's line-boundary flush discipline keeps a median insert at a
      // couple of flushes; 6 per op is far above any legitimate count and
      // catches a regression to per-store flushing.
      if (phase.FlushPerOp(n) > 6.0 ||
          static_cast<double>(phase.pm.fences) / static_cast<double>(n) >
              6.0) {
        std::fprintf(stderr,
                     "GATE FAIL ablation: fastfair %.2f flushes / %.2f "
                     "fences per insert exceed the 6.0 bound\n",
                     phase.FlushPerOp(n),
                     static_cast<double>(phase.pm.fences) /
                         static_cast<double>(n));
        gate_ok = false;
      }
    }
  }

  // FAIR splits without logging and persist only what a crash image can
  // reach, so FAST+FAIR flushes fewer lines per insert than wB+-tree.
  if (fastfair_lines >= wbtree_lines) {
    std::fprintf(stderr,
                 "GATE FAIL ablation: fastfair %.2f flushes per insert not "
                 "below wbtree %.2f\n",
                 fastfair_lines, wbtree_lines);
    gate_ok = false;
  }

  // Naive strawman at node level: repeated single-node fills.
  {
    using NodeT = core::Node<512>;
    alignas(64) NodeT node;
    NaiveMem nm;
    pm::ResetStats();
    const auto before = pm::Stats();
    std::size_t ops = 0;
    bench::Timer t;
    for (std::size_t rep = 0; rep < n / NodeT::kCapacity; ++rep) {
      node.Init(0);
      for (int i = 0; i < NodeT::kCapacity; ++i) {
        // Descending keys: worst-case full shift every time.
        core::NodeOps<NodeT, NaiveMem>::InsertKey(
            nm, &node, static_cast<Key>(NodeT::kCapacity - i), 1000u + static_cast<Value>(i));
        ++ops;
      }
    }
    const auto delta = pm::Stats() - before;
    table.AddRow(
        {"naive-flush-per-store (node-level strawman)",
         bench::Table::Num(static_cast<double>(delta.flush_lines) /
                               static_cast<double>(ops),
                           2),
         bench::Table::Num(static_cast<double>(delta.fences) /
                               static_cast<double>(ops),
                           2),
         bench::Table::Num(t.ElapsedUs() / static_cast<double>(ops))});
  }

  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return gate_ok ? 0 : 1;
}
