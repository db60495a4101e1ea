// Ablation (paper §VI): strict vs relaxed memory persistency.
//
// Under the relaxed (epoch-style) model, cache lines may be written back
// out of order, so FAST/FAIR's ordered flushes each need a persist
// barrier. The paper argues FAST and FAIR place *minimal* overhead under
// both models — barriers only per dirty line, not per store — while
// append-only designs (wB+-tree, FP-tree) already pay a barrier per
// independent persist point. This ablation measures insert cost and fence
// counts under both models. It is the one bench that runs relaxed
// persistency's per-line fences (pm::FlushRange).
//
// Deterministic gates (CI perf-smoke), on exact counts over the same
// inserts; either failing exits non-zero:
//  * every kind flushes the same lines under both models (relaxed adds
//    fences, never flushes);
//  * FAST+FAIR's relaxed-minus-strict fence increase is strictly below
//    wB+-tree's and FP-tree's (paper §VI; ~0.01 vs 1.2 and 0.6 per insert
//    at ci scale).

#include <cstdio>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "index/index.h"

int main(int argc, char** argv) {
  using namespace fastfair;
  const auto opt = bench::ParseOptions(argc, argv);
  const std::size_t n = opt.ScaledN(2000000);
  const auto keys = bench::UniformKeys(n, opt.seed);
  const std::vector<std::string> kinds = {"fastfair", "wbtree", "fptree",
                                          "wort"};

  std::printf(
      "Ablation: strict vs relaxed persistency, %zu inserts, write latency "
      "300 ns\n",
      n);
  bench::Table table({"persistency", "index", "insert_us", "fences_per_op",
                      "flushes_per_op"});
  std::vector<pm::ThreadStats> strict(kinds.size());
  std::vector<std::uint64_t> fence_rise(kinds.size());  // relaxed - strict
  bool gate_ok = true;
  for (const auto persistency :
       {pm::Persistency::kStrict, pm::Persistency::kRelaxed}) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& kind = kinds[k];
      pm::Pool pool(std::size_t{4} << 30);
      auto idx = MakeIndex(kind, &pool);
      pm::Config cfg;
      cfg.write_latency_ns = 300;
      cfg.persistency = persistency;
      pm::SetConfig(cfg);
      pm::ResetStats();
      const auto phase =
          bench::MeasurePhase([&] { bench::LoadIndex(idx.get(), keys); });
      table.AddRow(
          {persistency == pm::Persistency::kStrict ? "strict" : "relaxed",
           kind, bench::Table::Num(phase.PerOpUs(n)),
           bench::Table::Num(static_cast<double>(phase.pm.fences) /
                                 static_cast<double>(n),
                             2),
           bench::Table::Num(phase.FlushPerOp(n), 2)});
      if (persistency == pm::Persistency::kStrict) {
        strict[k] = phase.pm;
        continue;
      }
      if (phase.pm.flush_lines != strict[k].flush_lines) {
        std::fprintf(stderr,
                     "GATE FAIL persistency: %s flushed %llu lines relaxed "
                     "vs %llu strict\n",
                     kind.c_str(),
                     static_cast<unsigned long long>(phase.pm.flush_lines),
                     static_cast<unsigned long long>(strict[k].flush_lines));
        gate_ok = false;
      }
      fence_rise[k] = phase.pm.fences - strict[k].fences;
    }
  }
  pm::SetConfig(pm::Config{});
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  // kinds[0] is fastfair; kinds[1] and kinds[2] the append-only baselines.
  for (std::size_t k = 1; k <= 2; ++k) {
    if (fence_rise[0] >= fence_rise[k]) {
      std::fprintf(stderr,
                   "GATE FAIL persistency: fastfair's relaxed fence increase "
                   "%llu is not below %s's %llu\n",
                   static_cast<unsigned long long>(fence_rise[0]),
                   kinds[k].c_str(),
                   static_cast<unsigned long long>(fence_rise[k]));
      gate_ok = false;
    }
  }
  return gate_ok ? 0 : 1;
}
