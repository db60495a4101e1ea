// Figure 5(c): single-threaded insert time vs PM *write* latency on a TSO
// architecture (read latency = DRAM).
//
// Paper setup: 10 M keys; write latency DRAM, 120, 300, 600, 900 ns.
//
// Expected shape (paper): flush count dominates as write latency grows,
// so WORT (fewest flushes) overtakes everything; FAST+FAIR stays ahead of
// FP-tree, wB+-tree and SkipList throughout (it flushes the fewest lines
// among the B+-tree family).
//
// Measured shape (--scale=ci, 4-CPU Xeon, three runs): the flush counts
// per insert are exact: SkipList 2.0, WORT 2.8, FP-tree 3.8, FAST+FAIR
// 4.0, FAST+Logging 4.6, wB+-tree 5.6. From 600 ns up the insert times
// follow that order, SkipList first (at 900 ns: SkipList 2.8-2.9 us, WORT
// 3.2-3.4, FP-tree 4.3-4.5, FAST+FAIR 4.7-4.8, wB+-tree 6.5-6.6). So
// FAST+FAIR stays ahead of wB+-tree and FAST+Logging, but not of FP-tree,
// which persists fewer lines per insert here, nor of SkipList, whose
// insert persists the new node and one link. At DRAM speed WORT is
// fastest. Wall times on a shared host move by ~10 % between runs; the
// counts do not.

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
  const std::size_t n = opt.ScaledN(10000000);
  const auto keys = bench::UniformKeys(n, opt.seed);
  const std::vector<int> wlats = {0, 120, 300, 600, 900};
  const std::vector<std::string> kinds = {"fastfair", "fastfair-logging",
                                          "fptree", "wbtree", "wort",
                                          "skiplist"};

  std::printf("Figure 5(c): insert time vs PM write latency (TSO), %zu keys\n",
              n);
  bench::Table table(
      {"write_latency_ns", "index", "insert_us", "flushes_per_op"});
  for (const int wlat : wlats) {
    for (const auto& kind : kinds) {
      pm::Pool pool(std::size_t{6} << 30);
      auto idx = MakeIndex(kind, &pool);
      pm::Config cfg;
      cfg.write_latency_ns = static_cast<std::uint64_t>(wlat);
      pm::SetConfig(cfg);
      pm::ResetStats();
      const auto phase =
          bench::MeasurePhase([&] { bench::LoadIndex(idx.get(), keys); });
      table.AddRow({wlat == 0 ? "DRAM" : std::to_string(wlat), kind,
                    bench::Table::Num(phase.PerOpUs(n)),
                    bench::Table::Num(phase.FlushPerOp(n), 1)});
    }
  }
  pm::SetConfig(pm::Config{});
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return 0;
}
