// Figure 5(a): single-threaded insert-time breakdown (clflush / search /
// node update) while scaling PM read+write latency together.
//
// Paper setup: 10 M uniform keys; latencies DRAM, 120/120 .. 900/900 ns;
// indexes F=FAST+FAIR, L=FAST+Logging, P=FP-tree, W=wB+-tree, O=WORT,
// S=Skiplist.
//
// Breakdown methodology (EXPERIMENTS.md): clflush time is measured directly
// by the pm layer (wall time inside flush calls, including injected
// latency); search time is estimated as the cost of a pure lookup of the
// same key on the final index (the traversal an insert performs before
// writing); node update = total - clflush - search.
//
// Expected shape: FAST+FAIR, FP-tree and WORT comparable and well ahead of
// wB+-tree and SkipList; FAST+Logging 7-18% behind FAST+FAIR; wB+-tree's
// clflush share ~1.7x FAST+FAIR's.
//
// Each (latency, index) cell runs kReps times, each on a fresh pool and
// index. Every time column is the median of its per-repetition values, and
// total_iqr_us is the interquartile range of total_us: one timing of a
// cell can stray by 2x on a shared host, while the counts are exact.
//
// Deterministic gates (CI perf-smoke), else exit non-zero:
//  * every repetition of a cell flushes the same lines and issues the same
//    fences (the counts are the reproducible part of the figure);
//  * the Fig 5(a) ordering that holds on exact counts: at every latency
//    row fastfair-logging flushes strictly more cache lines than fastfair
//    over the same inserts (each split first persists a whole node image
//    to the undo log, lines FAIR's in-place split never writes; ~4.9 vs
//    4.2 per insert at ci scale).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "index/index.h"

namespace {

constexpr int kReps = 5;

// Linear-interpolated quantile q of `v` (kReps values: q = 0.25, 0.5 and
// 0.75 pick the 2nd, 3rd and 4th smallest).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastfair;
  const auto opt = bench::ParseOptions(argc, argv);
  const std::size_t n = opt.ScaledN(10000000);
  const auto keys = bench::UniformKeys(n, opt.seed);

  const std::vector<std::pair<int, int>> latencies = {
      {0, 0}, {120, 120}, {300, 300}, {600, 600}, {900, 900}};
  const std::vector<std::string> kinds = {"fastfair",  "fastfair-logging",
                                          "fptree",    "wbtree",
                                          "wort",      "skiplist"};

  std::printf("Figure 5(a): insert time breakdown, %zu keys, median of %d "
              "runs per cell\n",
              n, kReps);
  bench::Table table({"latency_ns", "index", "total_us", "total_iqr_us",
                      "clflush_us", "search_us", "update_us",
                      "flushes_per_op", "fences_per_op"});
  bool gate_ok = true;
  for (const auto& [rlat, wlat] : latencies) {
    const std::string label =
        std::string(rlat == 0 ? "DRAM" : std::to_string(rlat)) + "/" +
        (wlat == 0 ? "DRAM" : std::to_string(wlat));
    std::uint64_t fastfair_flushes = 0;  // this row's, for the gate
    for (const auto& kind : kinds) {
      std::vector<double> total, flush, search, update;
      pm::ThreadStats counts;  // the first repetition's insert-phase counts
      for (int rep = 0; rep < kReps; ++rep) {
        pm::Pool pool(std::size_t{6} << 30);
        auto idx = MakeIndex(kind, &pool);
        pm::Config cfg;
        cfg.read_latency_ns = static_cast<std::uint64_t>(rlat);
        cfg.write_latency_ns = static_cast<std::uint64_t>(wlat);
        pm::SetConfig(cfg);
        pm::ResetStats();
        const auto insert_phase = bench::MeasurePhase(
            [&] { bench::LoadIndex(idx.get(), keys, opt.batch); });
        // Search-cost proxy: pure lookups of the same keys.
        const auto search_phase = bench::MeasurePhase([&] {
          for (const Key k : keys) {
            if (idx->Search(k) == kNoValue) std::abort();
          }
        });
        total.push_back(insert_phase.PerOpUs(n));
        flush.push_back(insert_phase.FlushUsPerOp(n));
        search.push_back(search_phase.PerOpUs(n));
        update.push_back(
            std::max(0.0, total.back() - flush.back() - search.back()));
        if (rep == 0) {
          counts = insert_phase.pm;
        } else if (insert_phase.pm.flush_lines != counts.flush_lines ||
                   insert_phase.pm.fences != counts.fences) {
          std::fprintf(stderr,
                       "GATE FAIL fig5a %s %s: repetition %d flushed %llu "
                       "lines with %llu fences, repetition 0 %llu with %llu\n",
                       label.c_str(), kind.c_str(), rep,
                       static_cast<unsigned long long>(
                           insert_phase.pm.flush_lines),
                       static_cast<unsigned long long>(insert_phase.pm.fences),
                       static_cast<unsigned long long>(counts.flush_lines),
                       static_cast<unsigned long long>(counts.fences));
          gate_ok = false;
        }
      }
      const double per_op = static_cast<double>(n);
      table.AddRow(
          {label, kind, bench::Table::Num(Quantile(total, 0.5)),
           bench::Table::Num(Quantile(total, 0.75) - Quantile(total, 0.25)),
           bench::Table::Num(Quantile(flush, 0.5)),
           bench::Table::Num(Quantile(search, 0.5)),
           bench::Table::Num(Quantile(update, 0.5)),
           bench::Table::Num(static_cast<double>(counts.flush_lines) / per_op,
                             1),
           bench::Table::Num(static_cast<double>(counts.fences) / per_op, 1)});
      if (kind == "fastfair") fastfair_flushes = counts.flush_lines;
      if (kind == "fastfair-logging" &&
          counts.flush_lines <= fastfair_flushes) {
        std::fprintf(stderr,
                     "GATE FAIL fig5a %s: fastfair-logging flushed %llu "
                     "lines, not strictly more than fastfair's %llu\n",
                     label.c_str(),
                     static_cast<unsigned long long>(counts.flush_lines),
                     static_cast<unsigned long long>(fastfair_flushes));
        gate_ok = false;
      }
    }
  }
  pm::SetConfig(pm::Config{});
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return gate_ok ? 0 : 1;
}
