// Figure 5(b): single-threaded exact-match search time vs PM read latency.
//
// Paper setup: 10 M keys; read latency DRAM, 120, 300, 600, 900 ns (write
// latency irrelevant for reads).
//
// Expected shape: B+-tree variants degrade gently (few pointer-chased node
// hops; in-node lines fetched in parallel); WORT and SkipList degrade
// steeply (one dependent PM read per tree/list hop). FP-tree is flattest at
// high latency (volatile inner nodes). At 900 ns, SkipList and WORT are
// several times worse than FAST+FAIR.
//
// --batch=N adds a second measurement per index: the same lookups through
// SearchBatch in application-side chunks of N. Kinds with the batched
// pipeline (DESIGN.md §8.1) interleave their descents in groups of 8 with
// one-level-ahead prefetch, so the emulated *serialized* read stall
// (read_stalls, the quantity the latency injection prices) is paid once
// per leaf group instead of once per key. Deterministic gates (CI
// perf-smoke), else exit non-zero: fastfair's batched rows must show >= 2x
// fewer read stalls than its scalar rows on the same workload, and at
// every latency WORT and SkipList must pay more read stalls per search
// than every B+-tree kind (5.56 and 15.41 against 1.00 at --scale=ci).
// The per-node read model charges each B+-tree one stall per leaf
// (DESIGN.md §5.1), so the order among the B+-trees cannot show here.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

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
  const std::vector<int> rlats = {0, 120, 300, 600, 900};
  const std::vector<std::string> kinds = {"fastfair", "fptree", "wbtree",
                                          "wort", "skiplist"};

  std::printf("Figure 5(b): search time vs PM read latency, %zu keys\n", n);
  bench::Table table({"read_latency_ns", "index", "search_us",
                      "pm_node_reads_per_op", "read_stalls_per_op"});
  bool gate_ok = true;
  // Scalar read stalls per latency row, for the ordering gate.
  std::map<std::string, std::vector<std::uint64_t>> stalls;
  for (const auto& kind : kinds) {
    pm::Pool pool(std::size_t{6} << 30);
    auto idx = MakeIndex(kind, &pool);
    pm::SetConfig(pm::Config{});
    bench::LoadIndex(idx.get(), keys);
    for (const int rlat : rlats) {
      pm::Config cfg;
      cfg.read_latency_ns = static_cast<std::uint64_t>(rlat);
      pm::SetConfig(cfg);
      pm::ResetStats();
      const auto phase = bench::MeasurePhase([&] {
        for (const Key k : keys) {
          if (idx->Search(k) == kNoValue) std::abort();
        }
      });
      const auto per_op = [n](std::uint64_t c) {
        return static_cast<double>(c) / static_cast<double>(n);
      };
      stalls[kind].push_back(phase.pm.read_stalls);
      const std::string label = rlat == 0 ? "DRAM" : std::to_string(rlat);
      table.AddRow({label, kind, bench::Table::Num(phase.PerOpUs(n)),
                    bench::Table::Num(per_op(phase.pm.read_annotations), 1),
                    bench::Table::Num(per_op(phase.pm.read_stalls), 2)});
      if (opt.batch > 0) {
        std::vector<Value> vals(opt.batch);
        pm::ResetStats();
        const auto batched = bench::MeasurePhase([&] {
          for (std::size_t i = 0; i < keys.size(); i += opt.batch) {
            const std::size_t c = std::min(opt.batch, keys.size() - i);
            idx->SearchBatch(keys.data() + i, c, vals.data());
            for (std::size_t j = 0; j < c; ++j) {
              if (vals[j] == kNoValue) std::abort();
            }
          }
        });
        table.AddRow({label, kind + "+b" + std::to_string(opt.batch),
                      bench::Table::Num(batched.PerOpUs(n)),
                      bench::Table::Num(per_op(batched.pm.read_annotations), 1),
                      bench::Table::Num(per_op(batched.pm.read_stalls), 2)});
        // The pipeline gate only binds the kinds that actually have one;
        // baselines run the default per-key loop and stay at parity.
        if (kind == "fastfair" &&
            batched.pm.read_stalls * 2 > phase.pm.read_stalls) {
          std::fprintf(stderr,
                       "GATE FAIL fig5b: %s rlat=%d batched read stalls "
                       "%llu not >=2x below scalar %llu\n",
                       kind.c_str(), rlat,
                       static_cast<unsigned long long>(batched.pm.read_stalls),
                       static_cast<unsigned long long>(phase.pm.read_stalls));
          gate_ok = false;
        }
      }
    }
  }
  for (std::size_t r = 0; r < rlats.size(); ++r) {
    for (const char* chased : {"wort", "skiplist"}) {
      for (const char* btree : {"fastfair", "fptree", "wbtree"}) {
        if (stalls[chased][r] <= stalls[btree][r]) {
          std::fprintf(stderr,
                       "GATE FAIL fig5b: rlat=%d %s read stalls %llu not "
                       "above %s %llu\n",
                       rlats[r], chased,
                       static_cast<unsigned long long>(stalls[chased][r]),
                       btree,
                       static_cast<unsigned long long>(stalls[btree][r]));
          gate_ok = false;
        }
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
