// Figure 6: TPC-C throughput for the four query mixes W1-W4.
//
// Paper setup: PM read and write latency both 300 ns; mixes per the
// caption (Order-Status share grows W1 -> W4).
//
// Expected shape: FAST+FAIR ahead everywhere (good inserts + sorted-leaf
// range scans); WORT hurt by Stock-Level/Order-Status range queries;
// SkipList last.
//
// --threads=N runs each mix with N concurrent terminals (tpcc::RunMix
// multi-threaded overload); kinds whose indexes do not support concurrent
// callers are skipped for N > 1. A sweep over the sharded kind shows the
// sharding win end-to-end — on multi-core hardware only (EXPERIMENTS.md).
// --sharding selects its partitioning: range (per-warehouse boundary
// cuts), hash (fibonacci hash over the packed keys — no boundary
// derivation needed), or adaptive (range + a Rebalance() pass over every
// table after population).
// --batch=N populates the bulk tables (ITEM, STOCK, ORDER-LINE) through
// InsertBatch chunks of N (the batched pipeline, DESIGN.md §8); the
// post-population sanity check always verifies the ITEM and STOCK tables
// through SearchBatch (order-independent, so the pipelined path is free
// CI-wall-time savings over a scalar loop).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/options.h"
#include "bench/table.h"
#include "index/sharded.h"
#include "maint/maintenance.h"
#include "maint/tasks.h"
#include "tpcc/driver.h"

namespace {

// Post-population sanity: every ITEM and STOCK key answers. Batched
// lookups (order-independent verification) so the batch-native kinds run
// their pipelined descents.
void VerifyPopulated(fastfair::tpcc::Db& db,
                     const fastfair::tpcc::Config& cfg) {
  using namespace fastfair;
  std::vector<Key> keys;
  keys.reserve(cfg.items * (1 + cfg.warehouses));
  for (std::uint32_t i = 0; i < cfg.items; ++i) {
    keys.push_back(tpcc::ItemKey(i));
  }
  const std::size_t n_item = keys.size();
  for (std::uint32_t w = 0; w < cfg.warehouses; ++w) {
    for (std::uint32_t i = 0; i < cfg.items; ++i) {
      keys.push_back(tpcc::StockKey(w, i));
    }
  }
  std::vector<Value> vals(1024);
  const auto check = [&](const Index& idx, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; i += vals.size()) {
      const std::size_t c = std::min(vals.size(), hi - i);
      idx.SearchBatch(keys.data() + i, c, vals.data());
      for (std::size_t j = 0; j < c; ++j) {
        if (vals[j] == kNoValue) {
          std::fprintf(stderr, "FAIL: populated row missing\n");
          std::exit(1);
        }
      }
    }
  };
  check(db.item(), 0, n_item);
  check(db.stock(), n_item, keys.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastfair;
  const auto opt = bench::ParseOptions(argc, argv);
  tpcc::Config cfg;
  if (opt.scale == "paper") {
    cfg.warehouses = 4;
    cfg.customers_per_district = 3000;
    cfg.items = 100000;
    cfg.initial_orders_per_district = 3000;
  } else if (opt.scale == "ci") {
    cfg.warehouses = 1;
    cfg.customers_per_district = 100;
    cfg.items = 2000;
    cfg.initial_orders_per_district = 100;
  }
  const std::size_t txns =
      opt.n_override != 0
          ? opt.n_override
          : (opt.scale == "paper" ? 200000 : opt.scale == "ci" ? 2000 : 20000);

  pm::Config pmcfg;
  pmcfg.read_latency_ns = 300;
  pmcfg.write_latency_ns = 300;

  const std::vector<std::string> kinds = {"fastfair", opt.ShardedKind(),
                                          "fptree", "wbtree", "wort",
                                          "skiplist"};
  // Without an explicit --threads, stay single-threaded (the paper's Fig 6
  // setup); --threads=1,4 sweeps terminal counts per mix and kind.
  const std::vector<int> threads =
      opt.threads_set ? opt.threads : std::vector<int>{1};
  std::printf(
      "Figure 6: TPC-C throughput (Kops/sec committed txns), %u warehouses, "
      "%zu txns per mix, PM latency 300/300 ns\n",
      cfg.warehouses, txns);
  bench::Table table({"mix", "index", "threads", "Ktxn_per_sec", "committed",
                      "aborted"});
  // Concurrency support depends only on the kind: probe each once with a
  // tiny throwaway index instead of populating a Db just to skip it.
  std::vector<bool> kind_concurrent;
  for (const auto& kind : kinds) {
    pm::Pool probe(std::size_t{16} << 20);
    kind_concurrent.push_back(MakeIndex(kind, &probe)->supports_concurrency());
  }
  for (const auto& mix : tpcc::PaperMixes()) {
    for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
      const auto& kind = kinds[ki];
      const bool concurrent = kind_concurrent[ki];
      for (const int t : threads) {
        if (t > 1 && !concurrent) continue;
        pm::SetConfig(pm::Config{});  // populate at DRAM speed
        pm::Pool pool(std::size_t{8} << 30);
        cfg.populate_batch = opt.batch;
        // --batch also turns on the transactions' grouped range reads:
        // Delivery / Stock-Level / Order-Status route their NEW-ORDER and
        // ORDER-LINE ranges through Index::ScanBatch (tpcc/txn.cc).
        cfg.batch_scans = opt.batch > 1;
        tpcc::Db db(kind, cfg, &pool);
        VerifyPopulated(db, cfg);
        if (opt.maintenance) {
          // Maintenance window between population and the timed mix: the
          // Db's background scheduler (pool drain + one imbalance policy
          // per sharded table) converges on its own — no foreground
          // Rebalance call. The tasks are safe under live writers; the
          // scheduler stops here only so the timed mix measures the
          // transactions alone.
          maint::TaskOptions topts;
          topts.rebalance_threshold = opt.rebalance_threshold;
          db.StartMaintenance(topts, opt.maint_interval_us);
          db.maintenance()->WaitIdle(std::chrono::milliseconds(60000));
          db.StopMaintenance();
        } else if (opt.AdaptiveSharding()) {
          // Re-derive each range-sharded table's boundaries from the real
          // row distribution (the static per-warehouse cuts ignore that
          // e.g. ORDER-LINE rows cluster by district).
          for (Index* t : db.tables()) {
            if (auto* sharded = dynamic_cast<ShardedIndex*>(t)) {
              sharded->Rebalance();
            }
          }
        }
        pm::SetConfig(pmcfg);
        const auto r = tpcc::RunMix(db, mix, txns, opt.seed, t);
        pm::SetConfig(pm::Config{});
        table.AddRow({mix.name, kind, std::to_string(t),
                      bench::Table::Num(r.Kops()),
                      std::to_string(r.committed),
                      std::to_string(r.aborted)});
      }
    }
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return 0;
}
