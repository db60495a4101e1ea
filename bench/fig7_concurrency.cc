// Figure 7: multi-threaded scalability — (a) 50M Search, (b) 50M Insert,
// (c) Mixed (16 search : 4 insert : 1 delete per thread loop).
//
// Paper setup: 50 M preloaded keys; write latency 300 ns, read latency =
// DRAM; threads 1..32; indexes FAST+FAIR, FAST+FAIR+LeafLock (search &
// mixed only), FP-tree, B-link, SkipList.
//
// Hardware gate (EXPERIMENTS.md): the measurement host has 4 CPUs, so
// thread counts past 4 time-slice and absolute speed-up over threads
// cannot reproduce; what remains visible is the *relative* cost of read
// locks vs lock-free search under oversubscription, and that no workload
// loses correctness under contention. Run on a box with nproc >= 16 for
// the paper's scaling curves.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "index/index.h"
#include "index/sharded.h"
#include "maint/tasks.h"

namespace {

using namespace fastfair;

// --sharding=adaptive: recompute the range-sharded kind's boundaries from
// the loaded key distribution before the timed phase (no-op for the other
// kinds; the hashed kind needs no rebalance by construction). With
// --maintenance the background policy task does it instead — a scheduler
// thread watches the histograms the load populated and rebalances on its
// own; the bench waits for it to report idle and stops it, so the timed
// phase measures the foreground ops alone.
void MaybeRebalance(Index* idx, pm::Pool* pool, const bench::Options& opt) {
  if (!opt.AdaptiveSharding()) return;
  auto* sharded = dynamic_cast<ShardedIndex*>(idx);
  if (sharded == nullptr) return;
  if (!opt.maintenance) {
    sharded->Rebalance();
    return;
  }
  maint::TaskOptions topts;
  topts.rebalance_threshold = opt.rebalance_threshold;
  auto mt = maint::MakeMaintenanceThread(
      pool, {idx}, topts, std::chrono::microseconds(opt.maint_interval_us));
  mt->Start();
  mt->WaitIdle(std::chrono::milliseconds(60000));
  mt->Stop();
}

// Throughput plus (with --latency) the per-op latency distribution of the
// phase, merged across threads.
struct PhaseResult {
  double kops = 0.0;
  bench::LatencyHistogram hist;
};

// Wraps a per-op body with optional latency recording: one clock read per
// op (each op's end timestamp doubles as the next one's start), zero
// overhead when the histogram pointer is null (--latency off).
template <class Fn>
std::uint64_t RunOps(int threads, std::size_t total,
                     std::vector<bench::LatencyHistogram>* hists,
                     const Fn& op) {
  return bench::RunThreads(
      threads, total, [&](int t, std::size_t b, std::size_t e) {
        if (hists == nullptr) {
          for (std::size_t i = b; i < e; ++i) op(i);
          return;
        }
        bench::LatencyHistogram& h = (*hists)[static_cast<std::size_t>(t)];
        std::uint64_t start = pm::NowNs();
        for (std::size_t i = b; i < e; ++i) {
          op(i);
          const std::uint64_t end = pm::NowNs();
          h.Record(end - start);
          start = end;
        }
      });
}

PhaseResult Finish(std::size_t ops, std::uint64_t wall,
                   std::vector<bench::LatencyHistogram>* hists) {
  PhaseResult r;
  r.kops = bench::Kops(ops, wall);
  if (hists != nullptr) {
    for (auto& h : *hists) r.hist.Merge(h);
  }
  return r;
}

PhaseResult RunSearch(Index* idx, const std::vector<Key>& keys, int threads,
                      bool latency) {
  std::vector<bench::LatencyHistogram> hists(
      latency ? static_cast<std::size_t>(threads) : 0);
  auto* hp = latency ? &hists : nullptr;
  const std::uint64_t wall = RunOps(threads, keys.size(), hp,
                                    [&](std::size_t i) {
                                      if (idx->Search(keys[i]) == kNoValue) {
                                        std::abort();
                                      }
                                    });
  return Finish(keys.size(), wall, hp);
}

PhaseResult RunInsert(Index* idx, const std::vector<Key>& keys, int threads,
                      bool latency) {
  std::vector<bench::LatencyHistogram> hists(
      latency ? static_cast<std::size_t>(threads) : 0);
  auto* hp = latency ? &hists : nullptr;
  const std::uint64_t wall =
      RunOps(threads, keys.size(), hp, [&](std::size_t i) {
        idx->Insert(keys[i], bench::ValueFor(keys[i]));
      });
  return Finish(keys.size(), wall, hp);
}

PhaseResult RunMixed(Index* idx, const std::vector<bench::Op>& ops,
                     int threads, bool latency) {
  std::vector<bench::LatencyHistogram> hists(
      latency ? static_cast<std::size_t>(threads) : 0);
  auto* hp = latency ? &hists : nullptr;
  const std::uint64_t wall =
      RunOps(threads, ops.size(), hp, [&](std::size_t i) {
        const auto& op = ops[i];
        switch (op.type) {
          case bench::OpType::kSearch:
            idx->Search(op.key);
            break;
          case bench::OpType::kInsert:
            idx->Insert(op.key, bench::ValueFor(op.key));
            break;
          case bench::OpType::kDelete:
            idx->Remove(op.key);
            break;
        }
      });
  return Finish(ops.size(), wall, hp);
}

// Range-scan phase: every op collects up to kScanLen records from its
// start key. group <= 1 walks scalar (one descent + chain walk per op);
// group > 1 routes the same ops through Index::ScanBatch in groups of
// that size, sharing grouped descents and interleaved chain drains.
// Latency, when recorded, is per scalar op / per executed group.
PhaseResult RunScanPhase(Index* idx, const std::vector<Key>& starts,
                         int threads, std::size_t group, bool latency) {
  constexpr std::size_t kScanLen = 100;
  std::vector<bench::LatencyHistogram> hists(
      latency ? static_cast<std::size_t>(threads) : 0);
  const std::size_t g_max = std::max<std::size_t>(group, 1);
  const std::uint64_t wall = bench::RunThreads(
      threads, starts.size(), [&](int t, std::size_t b, std::size_t e) {
        std::vector<core::Record> buf(kScanLen * g_max);
        std::vector<ScanOp> ops(g_max);
        std::vector<std::size_t> counts(g_max);
        bench::LatencyHistogram* h =
            latency ? &hists[static_cast<std::size_t>(t)] : nullptr;
        std::uint64_t start = h != nullptr ? pm::NowNs() : 0;
        for (std::size_t i = b; i < e;) {
          if (group <= 1) {
            idx->Scan(starts[i], kScanLen, buf.data());
            ++i;
          } else {
            const std::size_t g = std::min(group, e - i);
            for (std::size_t j = 0; j < g; ++j) {
              ops[j] = {starts[i + j], kScanLen, buf.data() + j * kScanLen};
            }
            idx->ScanBatch(ops.data(), g, counts.data());
            i += g;
          }
          if (h != nullptr) {
            const std::uint64_t end = pm::NowNs();
            h->Record(end - start);
            start = end;
          }
        }
      });
  return Finish(starts.size(), wall, latency ? &hists : nullptr);
}

/// Table row tail: throughput plus, under --latency, the four percentile
/// columns in microseconds.
std::vector<std::string> ResultCells(const PhaseResult& r, bool latency) {
  std::vector<std::string> cells = {bench::Table::Num(r.kops)};
  if (latency) {
    const auto s = r.hist.Summarize();
    cells.push_back(bench::Table::Num(static_cast<double>(s.p50_ns) / 1000.0));
    cells.push_back(bench::Table::Num(static_cast<double>(s.p90_ns) / 1000.0));
    cells.push_back(bench::Table::Num(static_cast<double>(s.p99_ns) / 1000.0));
    cells.push_back(
        bench::Table::Num(static_cast<double>(s.p999_ns) / 1000.0));
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::ParseOptions(argc, argv);
  if (opt.maintenance && !opt.AdaptiveSharding()) {
    // In fig7 the only maintainable phase is the post-load convergence of
    // the adaptive range-sharded kind; without it the flag changes
    // nothing, and silently labeling baseline numbers as a maintenance
    // run would mislead.
    std::fprintf(stderr,
                 "note: fig7 --maintenance only acts with "
                 "--sharding=adaptive; ignoring it for this run\n");
  }
  // Paper: 50 M preload; ops scaled alongside.
  const std::size_t preload_n = opt.ScaledN(50000000);
  const std::size_t ops_n = preload_n;
  // --skew=theta swaps the paper's uniform keys for zipfian draws whose hot
  // ranks cluster in key space (EXPERIMENTS.md "Skewed workloads"): the
  // sweep then shows range sharding collapsing onto the hot shard while
  // --sharding=hash|adaptive keep the shards balanced. One generator for
  // all three streams — its zeta setup is O(universe), minutes at paper
  // scale if repeated.
  const std::uint64_t zipf_universe = preload_n * 4;
  std::optional<bench::ZipfianGenerator> zipf;
  if (opt.skew > 0.0) zipf.emplace(zipf_universe, opt.skew);
  const auto preload = zipf ? bench::ZipfianKeys(preload_n, *zipf, opt.seed)
                            : bench::UniformKeys(preload_n, opt.seed);
  const auto extra =
      zipf ? bench::ZipfianKeys(ops_n, *zipf, opt.seed ^ 0x1234567)
           : bench::UniformKeys(ops_n, opt.seed ^ 0x1234567);
  const auto mixed = zipf ? bench::MixedOpsZipfian(ops_n, *zipf, opt.seed)
                          : bench::MixedOps(ops_n, ~std::uint64_t{0} - 1,
                                            opt.seed);

  pm::Config cfg;
  cfg.write_latency_ns = 300;  // paper: write 300 ns, read = DRAM
  std::printf(
      "Figure 7: thread scalability, %zu preloaded keys, write latency "
      "300ns, skew theta=%.2f, sharding=%s\nNOTE: this host has limited "
      "cores; see EXPERIMENTS.md.\n",
      preload_n, opt.skew, opt.sharding.c_str());

  // The sharded kind (per-thread arenas + range-partitioned trees) rides
  // along in every workload; --shards selects its shard count.
  const std::vector<std::string> search_kinds = {
      "fastfair", "fastfair-leaflock", opt.ShardedKind(), "fptree", "blink",
      "skiplist"};
  const std::vector<std::string> insert_kinds = {
      "fastfair", opt.ShardedKind(), "fptree", "blink", "skiplist"};

  std::vector<std::string> headers = {"workload", "index", "threads",
                                      "Kops_per_sec"};
  if (opt.latency) {
    headers.insert(headers.end(),
                   {"p50_us", "p90_us", "p99_us", "p999_us"});
  }
  bench::Table table(headers);
  auto add_row = [&](const std::string& workload, const std::string& kind,
                     int t, const PhaseResult& r) {
    std::vector<std::string> cells = {workload, kind, std::to_string(t)};
    for (auto& c : ResultCells(r, opt.latency)) cells.push_back(std::move(c));
    table.AddRow(cells);
  };
  for (const auto& kind : search_kinds) {
    pm::SetConfig(pm::Config{});
    pm::Pool pool(std::size_t{8} << 30);
    auto idx = MakeIndex(kind, &pool);
    bench::LoadIndex(idx.get(), preload);
    MaybeRebalance(idx.get(), &pool, opt);
    pm::SetConfig(cfg);
    for (const int t : opt.threads) {
      add_row("search", kind, t,
              RunSearch(idx.get(), preload, t, opt.latency));
    }
  }
  for (const auto& kind : insert_kinds) {
    for (const int t : opt.threads) {
      pm::SetConfig(pm::Config{});
      pm::Pool pool(std::size_t{8} << 30);
      auto idx = MakeIndex(kind, &pool);
      bench::LoadIndex(idx.get(), preload);
      MaybeRebalance(idx.get(), &pool, opt);
      pm::SetConfig(cfg);
      add_row("insert", kind, t, RunInsert(idx.get(), extra, t, opt.latency));
    }
  }
  for (const auto& kind : search_kinds) {
    for (const int t : opt.threads) {
      pm::SetConfig(pm::Config{});
      pm::Pool pool(std::size_t{8} << 30);
      auto idx = MakeIndex(kind, &pool);
      bench::LoadIndex(idx.get(), preload);
      MaybeRebalance(idx.get(), &pool, opt);
      pm::SetConfig(cfg);
      add_row("mixed", kind, t, RunMixed(idx.get(), mixed, t, opt.latency));
    }
  }
  // Scan rows (each op reads ~100 records, so 1/100th as many ops): the
  // scalar leaf-chain walk, plus — with --batch > 1 — the same starts
  // through ScanBatch in groups of --batch.
  const std::size_t scan_n =
      std::min(extra.size(), std::max<std::size_t>(preload_n / 100, 64));
  const std::vector<Key> scan_starts(extra.begin(),
                                     extra.begin() + static_cast<long>(scan_n));
  for (const auto& kind : search_kinds) {
    pm::SetConfig(pm::Config{});
    pm::Pool pool(std::size_t{8} << 30);
    auto idx = MakeIndex(kind, &pool);
    bench::LoadIndex(idx.get(), preload);
    MaybeRebalance(idx.get(), &pool, opt);
    pm::SetConfig(cfg);
    for (const int t : opt.threads) {
      add_row("scan", kind, t,
              RunScanPhase(idx.get(), scan_starts, t, 1, opt.latency));
      if (opt.batch > 1) {
        add_row("scan-batch", kind, t,
                RunScanPhase(idx.get(), scan_starts, t,
                             static_cast<std::size_t>(opt.batch),
                             opt.latency));
      }
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
