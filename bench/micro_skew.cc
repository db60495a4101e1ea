// Shard-imbalance microbenchmark: zipfian point-lookup workload over the
// three partitioning strategies of the sharding tier (DESIGN.md §4).
//
// Loads a zipfian(theta) key set (hot ranks clustered at the low end of
// the key space — bench::ZipfianKeys) into the range-sharded and the
// hash-sharded kind, reports each shard layout's max/min per-shard entry
// ratio and zipfian point-lookup throughput, then runs
// ShardedIndex::Rebalance() on the range-sharded index and reports the
// ratio again ("adaptive" row).
//
// This is a *gate*, not just a report (CI runs it at --scale=ci): it exits
// non-zero unless
//   * the hashed kind's entry ratio is <= 1.5 (hash partitioning is
//     skew-immune),
//   * Rebalance() brings the range-sharded ratio under 2.0, and
//   * Rebalance() loses no keys (CountEntries before == after) and frees
//     the moved-out nodes (pm free counters advance; inner kind is
//     fastfair-reclaim so drained leaves really return to the pool).
//
// --maintenance replaces the foreground Rebalance() call with the
// background policy loop (DESIGN.md §6): after load, a MaintenanceThread
// watches the live per-shard counters and rebalances on its own — while a
// writer thread keeps upserting over the loaded keys (always-on
// maintenance: migration dual-routes live writers; there is no quiesced
// window). The bench waits for the scheduler to report itself idle and
// then gates that the imbalance converged to <= --rebalance-threshold
// (default 1.2) with zero lost keys — no foreground rebalance call (and
// no writer barrier) anywhere on that path.
//
// --skew sets theta (default 0.99, the YCSB constant); --shards the shard
// count. EXPERIMENTS.md ("Skewed workloads") records measured ratios.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/options.h"
#include "bench/runner.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "index/hash_sharded.h"
#include "index/sharded.h"
#include "maint/tasks.h"
#include "pm/persist.h"
#include "pm/pool.h"

namespace {

using namespace fastfair;

double LookupKops(const Index& idx, const std::vector<Key>& queries) {
  bench::Timer timer;
  std::size_t hits = 0;
  for (const Key k : queries) hits += idx.Search(k) != kNoValue;
  const std::uint64_t wall = timer.ElapsedNs();
  if (hits == 0) {
    std::fprintf(stderr, "FAIL: zipfian lookups never hit\n");
    std::exit(1);
  }
  return bench::Kops(queries.size(), wall);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::ParseOptions(argc, argv);
  if (opt.skew_set && opt.skew == 0.0) {
    // This bench *is* the zipfian sweep; a uniform run would gate nothing.
    std::fprintf(stderr,
                 "bench_micro_skew needs --skew in (0, 1); for uniform-key "
                 "behaviour see bench_micro_churn / the fig drivers\n");
    return 2;
  }
  const double theta = opt.skew_set ? opt.skew : 0.99;
  const std::size_t n = opt.ScaledN(10000000);  // ci: 50 K, small: 500 K
  const std::uint64_t universe = n * 4;
  // One generator, two streams: setup is O(universe) (workload.h).
  bench::ZipfianGenerator zipf(universe, theta);
  const auto keys = bench::ZipfianKeys(n, zipf, opt.seed);
  const auto queries = bench::ZipfianKeys(n, zipf, opt.seed ^ 0xbadd5eedull);

  // fastfair-reclaim inner kind: Rebalance()'s phase-3 removes then really
  // free the drained leaves, so the "freed_MB > 0" gate is meaningful.
  const std::string range_kind =
      "sharded-fastfair-reclaim:" + std::to_string(opt.shards);
  const std::string hash_kind =
      "hashed-fastfair-reclaim:" + std::to_string(opt.shards);

  std::printf(
      "Shard imbalance under zipfian(%.2f) keys: %zu draws over %llu ranks, "
      "%zu shards (ratio = max/min per-shard entries)\n",
      theta, n, static_cast<unsigned long long>(universe), opt.shards);
  bench::Table table({"sharding", "index", "ratio", "lookup_Kops",
                      "entries", "moved", "freed_MB"});
  bool ok = true;

  // --- range sharding, then Rebalance() (the "adaptive" row) ---------------
  {
    pm::Pool pool(std::size_t{1} << 30);
    auto idx = MakeIndex(range_kind, &pool);
    bench::LoadIndex(idx.get(), keys);
    auto* sharded = dynamic_cast<ShardedIndex*>(idx.get());
    if (sharded == nullptr) std::abort();
    const double ratio_range = ImbalanceRatio(sharded->ShardEntryCounts());
    const std::size_t entries = idx->CountEntries();
    table.AddRow({"range", range_kind, bench::Table::Num(ratio_range),
                  bench::Table::Num(LookupKops(*idx, queries)),
                  std::to_string(entries), "0", "0"});

    pm::ResetStats();
    const pm::ThreadStats before = pm::Stats();
    if (opt.maintenance) {
      // Background path: the policy task must close the loop by itself —
      // the bench never calls Rebalance(). Writers stay LIVE throughout:
      // always-on maintenance means the migration dual-routes racing
      // writers rather than waiting for a quiesced window, so a writer
      // thread upserts over the loaded key set the whole time the policy
      // loop watches, triggers, and migrates. Upserts over loaded keys
      // keep the entry count constant, so the zero-lost-keys gate below
      // stays exact even with the race running.
      maint::TaskOptions topts;
      topts.rebalance_threshold = opt.rebalance_threshold;
      auto mt = maint::MakeMaintenanceThread(
          &pool, {idx.get()}, topts,
          std::chrono::microseconds(opt.maint_interval_us));
      mt->Start();
      std::atomic<bool> stop_writer{false};
      std::atomic<std::uint64_t> writer_ops{0};
      std::thread writer([&] {
        Rng rng(opt.seed ^ 0x11feull);
        std::uint64_t ops = 0;
        while (!stop_writer.load(std::memory_order_relaxed)) {
          // Uniform over the loaded SET (not the zipfian universe): the
          // per-shard upsert overcount then scales every shard's counter
          // by the same factor, so the approximate imbalance signal the
          // policy reads keeps its shape instead of being re-skewed by
          // the writer itself.
          const Key k = keys[rng.NextBounded(keys.size())];
          idx->Insert(k, bench::ValueFor(k));
          ++ops;
        }
        writer_ops.fetch_add(ops, std::memory_order_relaxed);
      });
      const bool idle = mt->WaitIdle(std::chrono::milliseconds(60000));
      stop_writer.store(true, std::memory_order_relaxed);
      writer.join();
      mt->Stop();
      std::uint64_t rebalances = 0;
      for (const auto& rep : mt->StatsSnapshot()) {
        if (rep.name.rfind("rebalance:", 0) == 0) rebalances += rep.stats.items;
      }
      const pm::ThreadStats delta = pm::Stats() - before;
      const double ratio_maint = ImbalanceRatio(sharded->ShardEntryCounts());
      const std::size_t entries_after = idx->CountEntries();
      table.AddRow({"maint", range_kind, bench::Table::Num(ratio_maint),
                    bench::Table::Num(LookupKops(*idx, queries)),
                    std::to_string(entries_after),
                    std::to_string(rebalances),
                    bench::Table::Num(static_cast<double>(delta.free_bytes) /
                                      (1024.0 * 1024.0))});
      if (!idle) {
        std::fprintf(stderr, "FAIL: maintenance never reached idle\n");
        ok = false;
      }
      if (writer_ops.load() == 0) {
        std::fprintf(stderr,
                     "FAIL: live writer made no progress during the "
                     "background rebalance\n");
        ok = false;
      }
      if (rebalances == 0) {
        std::fprintf(stderr, "FAIL: policy task never triggered a rebalance "
                             "(ratio was %.2f)\n", ratio_range);
        ok = false;
      }
      if (entries_after != entries) {
        std::fprintf(stderr, "FAIL: background rebalance lost keys "
                             "(%zu -> %zu)\n", entries, entries_after);
        ok = false;
      }
      if (ratio_maint > opt.rebalance_threshold) {
        std::fprintf(stderr,
                     "FAIL: background rebalance imbalance %.2f (gate: <= "
                     "%.2f, was %.2f)\n",
                     ratio_maint, opt.rebalance_threshold, ratio_range);
        ok = false;
      }
    } else {
      const auto reb = sharded->Rebalance();
      const pm::ThreadStats delta = pm::Stats() - before;
      const double ratio_adaptive = ImbalanceRatio(sharded->ShardEntryCounts());
      const std::size_t entries_after = idx->CountEntries();
      table.AddRow({"adaptive", range_kind, bench::Table::Num(ratio_adaptive),
                    bench::Table::Num(LookupKops(*idx, queries)),
                    std::to_string(entries_after), std::to_string(reb.moved),
                    bench::Table::Num(static_cast<double>(delta.free_bytes) /
                                      (1024.0 * 1024.0))});
      if (entries_after != entries) {
        std::fprintf(stderr, "FAIL: Rebalance lost keys (%zu -> %zu)\n",
                     entries, entries_after);
        ok = false;
      }
      if (ratio_adaptive >= 2.0) {
        std::fprintf(stderr,
                     "FAIL: rebalanced range imbalance %.2f (gate: < 2.0, "
                     "was %.2f)\n",
                     ratio_adaptive, ratio_range);
        ok = false;
      }
      if (reb.moved > 0 && delta.free_bytes == 0) {
        std::fprintf(stderr,
                     "FAIL: migration moved %zu entries but freed nothing\n",
                     reb.moved);
        ok = false;
      }
    }
  }

  // --- hash sharding -------------------------------------------------------
  {
    pm::Pool pool(std::size_t{1} << 30);
    auto idx = MakeIndex(hash_kind, &pool);
    bench::LoadIndex(idx.get(), keys);
    auto* hashed = dynamic_cast<HashShardedIndex*>(idx.get());
    if (hashed == nullptr) std::abort();
    const double ratio_hash = ImbalanceRatio(hashed->ShardEntryCounts());
    table.AddRow({"hash", hash_kind, bench::Table::Num(ratio_hash),
                  bench::Table::Num(LookupKops(*idx, queries)),
                  std::to_string(idx->CountEntries()), "0", "0"});
    if (ratio_hash > 1.5) {
      std::fprintf(stderr, "FAIL: hashed imbalance %.2f (gate: <= 1.5)\n",
                   ratio_hash);
      ok = false;
    }
  }

  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return ok ? 0 : 1;
}
