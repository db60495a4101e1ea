// Minimal CLI option parsing shared by the bench binaries.
//
// Every bench accepts:
//   --scale=ci|small|paper   dataset sizing (default small; paper = the
//                            sizes in the publication, hours on one core)
//   --n=<count>              explicit dataset size override
//   --threads=<list>         comma-separated thread counts (Fig 7; a single
//                            count for fig6's multi-threaded TPC-C)
//   --shards=<count>         shard count for the sharded-*/hashed-* kinds
//   --sharding=range|hash|adaptive
//                            partitioning strategy for the sharded kind the
//                            benches ride along (range: merge-free scans;
//                            hash: balanced point ops under skew; adaptive:
//                            range + an explicit Rebalance() after load)
//   --skew=<theta>           zipfian skew for the key generators, 0 <=
//                            theta < 1 (0 = uniform, the paper's setup;
//                            0.99 = YCSB-style hot keys)
//   --churn=<rounds>         caps the delete-churn round count in benches
//                            that churn (micro_churn); default: run until
//                            the bench's allocation-volume target
//   --maintenance            run the background maintenance tier (DESIGN.md
//                            §6): limbo draining, drained-range sweeps, and
//                            the imbalance rebalance policy replace their
//                            foreground counterparts
//   --rebalance-threshold=<r>
//                            imbalance ratio above which the policy task
//                            triggers a rebalance (default 1.2, must be
//                            > 1.0); also the convergence gate the
//                            maintenance benches check
//   --maint-interval-us=<us> scheduler sleep after an idle maintenance
//                            cycle (default 1000)
//   --batch=<N>              operate in batches of N through the batched
//                            index entry points (SearchBatch/InsertBatch,
//                            DESIGN.md §8); 0 (default) = scalar ops
//   --service-workers=<N>    worker threads for the KV service tier
//                            (bench_service; DESIGN.md §10)
//   --batch-timeout-us=<us>  longest a service worker holds a partial
//                            cross-client group before flushing it
//   --quota=<ops/sec>        per-tenant token-bucket admission quota for
//                            the service tier; 0 (default) = unlimited
//   --scan-frac=<f>          fraction of bench_service's open-loop ops
//                            submitted as range scans (kScan requests, 100
//                            entries each), 0 <= f < 1; scans ride the
//                            cross-client grouped ScanBatch dispatch and
//                            get their own percentile columns under
//                            --latency. Default 0 (point ops only)
//   --latency                record per-op latency histograms (fig7) and
//                            print p50/p90/p99/p999 alongside throughput
//   --csv                    machine-readable output
//   --seed=<u64>             workload seed

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastfair::bench {

struct Options {
  std::string scale = "small";
  std::size_t n_override = 0;
  std::vector<int> threads;
  bool threads_set = false;  // true when --threads was passed explicitly
  std::size_t shards = 8;         // sharded-*/hashed-* shard count
  std::string sharding = "range";  // --sharding=range|hash|adaptive
  double skew = 0.0;               // --skew=theta; 0 = uniform keys
  bool skew_set = false;  // true when --skew was passed explicitly
  std::size_t churn_rounds = 0;  // --churn=R; 0 = bench-specific default
  bool maintenance = false;      // --maintenance: background tier on
  double rebalance_threshold = 1.2;     // --rebalance-threshold=R
  std::uint64_t maint_interval_us = 1000;  // --maint-interval-us=N
  std::size_t batch = 0;  // --batch=N; 0 = scalar operations
  std::size_t service_workers = 8;     // --service-workers=N (bench_service)
  std::uint64_t batch_timeout_us = 100;  // --batch-timeout-us=N
  std::uint64_t quota = 0;  // --quota=OPS per tenant/sec; 0 = unlimited
  double scan_frac = 0.0;   // --scan-frac=F: scan share of service op mix
  bool latency = false;     // --latency: per-op latency histograms
  bool csv = false;
  std::uint64_t seed = 20180213;  // FAST'18 opening day

  /// Dataset size for a microbench whose paper-scale count is `paper_n`.
  std::size_t ScaledN(std::size_t paper_n) const;

  /// The sharded index kind string for --shards and --sharding:
  /// "sharded-fastfair:8" for range/adaptive, "hashed-fastfair:8" for hash.
  std::string ShardedKind() const;

  /// True when --sharding=adaptive: benches Rebalance() the range-sharded
  /// index after loading it.
  bool AdaptiveSharding() const { return sharding == "adaptive"; }
};

Options ParseOptions(int argc, char** argv);

}  // namespace fastfair::bench
