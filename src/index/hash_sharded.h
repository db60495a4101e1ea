// Hash-sharded index adapter: the skew-immune sibling of ShardedIndex
// (DESIGN.md §4.2).
//
// Keys route by fibonacci hashing — shard(k) = floor(mix(k) * N / 2^64)
// with mix(k) = k * 2^64/φ — so any key distribution, no matter how
// clustered in key space, spreads near-uniformly across the N sub-indexes:
// the property range partitioning loses under zipfian or sequential keys.
// The price is paid by Scan: per-shard results are each sorted but
// interleave globally, so a cross-shard scan runs a bounded k-way merge
// (one default batched cursor per shard + an N-entry min-heap; memory is
// O(N · batch), never the result set). Scan, NewScanIterator and the
// Index::ScanBatch default loop all run that one merge.
//
// Registry grammar mirrors the range adapter: "hashed-<kind>[:N]" (default
// 8 shards), e.g. "hashed-fastfair:8", parsed by TryParseHashedKind. Pick
// hashed- for point-op-heavy skewed workloads, sharded- for scan-heavy
// ones; range sharding plus ShardedIndex::Rebalance() covers the middle
// (trade-offs in DESIGN.md §4, measured in bench/micro_skew.cc).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/sharded.h"

namespace fastfair {

/// Parser for the hashed kind grammar "hashed-<inner kind>[:N]", same
/// contract as TryParseShardedKind (0 when `kind` is not hashed-, throws on
/// malformed counts / empty or nested inner kinds).
std::size_t TryParseHashedKind(std::string_view kind,
                               std::string* inner_kind = nullptr);

class HashShardedIndex final : public Index {
 public:
  using ShardFactory = ShardedIndex::ShardFactory;

  /// N hash-partitioned sub-indexes. Throws std::invalid_argument when
  /// `num_shards` is zero.
  HashShardedIndex(std::string name, std::size_t num_shards,
                   const ShardFactory& make);

  void Insert(Key key, Value value) override;
  bool Remove(Key key) override;
  Value Search(Key key) const override;

  /// Native point batch (DESIGN.md §8.3), when every shard is a core
  /// tree: each op is hash-routed once and every chunk of kRouteChunk ops
  /// runs, in class order, as one cross-tree PointBatch whose descent
  /// waves mix shards. Other inner kinds take the Index default loops.
  /// The three class batch calls are its one-class cases.
  void PointBatch(const PointOps& ops) override;
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const override;
  using Index::InsertBatch;  // keep the 2-arg convenience form visible
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override;
  void RemoveBatch(const Key* keys, std::size_t n, bool* out) override;

  /// Bounded k-way merge across the per-shard scans: globally sorted, same
  /// result as any other kind's Scan (hash routing never duplicates a key
  /// across shards). The shards' first batches run as one cross-tree
  /// ScanBatch; `max_results == 0` touches no shard.
  std::size_t Scan(Key min_key, std::size_t max_results,
                   core::Record* out) const override;

  /// Same relaxed concurrent semantics as ShardedIndex::CountEntries:
  /// shard sums taken non-atomically, exact only at quiescence.
  std::size_t CountEntries() const override;

  /// The streaming form of the k-way merge Scan.
  std::unique_ptr<ScanIterator> NewScanIterator(Key min_key) const override;

  std::string_view name() const override { return name_; }
  bool supports_concurrency() const override { return concurrent_; }

  std::size_t num_shards() const { return shards_.size(); }

  /// Fibonacci-hash routing: multiplying by 2^64/φ mixes low-entropy key
  /// prefixes across the high bits the fixed-point shard multiply reads,
  /// so clustered keys still spread (golden-ratio multiplicative hashing).
  std::size_t ShardOf(Key key) const {
    const Key mixed = key * 0x9E3779B97F4A7C15ull;  // 2^64 / φ
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(mixed) * shards_.size()) >> 64);
  }

  /// Exact per-shard entry counts (quiescent-state helper); feed to
  /// ImbalanceRatio (index/sharded.h) for the skew metric.
  std::vector<std::size_t> ShardEntryCounts() const;

  /// No policy task of its own (hash routing is skew-immune by
  /// construction); recurses into the shards so a reclaiming inner kind
  /// still contributes its per-shard sweep tasks.
  void CollectMaintenanceTasks(
      const maint::TaskOptions& opts,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) override;

 private:
  std::vector<std::unique_ptr<Index>> shards_;
  std::vector<core::BTree*> core_;  // detail::CoreTrees(shards_)
  std::string name_;
  bool concurrent_ = true;
};

}  // namespace fastfair
