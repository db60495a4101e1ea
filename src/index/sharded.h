// Range-sharded index adapter: the horizontal-scaling tier above any single
// Index implementation (DESIGN.md §4).
//
// The 64-bit key space is split into N contiguous ranges (fixed-point
// multiply: shard(k) = floor(k * N / 2^64)), one sub-index per range, all
// living in the same pm::Pool.  Range partitioning — not hashing — is what
// keeps Scan() cheap: each shard's keys are strictly greater than every key
// of the shard before it, so a cross-shard scan is the plain concatenation
// of per-shard scans, globally sorted with no merge step.  (The dual
// trade-off — balanced point ops under skew, merged scans — is
// HashShardedIndex, index/hash_sharded.h.)
//
// What sharding buys on top of the per-thread arena allocator (pm/pool.h):
// concurrent writers to *different* key ranges touch disjoint trees, so they
// share neither node locks nor split paths; with uniform keys, contention on
// the hottest structure (the root's children) drops by ~N.  The adapter is
// structure-agnostic — MakeIndex registers it over FAST+FAIR as
// "sharded-fastfair[:N]" (default 8 shards), but any factory works.
//
// Uniform-range partitioning is the paper-faithful choice for the uniform
// benchmark workloads.  Skewed workloads pile onto a few ranges; for those
// the adapter keeps live per-shard entry counters (relaxed, one padded
// counter per shard, touched only by mutations) and offers an explicit
// Rebalance() that recomputes the boundaries from the observed key
// quantiles and migrates entries shard-to-shard (protocol in DESIGN.md
// §4.3: copy to the new shard, publish the boundaries, then delete the
// stale copies — concurrent readers always find a key under whichever
// boundary set they observe, and concurrent writers dual-route through
// the migration window so racing upserts land exactly once).

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/index.h"

namespace fastfair {

/// Upper bound on the shard count accepted by the registry (and by the
/// benches' --shards flag), shared by the sharded- and hashed- grammars.
inline constexpr std::size_t kMaxShards = 1024;

/// The one parser for the sharded kind grammar
/// "sharded-<inner kind>[:N]" (e.g. "sharded-fastfair",
/// "sharded-fptree:4"): returns the shard count (default 8) and, when
/// `inner_kind` is non-null, stores the inner kind string; returns 0 when
/// `kind` does not name the sharded adapter at all; throws
/// std::invalid_argument for a malformed or out-of-range count, an empty
/// inner kind, or a nested sharding adapter ("sharded-"/"hashed-") as the
/// inner kind. Whether the inner kind itself exists is the registry's
/// (MakeIndex's) concern.
std::size_t TryParseShardedKind(std::string_view kind,
                                std::string* inner_kind = nullptr);

namespace detail {
/// Shared implementation behind TryParseShardedKind and TryParseHashedKind:
/// parses "<prefix><inner kind>[:N]" with the contract documented on
/// TryParseShardedKind.
std::size_t ParseShardGrammar(std::string_view kind, std::string_view prefix,
                              std::string* inner_kind);

/// Builds `num_shards` sub-indexes via `make` into `*out`; returns true iff
/// every one supports concurrent callers. Throws std::invalid_argument when
/// `num_shards` is zero. Shared by the range- and hash-sharded adapters.
bool BuildShardVector(
    std::size_t num_shards,
    const std::function<std::unique_ptr<Index>(std::size_t)>& make,
    std::vector<std::unique_ptr<Index>>* out);

/// Exact per-shard entry counts via each shard's CountEntries — the shared
/// body of both adapters' ShardEntryCounts/CountEntries (quiescent-state
/// helpers; under writers the per-shard sums are relaxed snapshots).
std::vector<std::size_t> PerShardEntryCounts(
    const std::vector<std::unique_ptr<Index>>& shards);

/// Stable counting-sort bucketing shared by both adapters' batch paths:
/// given per-element shard ids, fills `order` with the element indexes
/// grouped by shard (original order preserved within each shard) and
/// `start` with per-shard offsets into it (size num_shards + 1).
void BucketByShard(const std::uint32_t* shard_ids, std::size_t n,
                   std::size_t num_shards, std::vector<std::uint32_t>* order,
                   std::vector<std::size_t>* start);

/// The shared batch driver behind all four sharded batch entry points:
/// routes every element with `shard_of`, stable-buckets the batch
/// (BucketByShard), gathers each shard's elements contiguously (original
/// order preserved, so duplicate-key upsert semantics survive), and hands
/// each non-empty group to `dispatch(shard, elems, len, positions)` —
/// `positions` being the group's original batch indexes, for scattering
/// per-element results back to the caller's slots.
template <class Elem, class ShardOfFn, class DispatchFn>
void DispatchBatchByShard(const Elem* elems, std::size_t n,
                          std::size_t num_shards, ShardOfFn&& shard_of,
                          DispatchFn&& dispatch) {
  std::vector<std::uint32_t> shard_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard_ids[i] = static_cast<std::uint32_t>(shard_of(elems[i]));
  }
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> start;
  BucketByShard(shard_ids.data(), n, num_shards, &order, &start);
  std::vector<Elem> gathered(n);
  for (std::size_t p = 0; p < n; ++p) gathered[p] = elems[order[p]];
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t len = start[s + 1] - start[s];
    if (len == 0) continue;
    dispatch(s, gathered.data() + start[s], len, order.data() + start[s]);
  }
}
}  // namespace detail

/// max/min over per-shard entry counts, the imbalance metric the skew
/// benches gate on (empty shards clamp the denominator to 1, so a shard
/// left empty by skew is charged, not hidden). 1.0 for an empty index.
double ImbalanceRatio(const std::vector<std::size_t>& shard_entries);

class ShardedIndex final : public Index {
 public:
  /// Builds sub-index number `shard` (0-based). All shards should be of the
  /// same kind; Scan correctness only needs each to return sorted results.
  using ShardFactory = std::function<std::unique_ptr<Index>(std::size_t)>;

  /// Equal-width partition of the full [0, 2^64) key space into
  /// `num_shards` ranges. Throws std::invalid_argument when zero.
  ShardedIndex(std::string name, std::size_t num_shards,
               const ShardFactory& make);

  /// Explicit range boundaries for keys that occupy only a slice of the
  /// 2^64 space (e.g. TPC-C's packed composite keys, src/tpcc/db.cc):
  /// `boundaries[i]` is the first key of shard i+1, non-decreasing; shard
  /// count = boundaries.size() + 1. Throws std::invalid_argument when the
  /// boundaries are not sorted.
  ShardedIndex(std::string name, std::vector<Key> boundaries,
               const ShardFactory& make);

  void Insert(Key key, Value value) override;
  bool Remove(Key key) override;
  Value Search(Key key) const override;
  std::size_t Scan(Key min_key, std::size_t max_results,
                   core::Record* out) const override;

  /// Native batch overrides (DESIGN.md §8.3): the batch is partitioned by
  /// shard in one routing pass under a single epoch pin (scalar ops pin
  /// per key), then each shard receives its sub-batch in original order —
  /// one virtual call and one counter update per shard group instead of
  /// one per key — and results (values, per-op insert statuses) scatter
  /// back to the caller's positions.
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const override;
  using Index::InsertBatch;  // keep the 2-arg convenience form visible
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override;

  /// Batched scans: start keys bucket per shard (BucketByShard) so each
  /// shard drains its group through one native ScanBatch call; because the
  /// shards are ordered ranges the drains stay merge-free, and an op that
  /// exhausts its start shard short of `cap` continues into the following
  /// shards from key 0, exactly like the scalar Scan's concatenation.
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override;

  /// Sums the per-shard counts shard by shard, *non-atomically* with
  /// respect to concurrent writers: an insert or remove that lands in a
  /// shard after that shard was counted but while later shards are still
  /// being walked is missed (or, for a Rebalance-migrated entry, counted
  /// twice). The result is exact only at quiescence; under concurrency it
  /// is a relaxed snapshot bounded by the true count plus in-flight ops.
  /// Tests that count while writers run must tolerate that window
  /// (tests/sharded_index_test.cc: CountEntriesDuringWritesIsRelaxed).
  std::size_t CountEntries() const override;

  /// Streams shard by shard in range order — merge-free, like Scan.
  /// The iterator holds an epoch pin until it is exhausted or destroyed,
  /// so a Rebalance racing an open iterator cannot delete the stale
  /// copies (or reclaim drained nodes) out from under it: the snapshot
  /// stays consistent through copy/publish/delete. Epoch pins are
  /// thread-affine — create, drain and destroy the iterator on one
  /// thread, and never call Rebalance() on a thread holding an
  /// unexhausted iterator (the grace periods would wait on its own pin).
  std::unique_ptr<ScanIterator> NewScanIterator(Key min_key) const override;

  std::string_view name() const override { return name_; }
  /// True iff every shard supports concurrent callers (operations on one
  /// key never touch more than its own shard).
  bool supports_concurrency() const override { return concurrent_; }

  std::size_t num_shards() const { return shards_.size(); }

  /// Monotonic in `key`: explicit boundaries when configured (the buffer
  /// published last by the constructor or Rebalance), otherwise the
  /// equal-width fixed-point partition of [0, 2^64). seq_cst load (a plain
  /// MOV on x86): pairs with Rebalance's seq_cst publish + epoch grace
  /// period so a reader pinned after the grace period provably routes by
  /// the new boundaries.
  std::size_t ShardOf(Key key) const {
    return ShardWith(bounds_[active_.load(std::memory_order_seq_cst)], key);
  }

  // --- skew instrumentation + rebalance (DESIGN.md §4.3) -------------------

  /// Live approximate entries per shard from the relaxed counters:
  /// +1 per Insert (upserts overcount re-inserted keys), -1 per successful
  /// Remove; resynced to exact counts by Rebalance().
  std::vector<std::size_t> ApproxShardEntries() const;

  /// Exact per-shard entry counts via each shard's CountEntries
  /// (quiescent-state helper, like CountEntries itself).
  std::vector<std::size_t> ShardEntryCounts() const;

  struct RebalanceResult {
    std::size_t moved = 0;          // entries migrated to a different shard
    double imbalance_before = 1.0;  // ImbalanceRatio over exact counts
    double imbalance_after = 1.0;
  };

  /// Recomputes the shard boundaries from the observed key quantiles (each
  /// new shard gets ~1/N of the live entries) and migrates every entry
  /// whose new shard differs. Protocol (DESIGN.md §4.3): (1) copy each
  /// moving entry into its new shard while the old boundaries still route
  /// lookups to the old copy, (2) publish the new boundaries (seq_cst
  /// store paired with ShardOf's seq_cst load plus an epoch grace period;
  /// readers see either boundary set, both of which route
  /// every key to a shard that holds it), (3) remove the stale copies from
  /// the old shards — with a reclaiming inner kind (fastfair-reclaim) this
  /// frees the drained nodes through the pool free lists under the
  /// existing epoch guards (pm/reclaim.h; the inner ops pin).
  ///
  /// Safe under concurrent *readers*: Search/Scan pin the reclamation
  /// epoch across route + lookup, and the publish step waits out every
  /// pinned reader before the stale copies are deleted (and before an
  /// older boundary buffer is reused), so a reader routed by either
  /// boundary set always finds its key. A cross-shard Scan may
  /// transiently see a migrating key twice.
  ///
  /// Safe under concurrent *writers* too (DESIGN.md §4.3): through the
  /// migration window (`migrating_` set, bracketed by epoch grace
  /// periods) every Insert/Remove applies under BOTH boundary sets —
  /// old shard first, then a per-key migration-stripe bump, then the new
  /// shard — and phase 1's copy loop re-reads any key whose stripe moved
  /// (seqlock), so a racing upsert lands exactly once: either the copy
  /// observes the post-write value, or the writer's own new-shard apply
  /// is ordered after the copy and wins. Two writers racing the *same*
  /// key through the window get a linearizable-but-arbitrary winner,
  /// exactly as they would racing the same leaf without a rebalance.
  /// Requires the inner shards to support concurrent callers when
  /// writers are live (a non-concurrent inner kind such as sharded-wort
  /// keeps the single-writer contract it always had). Calls serialize on
  /// an internal mutex.
  RebalanceResult Rebalance();

  /// Contributes an ImbalancePolicyTask that closes the counters →
  /// Rebalance loop in the background, then recurses into the shards (a
  /// reclaiming inner kind adds its per-shard sweep tasks).
  void CollectMaintenanceTasks(
      const maint::TaskOptions& opts,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) override;

 private:
  // Padded so two shards' counters never share a cache line: the counters
  // measure skew, they must not add cross-shard contention of their own.
  // Only mutations touch them; lookups stay instrumentation-free.
  struct alignas(kCacheLineSize) ShardCounters {
    std::atomic<std::int64_t> entries{0};
  };

  /// Routes `key` under an explicit boundary buffer (empty => uniform
  /// fixed-point partition). ShardOf routes under the active buffer; the
  /// migration window routes each write under both buffers with ONE
  /// active_ load (two loads could straddle the publish and route both
  /// applies to the same shard, losing the write).
  std::size_t ShardWith(const std::vector<Key>& b, Key key) const {
    if (!b.empty()) {
      return static_cast<std::size_t>(
          std::upper_bound(b.begin(), b.end(), key) - b.begin());
    }
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(key) * shards_.size()) >> 64);
  }

  /// The key's migration seqlock stripe (Fibonacci hash, top bits).
  /// Collisions only cause spurious copy-loop retries, never misses.
  std::atomic<std::uint64_t>& MigSeqOf(Key key) const {
    return mig_seq_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kMigStripeBits)];
  }

  void BuildShards(std::size_t num_shards, const ShardFactory& make);

  std::vector<std::unique_ptr<Index>> shards_;
  std::unique_ptr<ShardCounters[]> counters_;  // one per shard
  // Double-buffered boundaries: Rebalance writes the inactive buffer, then
  // publishes it with one release store; ShardOf never sees a half-written
  // vector. Empty active buffer => uniform fixed-point partition.
  std::array<std::vector<Key>, 2> bounds_;
  std::atomic<unsigned> active_{0};
  // Live-writer migration window (DESIGN.md §4.3). While set (between
  // Rebalance's pre-copy and pre-delete grace periods) writers dual-route
  // and bump their key's stripe between the two applies; the copy loop
  // retries any key whose stripe moved. Striped rather than per-key: the
  // counters are contention-only state, never consulted for routing.
  static constexpr unsigned kMigStripeBits = 10;  // 1024 stripes
  std::atomic<bool> migrating_{false};
  std::unique_ptr<std::atomic<std::uint64_t>[]> mig_seq_;
  std::mutex rebalance_mu_;
  std::string name_;
  bool concurrent_ = true;
};

}  // namespace fastfair
