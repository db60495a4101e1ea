// Uniform index interface: every structure the paper evaluates implements
// it, so benchmarks, TPC-C, and comparative tests treat them identically.
//
// Implementations:
//   fastfair            FAST+FAIR B+-tree, lock-free search  (src/core)
//   fastfair-leaflock   FAST+FAIR + shared leaf latches (serializable reads)
//   fastfair-logging    FAST + undo-logged splits (Fig 5 "FAST+Logging")
//   fastfair-binary     FAST+FAIR with in-node binary search (Fig 3)
//   fastfair-reclaim    FAST+FAIR recycling emptied leaves through the
//                       pool free lists (delete churn; DESIGN.md §3.1)
//   wbtree              wB+-tree, slot-array + bitmap nodes          [14]
//   fptree              FP-tree, PM leaves + volatile inner nodes    [17]
//   wort                WORT write-optimal radix tree                [32]
//   skiplist            persistent skip list                         [33]
//   blink               volatile B-link tree (concurrency reference) [29]
//   sharded-<kind>[:N]  N range-partitioned sub-indexes of any kind
//                       above (index/sharded.h), e.g. "sharded-fastfair"
//                       (default 8 shards) or "sharded-fptree:4"
//   hashed-<kind>[:N]   N hash-partitioned sub-indexes (fibonacci hash,
//                       index/hash_sharded.h): balanced point ops under
//                       key skew, scans pay a k-way merge,
//                       e.g. "hashed-fastfair:8"
//
// README.md ("Index registry") holds the full reference table for the
// grammar; DESIGN.md §4 documents the sharding tier.

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/defs.h"
#include "core/node.h"  // core::Record
#include "pm/pool.h"

namespace fastfair {

namespace maint {
class MaintenanceTask;
struct TaskOptions;
}  // namespace maint

namespace core {
template <std::size_t PageSize>
class BTreeT;
using BTree = BTreeT<512>;  // core/btree.h
}  // namespace core

/// Streaming cursor over an index's entries in ascending key order.
/// Obtained from Index::NewScanIterator; lives at most as long as the index
/// it iterates. Semantics under concurrent mutation match Scan's: entries
/// present for the whole iteration are returned exactly once, concurrently
/// inserted/removed entries may or may not appear (best effort).
class ScanIterator {
 public:
  virtual ~ScanIterator() = default;

  /// Writes the next entry to `*out` and returns true; returns false when
  /// the iteration is exhausted (then `*out` is untouched).
  virtual bool Next(core::Record* out) = 0;
};

class Index {
 public:
  virtual ~Index() = default;

  /// Upsert. `value` must not be kNoValue.
  virtual void Insert(Key key, Value value) = 0;

  /// Returns false if the key was absent.
  virtual bool Remove(Key key) = 0;

  /// kNoValue if absent.
  virtual Value Search(Key key) const = 0;

  /// One class-ordered batch of point ops (PointOps, common/defs.h): the
  /// puts, then the deletes, then the gets, with the per-op results of
  /// InsertBatch, RemoveBatch and SearchBatch called in that sequence. The
  /// default (adapters.cc) is exactly those three calls, so baselines and
  /// decorators that override them behave as before; the core tree runs
  /// the whole batch as one pipeline, whose descent waves cut across the
  /// class boundaries (core/btree.h), and the sharded adapters route every
  /// op once into one cross-tree call of it per chunk (DESIGN.md §8.3).
  virtual void PointBatch(const PointOps& ops);

  /// Batched point lookups: out[i] = Search(keys[i]) for every i (keys
  /// need not be sorted or distinct). The default is a plain loop
  /// (adapters.cc) so every kind accepts batches; kinds with a native
  /// pipeline override it — the core tree interleaves prefetching
  /// descents (core/btree.h), the sharded adapters run it as a gets-only
  /// PointBatch.
  virtual void SearchBatch(const Key* keys, std::size_t n, Value* out) const;

  /// Batched upserts, equivalent to Insert(ops[i].key, ops[i].ptr) in
  /// order; duplicate keys within the batch resolve to the last
  /// occurrence. Same default-loop / native-override contract as
  /// SearchBatch. Forwards to the status-reporting overload below.
  void InsertBatch(const core::Record* ops, std::size_t n) {
    InsertBatch(ops, n, nullptr);
  }

  /// Batched upserts with per-op result codes: when `out` is non-null,
  /// out[i] reports whether op i created its key (kInserted) or overwrote
  /// an existing entry (kUpdated) — the service tier's Put replies depend
  /// on this. The core tree reports exactly from its leaf upsert; over
  /// core-tree shards the sharded/hashed adapters run the batch as one
  /// cross-tree call that writes each op's status in place; the default
  /// adapter (adapters.cc) falls back to a Search-then-Insert probe per
  /// op, which is exact for a quiesced index but best-effort when a
  /// concurrent writer races the same key.
  virtual void InsertBatch(const core::Record* ops, std::size_t n,
                           InsertStatus* out);

  /// Batched removes: out[i] = Remove(keys[i]) for every i, in batch
  /// order (a duplicate key's second occurrence reports false). Same
  /// default-loop / native-override contract as SearchBatch.
  virtual void RemoveBatch(const Key* keys, std::size_t n, bool* out);

  /// Up to `max_results` entries with key >= min_key, ascending. Returns
  /// the count written to `out`.
  virtual std::size_t Scan(Key min_key, std::size_t max_results,
                           core::Record* out) const = 0;

  /// Batched range scans: out_counts[i] = Scan(ops[i].min_key, ops[i].cap,
  /// ops[i].out) for every i. Start keys need not be sorted or distinct;
  /// the per-op output buffers must not alias. Same default-loop / native-
  /// override contract as SearchBatch: the default is a plain Scan loop
  /// (adapters.cc), the core tree interleaves grouped descents and
  /// hand-over-hand leaf-chain drains (core/btree.h), and the range-sharded
  /// adapter routes each start key once and drains merge-free; the
  /// hash-sharded adapter keeps the default loop (DESIGN.md §8.3).
  virtual void ScanBatch(const ScanOp* ops, std::size_t n,
                         std::size_t* out_counts) const;

  virtual std::string_view name() const = 0;

  /// The FAST+FAIR tree behind this index when it is exactly one
  /// (`fastfair`, `fastfair-reclaim`, ...), else nullptr. The sharded
  /// adapters read it once at construction: when every shard has one,
  /// their batches run as one cross-tree pipeline (DESIGN.md §8.3).
  virtual core::BTree* core_tree() { return nullptr; }

  /// True when concurrent callers are supported (Fig 7 set).
  virtual bool supports_concurrency() const { return false; }

  /// Total live entries. Quiescent-state helper for tests and examples; the
  /// default walks the index with batched Scans, adapters with a native
  /// counter override it.
  virtual std::size_t CountEntries() const;

  /// Streaming scan starting at the first key >= `min_key`. The default
  /// is detail::BatchedScanIterator over the batched Scan entry point, so
  /// every registered kind gets an iterator for free; composite indexes
  /// override it to stream across sub-indexes without materializing
  /// (sharded: shard chaining; hashed: bounded k-way merge). The iterator
  /// borrows the index — it must not outlive it.
  virtual std::unique_ptr<ScanIterator> NewScanIterator(Key min_key) const;

  /// Maintenance integration (src/maint, DESIGN.md §6): appends this
  /// index's background tasks to `*out` — an imbalance policy for the
  /// range-sharded adapter, a drained-range sweep per reclaiming tree;
  /// composite adapters recurse into their sub-indexes. Default: no tasks
  /// (most kinds have nothing to maintain). The tasks borrow this index —
  /// stop the scheduler before destroying it — and are safe under live
  /// readers and writers (maint/maintenance.h).
  virtual void CollectMaintenanceTasks(
      const maint::TaskOptions& opts,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out);

 protected:
  /// The default per-op loops of InsertBatch, RemoveBatch and SearchBatch
  /// over `ops`, in class order: the fallback of adapters whose own batch
  /// overrides route into their PointBatch.
  void PointBatchLoops(const PointOps& ops);
};

namespace detail {

/// The default streaming scan (Index::NewScanIterator): pulls batches
/// through the index's ScanBatch entry point and restarts one past the
/// last key seen. Batches start at `first_batch` records (at least 1,
/// capped at kMaxBatch) and double per refill up to kMaxBatch, so
/// consumers that take only a few entries (one cursor per shard under
/// the hashed merge) don't pay for a full batch. A refill is two steps,
/// NextScan() then Take(), so a caller holding several cursors can run
/// their refills as one batch.
class BatchedScanIterator final : public ScanIterator {
 public:
  static constexpr std::size_t kFirstBatch = 16;
  static constexpr std::size_t kMaxBatch = 256;

  BatchedScanIterator(const Index* idx, Key min_key,
                      std::size_t first_batch = kFirstBatch)
      : idx_(idx),
        next_key_(min_key),
        batch_(std::min(first_batch, kMaxBatch)) {}

  bool Next(core::Record* out) override;

  /// The scan the next refill runs, into this cursor's buffer; valid once
  /// the buffered records are used up, until the cursor is done.
  ScanOp NextScan() { return {next_key_, batch_, buf_}; }
  /// Takes the `n` records the NextScan() op returned.
  void Take(std::size_t n);

 private:
  const Index* idx_;
  Key next_key_;
  std::size_t batch_;
  std::size_t pos_ = 0;
  std::size_t n_ = 0;
  bool done_ = false;
  core::Record buf_[kMaxBatch];
};

}  // namespace detail

/// Factory over the registry above; throws std::invalid_argument for an
/// unknown kind. Node sizes follow each paper's best setting (wB+-tree and
/// FP-tree leaves 1 KB; FAST+FAIR 512 B) unless the caller overrides.
std::unique_ptr<Index> MakeIndex(std::string_view kind, pm::Pool* pool);

/// All registry kinds, in the order the paper's figures list them.
std::vector<std::string> AllIndexKinds();

}  // namespace fastfair
