#include "index/hash_sharded.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/btree.h"

namespace fastfair {

std::size_t TryParseHashedKind(std::string_view kind,
                               std::string* inner_kind) {
  return detail::ParseShardGrammar(kind, "hashed-", inner_kind);
}

HashShardedIndex::HashShardedIndex(std::string name, std::size_t num_shards,
                                   const ShardFactory& make)
    : name_(std::move(name)) {
  concurrent_ = detail::BuildShardVector(num_shards, make, &shards_);
  core_ = detail::CoreTrees(shards_);
}

void HashShardedIndex::Insert(Key key, Value value) {
  shards_[ShardOf(key)]->Insert(key, value);
}

bool HashShardedIndex::Remove(Key key) {
  return shards_[ShardOf(key)]->Remove(key);
}

Value HashShardedIndex::Search(Key key) const {
  return shards_[ShardOf(key)]->Search(key);
}

void HashShardedIndex::PointBatch(const PointOps& ops) {
  if (core_.empty()) {
    PointBatchLoops(ops);
    return;
  }
  core::BTree* trees[detail::kRouteChunk];
  const std::size_t n = ops.size();
  for (std::size_t i = 0; i < n; i += detail::kRouteChunk) {
    const std::size_t g = std::min(detail::kRouteChunk, n - i);
    for (std::size_t j = 0; j < g; ++j) {
      trees[j] = core_[ShardOf(ops.KeyAt(i + j))];
    }
    core::BTree::PointBatch(trees, ops.Slice(i, g));
  }
}

void HashShardedIndex::SearchBatch(const Key* keys, std::size_t n,
                                   Value* out) const {
  // A gets-only batch writes nothing.
  const_cast<HashShardedIndex*>(this)->PointBatch(
      {.gets = keys, .n_gets = n, .get_out = out});
}

void HashShardedIndex::InsertBatch(const core::Record* ops, std::size_t n,
                                   InsertStatus* out) {
  PointBatch({.puts = ops, .n_puts = n, .put_out = out});
}

void HashShardedIndex::RemoveBatch(const Key* keys, std::size_t n,
                                   bool* out) {
  PointBatch({.dels = keys, .n_dels = n, .del_out = out});
}

namespace {

// Bounded k-way merge: one default batched cursor per shard plus an
// N-entry min-heap of their current heads. Keys are unique across shards
// (hash routing), so ties can only pair distinct sources; src breaks them
// for determinism anyway.
class MergeScanIterator final : public ScanIterator {
 public:
  // When every shard is a core tree (`core` non-empty), the first fill
  // runs all shards' first batches as one cross-tree ScanBatch, so the N
  // descents share grouped read stalls; otherwise, and for every later
  // refill, each cursor refills itself.
  MergeScanIterator(const std::vector<std::unique_ptr<Index>>& shards,
                    const std::vector<core::BTree*>& core, Key min_key,
                    std::size_t first_batch) {
    const std::size_t n = shards.size();
    cur_.reserve(n);
    for (const auto& shard : shards) {
      cur_.emplace_back(shard.get(), min_key, first_batch);
    }
    if (!core.empty()) {
      std::vector<ScanOp> ops(n);
      std::vector<std::size_t> counts(n);
      for (std::size_t s = 0; s < n; ++s) ops[s] = cur_[s].NextScan();
      core::BTree::ScanBatch(core.data(), ops.data(), n, counts.data());
      for (std::size_t s = 0; s < n; ++s) cur_[s].Take(counts[s]);
    }
    for (std::size_t s = 0; s < n; ++s) Advance(s);
  }

  bool Next(core::Record* out) override {
    // Lazy advance: the source popped last moves on only now, so a caller
    // that stops at its cap never refills a shard it will not read.
    if (popped_ != kNone) Advance(std::exchange(popped_, kNone));
    if (heap_.empty()) return false;
    const Head head = heap_.top();
    heap_.pop();
    *out = head.rec;
    popped_ = head.src;
    return true;
  }

 private:
  struct Head {
    core::Record rec;
    std::size_t src;
  };
  struct Greater {
    bool operator()(const Head& a, const Head& b) const {
      return a.rec.key != b.rec.key ? a.rec.key > b.rec.key : a.src > b.src;
    }
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  void Advance(std::size_t src) {
    core::Record rec;
    if (cur_[src].Next(&rec)) heap_.push({rec, src});
  }

  std::vector<detail::BatchedScanIterator> cur_;
  std::priority_queue<Head, std::vector<Head>, Greater> heap_;
  std::size_t popped_ = kNone;
};

}  // namespace

std::unique_ptr<ScanIterator> HashShardedIndex::NewScanIterator(
    Key min_key) const {
  return std::make_unique<MergeScanIterator>(
      shards_, core_, min_key, detail::BatchedScanIterator::kFirstBatch);
}

std::size_t HashShardedIndex::Scan(Key min_key, std::size_t max_results,
                                   core::Record* out) const {
  if (max_results == 0) return 0;
  // First batch per shard: twice a shard's expected share of the cap, so
  // most shards never refill (a refill is one more stall); at least
  // kFirstBatch, at most the cap (and the cursor's kMaxBatch).
  const std::size_t share =
      (2 * max_results + shards_.size() - 1) / shards_.size();
  MergeScanIterator it(
      shards_, core_, min_key,
      std::min(max_results,
               std::max(detail::BatchedScanIterator::kFirstBatch, share)));
  std::size_t n = 0;
  while (n < max_results && it.Next(&out[n])) ++n;
  return n;
}

std::size_t HashShardedIndex::CountEntries() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->CountEntries();
  return total;
}

std::vector<std::size_t> HashShardedIndex::ShardEntryCounts() const {
  return detail::PerShardEntryCounts(shards_);
}

void HashShardedIndex::CollectMaintenanceTasks(
    const maint::TaskOptions& opts,
    std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) {
  for (const auto& shard : shards_) {
    shard->CollectMaintenanceTasks(opts, out);
  }
}

}  // namespace fastfair
