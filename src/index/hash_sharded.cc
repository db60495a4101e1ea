#include "index/hash_sharded.h"

#include <queue>
#include <stdexcept>

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

void HashShardedIndex::SearchBatch(const Key* keys, std::size_t n,
                                   Value* out) const {
  if (core_.empty()) {
    Index::SearchBatch(keys, n, out);
    return;
  }
  const core::BTree* trees[detail::kRouteChunk];
  for (std::size_t i = 0; i < n; i += detail::kRouteChunk) {
    const std::size_t g = std::min(detail::kRouteChunk, n - i);
    for (std::size_t j = 0; j < g; ++j) trees[j] = core_[ShardOf(keys[i + j])];
    core::BTree::SearchBatch(trees, keys + i, g, out + i);
  }
}

void HashShardedIndex::InsertBatch(const core::Record* ops, std::size_t n,
                                   InsertStatus* out) {
  if (core_.empty()) {
    Index::InsertBatch(ops, n, out);
    return;
  }
  core::BTree* trees[detail::kRouteChunk];
  for (std::size_t i = 0; i < n; i += detail::kRouteChunk) {
    const std::size_t g = std::min(detail::kRouteChunk, n - i);
    for (std::size_t j = 0; j < g; ++j) {
      trees[j] = core_[ShardOf(ops[i + j].key)];
    }
    core::BTree::InsertBatch(trees, ops + i, g,
                             out != nullptr ? out + i : nullptr);
  }
}

void HashShardedIndex::RemoveBatch(const Key* keys, std::size_t n,
                                   bool* out) {
  if (core_.empty()) {
    Index::RemoveBatch(keys, n, out);
    return;
  }
  core::BTree* trees[detail::kRouteChunk];
  for (std::size_t i = 0; i < n; i += detail::kRouteChunk) {
    const std::size_t g = std::min(detail::kRouteChunk, n - i);
    for (std::size_t j = 0; j < g; ++j) trees[j] = core_[ShardOf(keys[i + j])];
    core::BTree::RemoveBatch(trees, keys + i, g, out + i);
  }
}

namespace {

// Bounded k-way merge: one streaming iterator per shard plus an N-entry
// min-heap of their current heads. Keys are unique across shards (hash
// routing), so ties can only pair distinct sources; src breaks them for
// determinism anyway.
class MergeScanIterator final : public ScanIterator {
 public:
  MergeScanIterator(const std::vector<std::unique_ptr<Index>>& shards,
                    Key min_key) {
    its_.reserve(shards.size());
    for (const auto& shard : shards) {
      auto it = shard->NewScanIterator(min_key);
      core::Record rec;
      if (it->Next(&rec)) heap_.push({rec, its_.size()});
      its_.push_back(std::move(it));
    }
  }

  bool Next(core::Record* out) override {
    if (heap_.empty()) return false;
    const Head head = heap_.top();
    heap_.pop();
    *out = head.rec;
    core::Record rec;
    if (its_[head.src]->Next(&rec)) heap_.push({rec, head.src});
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

  std::vector<std::unique_ptr<ScanIterator>> its_;
  std::priority_queue<Head, std::vector<Head>, Greater> heap_;
};

}  // namespace

std::unique_ptr<ScanIterator> HashShardedIndex::NewScanIterator(
    Key min_key) const {
  return std::make_unique<MergeScanIterator>(shards_, min_key);
}

std::size_t HashShardedIndex::Scan(Key min_key, std::size_t max_results,
                                   core::Record* out) const {
  auto it = NewScanIterator(min_key);
  std::size_t n = 0;
  while (n < max_results && it->Next(&out[n])) ++n;
  return n;
}

void HashShardedIndex::ScanBatch(const ScanOp* ops, std::size_t n,
                                 std::size_t* out_counts) const {
  if (core_.empty()) {
    Index::ScanBatch(ops, n, out_counts);
    return;
  }
  // Every shard may hold keys of every range, so the bounded merge
  // over-fetches up to `cap` candidates per shard per entry. Materializing
  // those runs lets the whole batch — n entries times N shards — run as
  // ONE cross-tree ScanBatch, grouped descents and hand-over-hand drains
  // mixing shards, at the price of scratch memory; a batch too large for
  // the budget keeps the streaming per-op merge (identical results).
  constexpr std::size_t kMergeScratchMax = std::size_t{1} << 16;  // records
  const std::size_t n_shards = shards_.size();
  std::size_t total_cap = 0;
  for (std::size_t i = 0; i < n; ++i) total_cap += ops[i].cap;
  if (total_cap == 0) {
    for (std::size_t i = 0; i < n; ++i) out_counts[i] = 0;
    return;
  }
  if (total_cap > kMergeScratchMax / n_shards) {
    for (std::size_t i = 0; i < n; ++i) {
      out_counts[i] = Scan(ops[i].min_key, ops[i].cap, ops[i].out);
    }
    return;
  }
  // Scratch layout: sub-scan s * n + i is shard s's run for entry i, at
  // runs[s * total_cap + prefix[i]], length run_len[s * n + i].
  std::vector<std::size_t> prefix(n);
  for (std::size_t i = 0, off = 0; i < n; ++i) {
    prefix[i] = off;
    off += ops[i].cap;
  }
  std::vector<core::Record> runs(n_shards * total_cap);
  std::vector<std::size_t> run_len(n_shards * n);
  std::vector<ScanOp> sub(n_shards * n);
  std::vector<const core::BTree*> trees(n_shards * n);
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      sub[s * n + i] = {ops[i].min_key, ops[i].cap,
                        runs.data() + s * total_cap + prefix[i]};
      trees[s * n + i] = core_[s];
    }
  }
  core::BTree::ScanBatch(trees.data(), sub.data(), sub.size(),
                         run_len.data());
  // Per-entry k-way merge of its per-shard sorted runs. Keys are unique
  // across shards (hash routing), so a plain min-select suffices.
  std::vector<std::size_t> cur(n_shards);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(cur.begin(), cur.end(), 0);
    std::size_t got = 0;
    while (got < ops[i].cap) {
      std::size_t best = n_shards;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (cur[s] >= run_len[s * n + i]) continue;
        const Key k = runs[s * total_cap + prefix[i] + cur[s]].key;
        if (best == n_shards ||
            k < runs[best * total_cap + prefix[i] + cur[best]].key) {
          best = s;
        }
      }
      if (best == n_shards) break;
      ops[i].out[got++] = runs[best * total_cap + prefix[i] + cur[best]];
      ++cur[best];
    }
    out_counts[i] = got;
  }
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
