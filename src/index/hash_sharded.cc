#include "index/hash_sharded.h"

#include <queue>
#include <stdexcept>

namespace fastfair {

std::size_t TryParseHashedKind(std::string_view kind,
                               std::string* inner_kind) {
  return detail::ParseShardGrammar(kind, "hashed-", inner_kind);
}

HashShardedIndex::HashShardedIndex(std::string name, std::size_t num_shards,
                                   const ShardFactory& make)
    : name_(std::move(name)) {
  concurrent_ = detail::BuildShardVector(num_shards, make, &shards_);
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
  if (n == 0) return;
  std::vector<Value> vals;
  detail::DispatchBatchByShard(
      keys, n, shards_.size(), [this](Key k) { return ShardOf(k); },
      [&](std::size_t s, const Key* gk, std::size_t len,
          const std::uint32_t* pos) {
        vals.resize(len);
        shards_[s]->SearchBatch(gk, len, vals.data());
        for (std::size_t j = 0; j < len; ++j) out[pos[j]] = vals[j];
      });
}

void HashShardedIndex::InsertBatch(const core::Record* ops, std::size_t n,
                                   InsertStatus* out) {
  if (n == 0) return;
  std::vector<InsertStatus> st;
  detail::DispatchBatchByShard(
      ops, n, shards_.size(),
      [this](const core::Record& r) { return ShardOf(r.key); },
      [&](std::size_t s, const core::Record* gops, std::size_t len,
          const std::uint32_t* pos) {
        if (out != nullptr) {
          st.resize(len);
          shards_[s]->InsertBatch(gops, len, st.data());
          for (std::size_t j = 0; j < len; ++j) out[pos[j]] = st[j];
        } else {
          shards_[s]->InsertBatch(gops, len);
        }
      });
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
  if (n == 0) return;
  // Every shard may hold keys of every range, so the bounded merge
  // over-fetches up to `cap` candidates per shard per entry. Materializing
  // those runs lets each shard serve the whole batch through ONE native
  // ScanBatch call — grouped descents and hand-over-hand drains inside the
  // shard — at the price of scratch memory; a batch too large for the
  // budget keeps the streaming per-op merge (identical results).
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
  // Scratch layout: shard s's run for entry i lives at
  // runs[s * total_cap + prefix[i]], length run_len[s * n + i].
  std::vector<std::size_t> prefix(n);
  for (std::size_t i = 0, off = 0; i < n; ++i) {
    prefix[i] = off;
    off += ops[i].cap;
  }
  std::vector<core::Record> runs(n_shards * total_cap);
  std::vector<std::size_t> run_len(n_shards * n);
  std::vector<ScanOp> shard_ops(n);
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      shard_ops[i] = {ops[i].min_key, ops[i].cap,
                      runs.data() + s * total_cap + prefix[i]};
    }
    shards_[s]->ScanBatch(shard_ops.data(), n, run_len.data() + s * n);
  }
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
