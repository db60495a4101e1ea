#include "index/index.h"

#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "baselines/blink/blink.h"
#include "baselines/fptree/fptree.h"
#include "baselines/skiplist/skiplist.h"
#include "baselines/wbtree/wbtree.h"
#include "baselines/wort/wort.h"
#include "core/btree.h"
#include "index/hash_sharded.h"
#include "index/sharded.h"
#include "maint/tasks.h"

namespace fastfair {
namespace {

template <class T>
class Wrap final : public Index {
 public:
  template <typename... Args>
  Wrap(std::string name, bool concurrent, Args&&... args)
      : impl_(std::forward<Args>(args)...),
        name_(std::move(name)),
        concurrent_(concurrent) {}

  void Insert(Key key, Value value) override { impl_.Insert(key, value); }
  bool Remove(Key key) override { return impl_.Remove(key); }
  Value Search(Key key) const override { return impl_.Search(key); }
  void PointBatch(const PointOps& ops) override {
    // The core tree's one class-ordered pipeline; baselines make the three
    // class calls.
    if constexpr (requires { impl_.PointBatch(ops); }) {
      impl_.PointBatch(ops);
    } else {
      Index::PointBatch(ops);
    }
  }
  void SearchBatch(const Key* keys, std::size_t n,
                   Value* out) const override {
    // Forward to the structure's pipelined batch entry point when it has
    // one (the core tree's interleaved descents); baselines keep the
    // default per-key loop.
    if constexpr (requires { impl_.SearchBatch(keys, n, out); }) {
      impl_.SearchBatch(keys, n, out);
    } else {
      Index::SearchBatch(keys, n, out);
    }
  }
  using Index::InsertBatch;  // keep the 2-arg convenience form visible
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override {
    // The core tree's pipelined batch reports insert-vs-update natively;
    // baselines keep the default per-op loop.
    if constexpr (requires { impl_.InsertBatch(ops, n, out); }) {
      impl_.InsertBatch(ops, n, out);
    } else {
      Index::InsertBatch(ops, n, out);
    }
  }
  void RemoveBatch(const Key* keys, std::size_t n, bool* out) override {
    if constexpr (requires { impl_.RemoveBatch(keys, n, out); }) {
      impl_.RemoveBatch(keys, n, out);
    } else {
      Index::RemoveBatch(keys, n, out);
    }
  }
  std::size_t Scan(Key min_key, std::size_t max_results,
                   core::Record* out) const override {
    return impl_.Scan(min_key, max_results, out);
  }
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override {
    // The core tree's grouped-descent + interleaved-drain pipeline when
    // the structure has one; baselines keep the default per-op loop.
    if constexpr (requires { impl_.ScanBatch(ops, n, out_counts); }) {
      impl_.ScanBatch(ops, n, out_counts);
    } else {
      Index::ScanBatch(ops, n, out_counts);
    }
  }
  std::string_view name() const override { return name_; }
  core::BTree* core_tree() override {
    if constexpr (std::is_same_v<T, core::BTree>) {
      return &impl_;
    } else {
      return nullptr;
    }
  }
  bool supports_concurrency() const override { return concurrent_; }
  std::size_t CountEntries() const override {
    if constexpr (requires { impl_.CountEntries(); }) {
      return impl_.CountEntries();
    } else {
      return Index::CountEntries();
    }
  }

  void CollectMaintenanceTasks(
      const maint::TaskOptions& /*opts*/,
      std::vector<std::unique_ptr<maint::MaintenanceTask>>* out) override {
    // A reclaiming tree contributes the background drained-range sweep;
    // every other wrapped structure has nothing to maintain.
    if constexpr (requires {
                    impl_.SweepDrainedRanges(Key{0}, 1);
                    impl_.options();
                  }) {
      if (impl_.options().reclaim_empty_leaves) {
        out->push_back(
            std::make_unique<maint::SweepTask<T>>("sweep:" + name_, &impl_));
      }
    } else {
      (void)out;
    }
  }

 private:
  T impl_;
  std::string name_;
  bool concurrent_;
};

core::Options FFOpts(core::ConcurrencyMode cc, core::RebalanceMode rb,
                     core::SearchMode sm) {
  core::Options o;
  o.concurrency = cc;
  o.rebalance = rb;
  o.search = sm;
  return o;
}

}  // namespace

std::unique_ptr<Index> MakeIndex(std::string_view kind, pm::Pool* pool) {
  using core::ConcurrencyMode;
  using core::RebalanceMode;
  using core::SearchMode;
  if (kind == "fastfair") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-leaflock") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-leaflock", true, pool,
        FFOpts(ConcurrencyMode::kLeafLock, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-logging") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-logging", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kLogging,
               SearchMode::kLinear));
  }
  if (kind == "fastfair-binary") {
    return std::make_unique<Wrap<core::BTree>>(
        "fastfair-binary", false, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kBinary));
  }
  if (kind == "fastfair-reclaim") {
    // Delete-churn variant: emptied leaves are unlinked and recycled
    // through the pool free lists. Concurrent: multi-writer unlinking is
    // covered by the split/unlink interlock (core/btree_impl.h, proven by
    // tests/concurrent_mutation_test.cc's seeded race sweep).
    core::Options o = FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
                             SearchMode::kLinear);
    o.reclaim_empty_leaves = true;
    return std::make_unique<Wrap<core::BTree>>("fastfair-reclaim", true,
                                               pool, o);
  }
  if (kind == "fastfair-1k") {  // Fig 4 uses 1 KB FAST+FAIR nodes
    return std::make_unique<Wrap<core::BTreeT<1024>>>(
        "fastfair-1k", true, pool,
        FFOpts(ConcurrencyMode::kLockFree, RebalanceMode::kFair,
               SearchMode::kLinear));
  }
  if (kind == "wbtree") {
    return std::make_unique<Wrap<baselines::WBTree>>("wbtree", false, pool);
  }
  if (kind == "fptree") {
    return std::make_unique<Wrap<baselines::FPTree>>("fptree", true, pool);
  }
  if (kind == "wort") {
    return std::make_unique<Wrap<baselines::Wort>>("wort", false, pool);
  }
  if (kind == "skiplist") {
    return std::make_unique<Wrap<baselines::SkipList>>("skiplist", true,
                                                       pool);
  }
  if (kind == "blink") {
    return std::make_unique<Wrap<baselines::BLink>>("blink", true);
  }
  std::string inner;
  if (const std::size_t shards = TryParseShardedKind(kind, &inner);
      shards != 0) {
    // Structure-agnostic sharding: "sharded-<any registered kind>[:N]"
    // range-partitions N sub-indexes of that kind over the key space.
    return std::make_unique<ShardedIndex>(
        std::string(kind), shards,
        [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
  }
  if (const std::size_t shards = TryParseHashedKind(kind, &inner);
      shards != 0) {
    // "hashed-<any registered kind>[:N]": fibonacci-hash partitioning for
    // point-op balance under key skew; Scan k-way-merges across shards.
    return std::make_unique<HashShardedIndex>(
        std::string(kind), shards,
        [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
  }
  throw std::invalid_argument("unknown index kind: " + std::string(kind));
}

std::vector<std::string> AllIndexKinds() {
  return {"fastfair", "fastfair-leaflock", "fastfair-logging",
          "fastfair-binary", "fastfair-1k", "fastfair-reclaim", "wbtree",
          "fptree", "wort", "skiplist", "blink", "sharded-fastfair",
          "hashed-fastfair"};
}

void Index::CollectMaintenanceTasks(
    const maint::TaskOptions& /*opts*/,
    std::vector<std::unique_ptr<maint::MaintenanceTask>>* /*out*/) {}

void Index::PointBatch(const PointOps& ops) {
  if (ops.n_puts != 0) InsertBatch(ops.puts, ops.n_puts, ops.put_out);
  if (ops.n_dels != 0) RemoveBatch(ops.dels, ops.n_dels, ops.del_out);
  if (ops.n_gets != 0) SearchBatch(ops.gets, ops.n_gets, ops.get_out);
}

void Index::PointBatchLoops(const PointOps& ops) {
  Index::InsertBatch(ops.puts, ops.n_puts, ops.put_out);
  Index::RemoveBatch(ops.dels, ops.n_dels, ops.del_out);
  Index::SearchBatch(ops.gets, ops.n_gets, ops.get_out);
}

void Index::SearchBatch(const Key* keys, std::size_t n, Value* out) const {
  for (std::size_t i = 0; i < n; ++i) out[i] = Search(keys[i]);
}

void Index::InsertBatch(const core::Record* ops, std::size_t n,
                        InsertStatus* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (out != nullptr) {
      // Two-step probe for kinds whose Insert doesn't report: exact at
      // quiescence (and within a batch — an earlier duplicate is visible
      // to the probe), best-effort against concurrent same-key writers.
      out[i] = Search(ops[i].key) == kNoValue ? InsertStatus::kInserted
                                              : InsertStatus::kUpdated;
    }
    // Baselines signal exhaustion the pre-status way, by throwing from
    // Insert; map it to the per-op status so one op out of pool space
    // sheds instead of aborting the whole batch (and the service worker
    // above it).
    try {
      Insert(ops[i].key, ops[i].ptr);
    } catch (const std::bad_alloc&) {
      if (out != nullptr) out[i] = InsertStatus::kNoSpace;
    }
  }
}

void Index::RemoveBatch(const Key* keys, std::size_t n, bool* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = Remove(keys[i]);
}

void Index::ScanBatch(const ScanOp* ops, std::size_t n,
                      std::size_t* out_counts) const {
  for (std::size_t i = 0; i < n; ++i) {
    out_counts[i] = Scan(ops[i].min_key, ops[i].cap, ops[i].out);
  }
}

std::size_t Index::CountEntries() const {
  // Batched full scan; correct for any implementation whose Scan returns
  // ascending keys. Restarts one past the last key seen.
  constexpr std::size_t kBatch = 1024;
  std::vector<core::Record> buf(kBatch);
  std::size_t total = 0;
  Key next = 0;
  for (;;) {
    const std::size_t n = Scan(next, kBatch, buf.data());
    total += n;
    if (n < kBatch) return total;
    const Key last = buf[n - 1].key;
    if (last == ~Key{0}) return total;  // key space exhausted
    next = last + 1;
  }
}

namespace detail {

bool BatchedScanIterator::Next(core::Record* out) {
  if (pos_ == n_) {
    if (done_) return false;
    // Route through the batched entry point (a one-op batch) so kinds with
    // a native ScanBatch pipeline serve iterator refills from it too.
    const ScanOp op = NextScan();
    std::size_t n = 0;
    idx_->ScanBatch(&op, 1, &n);
    Take(n);
    if (n_ == 0) return false;
  }
  *out = buf_[pos_++];
  return true;
}

void BatchedScanIterator::Take(std::size_t n) {
  n_ = n;
  pos_ = 0;
  // A short batch ends the scan, and so does the last key of the space.
  done_ = n < batch_ || buf_[n - 1].key == ~Key{0};
  if (!done_) next_key_ = buf_[n - 1].key + 1;
  batch_ = std::min(batch_ * 2, kMaxBatch);
}

}  // namespace detail

std::unique_ptr<ScanIterator> Index::NewScanIterator(Key min_key) const {
  return std::make_unique<detail::BatchedScanIterator>(this, min_key);
}

}  // namespace fastfair
