// Built-in maintenance tasks (DESIGN.md §6), one per layer of the stack:
//
//  * `PoolDrainTask` (pm): advances the reclamation epoch and drains the
//    pool-level overflow limbo onto the shared free lists
//    (Pool::DrainLimboQuantum) — deferred frees retire even when no writer
//    ever frees again. Safe under any foreground load.
//  * `ImbalancePolicyTask` (index): watches ShardedIndex's live per-shard
//    entry counters and triggers Rebalance() when the imbalance
//    ratio crosses TaskOptions::rebalance_threshold — the policy loop the
//    ROADMAP's "online rebalance policy" item asked for. Safe under live
//    writers: Rebalance dual-routes racing upserts through its migration
//    window (index/sharded.h).
//  * `SweepTask<Tree>` (core): walks the tree's leaf chain a budgeted
//    quantum at a time (BTreeT::SweepDrainedRanges), unlinking and freeing
//    abandoned drained runs without waiting for a writer to stumble on
//    them. Safe under live writers via the split/unlink interlock
//    (core/btree_impl.h).
//
// Indexes contribute the right task set for their structure via
// Index::CollectMaintenanceTasks (index/index.h); pm::Pool has no registry,
// so callers add PoolDrainTask themselves (Db::StartMaintenance does).

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/defs.h"
#include "index/sharded.h"
#include "maint/maintenance.h"
#include "pm/pool.h"

namespace fastfair::maint {

/// The one assembly recipe every caller shares (benches, tests,
/// Db::StartMaintenance): a scheduler preloaded with `pool`'s drain task
/// plus every task each index in `indexes` contributes. Not started —
/// the caller picks Start() (background) or RunPass() (synchronous).
std::unique_ptr<MaintenanceThread> MakeMaintenanceThread(
    pm::Pool* pool, const std::vector<Index*>& indexes,
    const TaskOptions& opts, std::chrono::microseconds interval);

class PoolDrainTask final : public MaintenanceTask {
 public:
  explicit PoolDrainTask(pm::Pool* pool, const TaskOptions& opts = {});

  std::string_view name() const override { return "pool-drain"; }
  QuantumResult RunQuantum() override;

 private:
  pm::Pool* pool_;
  std::size_t budget_;
};

class ImbalancePolicyTask final : public MaintenanceTask {
 public:
  explicit ImbalancePolicyTask(ShardedIndex* idx, const TaskOptions& opts = {});

  std::string_view name() const override { return name_; }

  /// Reads the live approximate counters (ApproxShardEntries); above the
  /// threshold (and above the minimum-size gate) it runs one Rebalance() —
  /// reported as one item. Rebalance resyncs the counters, so the next
  /// quantum observes the post-migration balance and comes to rest.
  QuantumResult RunQuantum() override;

 private:
  ShardedIndex* idx_;
  double threshold_;
  std::size_t min_entries_;  // below this total, imbalance is noise
  std::string name_;
  // Quanta left to skip after a migration copy hit pool exhaustion
  // (bad_alloc out of Rebalance). Doubles per consecutive failure up to
  // kMaxBackoff; any successful quantum resets it. Keeps the scheduler
  // thread alive and re-arms the policy once capacity returns.
  std::uint32_t backoff_quanta_ = 0;
  std::uint32_t next_backoff_ = 1;
  static constexpr std::uint32_t kMaxBackoff = 64;
};

/// Budgeted leaf-chain sweep over one reclaiming tree. Header-only template
/// so the adapter layer can instantiate it for every BTreeT page size.
template <class Tree>
class SweepTask final : public MaintenanceTask {
 public:
  SweepTask(std::string name, Tree* tree, const TaskOptions& opts = {})
      : tree_(tree),
        budget_(opts.sweep_leaves_per_quantum),
        name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  /// A synchronous pass must cover the whole chain from scratch: runs
  /// between write bursts, and anything abandoned since the last clean
  /// wrap may sit anywhere relative to the stale cursor.
  void OnPassBegin() override {
    cursor_ = 0;
    unlinked_this_wrap_ = 0;
    last_wrap_clean_ = false;
  }

  QuantumResult RunQuantum() override {
    const auto r = tree_->SweepDrainedRanges(cursor_, budget_);
    unlinked_this_wrap_ += r.unlinked;
    if (r.wrapped) {
      last_wrap_clean_ = unlinked_this_wrap_ == 0;
      unlinked_this_wrap_ = 0;
      cursor_ = 0;
    } else {
      cursor_ = r.next_cursor;
    }
    QuantumResult q;
    q.items = r.unlinked;
    // The unlink path frees through Pool::Free, so pm::ThreadStats carries
    // the exact figure; this is the task-level view of the same work.
    q.bytes = r.unlinked * Tree::kPageSize;
    // At rest once a full wrap found nothing. A fresh (or OnPassBegin-
    // reset) task must complete one whole wrap before resting, so a
    // synchronous pass always covers the entire chain; background cycles
    // keep re-sweeping at the scheduler's idle pace, and the first unlink
    // flips the task busy again.
    q.at_rest = last_wrap_clean_ && unlinked_this_wrap_ == 0;
    return q;
  }

 private:
  Tree* tree_;
  Key cursor_ = 0;
  std::size_t unlinked_this_wrap_ = 0;
  bool last_wrap_clean_ = false;
  int budget_;
  std::string name_;
};

}  // namespace fastfair::maint
