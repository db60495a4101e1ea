// TPC-C database: one Index instance per table, all of the same kind, plus
// the initial-population loader (TPC-C spec §4.3 sizes, scaled by config).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "tpcc/schema.h"

namespace fastfair::maint {
class MaintenanceThread;
struct TaskOptions;
}  // namespace fastfair::maint

namespace fastfair::tpcc {

struct Config {
  std::uint32_t warehouses = 2;
  std::uint32_t districts_per_wh = 10;
  std::uint32_t customers_per_district = 300;  // spec: 3000; scaled for CI
  std::uint32_t items = 10000;                 // spec: 100000
  std::uint32_t initial_orders_per_district = 300;  // spec: 3000
  // Population batch size: > 1 loads the bulk tables (ITEM, STOCK,
  // ORDER-LINE) through Index::InsertBatch in chunks of this size, riding
  // the batched descent pipeline (DESIGN.md §8); <= 1 inserts row by row.
  std::size_t populate_batch = 0;
  // Transaction range-read batching: route Delivery's per-district
  // NEW-ORDER/ORDER-LINE ranges, Stock-Level's per-order ranges, and
  // Order-Status's line read through Index::ScanBatch (plus SearchBatch
  // for the row lookups those ranges feed), so one transaction's
  // independent ranges share grouped descents instead of paying a scalar
  // root-to-leaf walk each (DESIGN.md §8). Same results either way.
  bool batch_scans = false;
};

class Db {
 public:
  /// Builds and populates a TPC-C database whose every table is indexed by
  /// an index of `kind` (see MakeIndex). For a range-sharded kind the Db
  /// derives per-table shard boundaries from the packed key encodings
  /// (db.cc), so rows spread across shards despite the small key-space
  /// prefix; a hashed- kind needs no such help (the fibonacci hash spreads
  /// the packed keys by itself) and goes straight to the registry.
  Db(std::string_view kind, const Config& cfg, pm::Pool* pool);
  ~Db();  // StopMaintenance() first: tasks borrow the table indexes

  const Config& config() const { return cfg_; }
  pm::Pool* pool() const { return pool_; }

  /// Opt-in background maintenance (DESIGN.md §6): starts one scheduler
  /// thread over the pool's limbo-drain task plus every task the nine
  /// table indexes contribute (imbalance policies for sharded tables,
  /// sweeps for reclaiming ones). Every task is safe under live
  /// transactions (maint/maintenance.h), so the scheduler may run through
  /// RunMix. No-op if already started.
  void StartMaintenance(const maint::TaskOptions& opts,
                        std::uint64_t interval_us = 1000);

  /// Stops and joins the scheduler (clean epoch-pinned shutdown: the
  /// in-flight quantum completes, the thread's pin slot is released).
  /// No-op when maintenance is not running.
  void StopMaintenance();

  /// The running scheduler (stats polling), or nullptr.
  maint::MaintenanceThread* maintenance() { return maint_.get(); }

  /// True when every table index supports concurrent callers — the gate for
  /// the multi-threaded RunMix overload.
  bool supports_concurrency() const;

  Index& warehouse() { return *warehouse_; }
  Index& district() { return *district_; }
  Index& customer() { return *customer_; }
  Index& item() { return *item_; }
  Index& stock() { return *stock_; }
  Index& order() { return *order_; }
  Index& neworder() { return *neworder_; }
  Index& orderline() { return *orderline_; }
  Index& customer_order() { return *customer_order_; }

  /// All nine table indexes (fixed order: warehouse, district, customer,
  /// item, stock, order, neworder, orderline, customer_order) — for
  /// cross-table sweeps like fig6's adaptive-sharding rebalance pass.
  std::vector<Index*> tables() const;

  /// Allocates + persists a row of type T in the pool; returns its address
  /// as an index value.
  template <typename T>
  T* NewRow(const T& init) {
    auto* r = static_cast<T*>(pool_->Alloc(sizeof(T), 8));
    *r = init;
    pm::Persist(r, sizeof(T));
    return r;
  }

  template <typename T>
  static T* Row(Value v) {
    return reinterpret_cast<T*>(v);
  }

  /// Persists a mutated row.
  template <typename T>
  static void PersistRow(T* row) {
    pm::Persist(row, sizeof(T));
  }

  /// Returns a row's memory to the shared pool's reclaimer. The caller must
  /// have removed (and persisted) the last index entry referencing the row
  /// first; concurrent readers still holding the pointer are covered by the
  /// per-transaction epoch guard (pm/reclaim.h).
  template <typename T>
  void FreeRow(T* row) {
    pool_->Free(row, sizeof(T));
  }

 private:
  void Populate();

  Config cfg_;
  pm::Pool* pool_;
  std::unique_ptr<Index> warehouse_, district_, customer_, item_, stock_,
      order_, neworder_, orderline_, customer_order_;
  std::unique_ptr<maint::MaintenanceThread> maint_;
};

}  // namespace fastfair::tpcc
