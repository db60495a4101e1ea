// Tests for the TPC-C substrate: population sizes, per-transaction
// semantics, mix arithmetic, and cross-index determinism (same seed + same
// mix must commit the same transactions regardless of the index used).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "index/hash_sharded.h"
#include "index/sharded.h"
#include "tpcc/driver.h"

namespace fastfair::tpcc {
namespace {

Config SmallConfig() {
  Config cfg;
  cfg.warehouses = 1;
  cfg.districts_per_wh = 4;
  cfg.customers_per_district = 50;
  cfg.items = 500;
  cfg.initial_orders_per_district = 50;
  return cfg;
}

TEST(TpccDb, PopulationCountsMatchSpecScaling) {
  pm::Pool pool(1u << 30);
  const Config cfg = SmallConfig();
  Db db("fastfair", cfg, &pool);
  std::vector<core::Record> buf(100000);
  EXPECT_EQ(db.warehouse().Scan(0, buf.size(), buf.data()), cfg.warehouses);
  EXPECT_EQ(db.item().Scan(0, buf.size(), buf.data()), cfg.items);
  EXPECT_EQ(db.stock().Scan(0, buf.size(), buf.data()),
            cfg.items * cfg.warehouses);
  EXPECT_EQ(db.customer().Scan(0, buf.size(), buf.data()),
            static_cast<std::size_t>(cfg.warehouses) * cfg.districts_per_wh *
                cfg.customers_per_district);
  EXPECT_EQ(db.order().Scan(0, buf.size(), buf.data()),
            static_cast<std::size_t>(cfg.warehouses) * cfg.districts_per_wh *
                cfg.initial_orders_per_district);
  // ~30% of initial orders are undelivered.
  const std::size_t newords = db.neworder().Scan(0, buf.size(), buf.data());
  const std::size_t total_orders =
      static_cast<std::size_t>(cfg.warehouses) * cfg.districts_per_wh *
      cfg.initial_orders_per_district;
  EXPECT_NEAR(static_cast<double>(newords),
              static_cast<double>(total_orders) * 0.3,
              static_cast<double>(total_orders) * 0.05);
}

TEST(TpccTxn, NewOrderAdvancesDistrictSequenceAndInsertsRows) {
  pm::Pool pool(1u << 30);
  Db db("fastfair", SmallConfig(), &pool);
  std::vector<core::Record> buf(100000);
  const std::size_t orders0 = db.order().Scan(0, buf.size(), buf.data());
  const std::size_t lines0 = db.orderline().Scan(0, buf.size(), buf.data());
  Rng rng(1);
  int committed = 0;
  for (int i = 0; i < 50; ++i) committed += RunNewOrder(db, rng);
  EXPECT_GT(committed, 40);  // ~1% aborts
  const std::size_t orders1 = db.order().Scan(0, buf.size(), buf.data());
  const std::size_t lines1 = db.orderline().Scan(0, buf.size(), buf.data());
  EXPECT_EQ(orders1 - orders0, static_cast<std::size_t>(committed));
  EXPECT_GE(lines1 - lines0, static_cast<std::size_t>(committed) * 5);
  EXPECT_LE(lines1 - lines0, static_cast<std::size_t>(50) * 15);
}

TEST(TpccTxn, PaymentUpdatesBalances) {
  pm::Pool pool(1u << 30);
  Db db("fastfair", SmallConfig(), &pool);
  auto* w = Db::Row<WarehouseRow>(db.warehouse().Search(WarehouseKey(0)));
  const double ytd0 = w->w_ytd;
  Rng rng(2);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(RunPayment(db, rng));
  EXPECT_GT(w->w_ytd, ytd0);
}

TEST(TpccTxn, DeliveryDrainsNewOrders) {
  pm::Pool pool(1u << 30);
  Db db("fastfair", SmallConfig(), &pool);
  std::vector<core::Record> buf(100000);
  const std::size_t no0 = db.neworder().Scan(0, buf.size(), buf.data());
  ASSERT_GT(no0, 0u);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(RunDelivery(db, rng));
  const std::size_t no1 = db.neworder().Scan(0, buf.size(), buf.data());
  EXPECT_LT(no1, no0);  // orders were delivered and removed
}

TEST(TpccTxn, OrderStatusAndStockLevelRunReadOnly) {
  pm::Pool pool(1u << 30);
  Db db("fastfair", SmallConfig(), &pool);
  std::vector<core::Record> buf(100000);
  const std::size_t orders0 = db.order().Scan(0, buf.size(), buf.data());
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(RunOrderStatus(db, rng));
    EXPECT_TRUE(RunStockLevel(db, rng));
  }
  EXPECT_EQ(db.order().Scan(0, buf.size(), buf.data()), orders0);
}

TEST(TpccDriver, PaperMixesSumTo100) {
  for (const auto& mix : PaperMixes()) {
    int sum = 0;
    for (const int p : mix.pct) sum += p;
    EXPECT_EQ(sum, 100) << mix.name;
  }
  EXPECT_EQ(PaperMixes()[0].name, "W1");
  EXPECT_EQ(PaperMixes()[3].name, "W4");
  // Read share (Order-Status) grows monotonically W1 -> W4.
  for (int i = 1; i < 4; ++i) {
    EXPECT_GT(PaperMixes()[static_cast<std::size_t>(i)].pct[2],
              PaperMixes()[static_cast<std::size_t>(i - 1)].pct[2]);
  }
}

TEST(TpccDriver, RunMixExecutesAllTransactions) {
  pm::Pool pool(1u << 30);
  Db db("fastfair", SmallConfig(), &pool);
  const auto r = RunMix(db, PaperMixes()[0], 500, 77);
  EXPECT_EQ(r.committed + r.aborted, 500u);
  EXPECT_GT(r.committed, 450u);
  EXPECT_GT(r.Kops(), 0.0);
}

TEST(TpccDriver, MultiThreadedRunMixAggregatesPerThreadTallies) {
  pm::Pool pool(3u << 30);
  Db db("sharded-fastfair:4", SmallConfig(), &pool);
  ASSERT_TRUE(db.supports_concurrency());
  const auto r = RunMix(db, PaperMixes()[0], 800, 77, 4);
  // Every transaction is accounted exactly once across the four terminals.
  EXPECT_EQ(r.committed + r.aborted, 800u);
  EXPECT_GT(r.committed, 700u);
  EXPECT_GT(r.Kops(), 0.0);
  // nthreads <= 1 falls back to the single-threaded driver, bit-for-bit.
  pm::Pool pool1(3u << 30);
  Db db1("fastfair", SmallConfig(), &pool1);
  const auto a = RunMix(db1, PaperMixes()[0], 300, 99, 1);
  pm::Pool pool2(3u << 30);
  Db db2("fastfair", SmallConfig(), &pool2);
  const auto b = RunMix(db2, PaperMixes()[0], 300, 99);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
}

TEST(TpccDriver, MultiThreadedRunMixRejectsNonConcurrentKinds) {
  pm::Pool pool(3u << 30);
  Db db("wbtree", SmallConfig(), &pool);
  EXPECT_FALSE(db.supports_concurrency());
  EXPECT_THROW(RunMix(db, PaperMixes()[0], 100, 5, 2), std::invalid_argument);
  // Single-threaded still fine.
  const auto r = RunMix(db, PaperMixes()[0], 100, 5, 1);
  EXPECT_EQ(r.committed + r.aborted, 100u);
}

struct CrossInput {
  std::string kind;
  // Batched population (populate_batch = 64) and grouped range reads
  // (batch_scans): RunDeliveryBatched and the ScanBatch Stock-Level and
  // Order-Status reads instead of their scalar twins.
  bool batched;
};

void PrintTo(const CrossInput& in, std::ostream* os) {
  *os << in.kind << (in.batched ? " batched" : "");
}

class TpccCrossIndex : public ::testing::TestWithParam<CrossInput> {};

TEST_P(TpccCrossIndex, SameSeedSameCommitCount) {
  // The committed/aborted split and every table's row count depend only on
  // the op stream, not on the index implementation or on whether the Db
  // runs its batched paths: a strong end-to-end differential check against
  // a scalar Db.
  Config cfg = SmallConfig();
  if (GetParam().batched) {
    cfg.populate_batch = 64;
    cfg.batch_scans = true;
  }
  pm::Pool pool(3u << 30);
  Db db(GetParam().kind, cfg, &pool);
  const auto r = RunMix(db, PaperMixes()[1], 400, 123);
  pm::Pool pool_ref(3u << 30);
  Db ref("blink", SmallConfig(), &pool_ref);
  const auto rr = RunMix(ref, PaperMixes()[1], 400, 123);
  EXPECT_EQ(r.committed, rr.committed);
  EXPECT_EQ(r.aborted, rr.aborted);
  const auto tables = db.tables();
  const auto ref_tables = ref.tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    EXPECT_EQ(tables[t]->CountEntries(), ref_tables[t]->CountEntries())
        << "table " << t;
  }
}

TEST(TpccDb, ShardedTablesSpreadRowsAcrossShards) {
  // TPC-C keys pack ids into a small key-space prefix; the Db must hand the
  // sharded adapter explicit boundaries so rows do not all land in shard 0.
  pm::Pool pool(3u << 30);
  Config cfg = SmallConfig();
  cfg.warehouses = 4;
  Db db("sharded-fastfair:4", cfg, &pool);
  auto* sharded = dynamic_cast<ShardedIndex*>(&db.stock());
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->num_shards(), 4u);
  std::vector<bool> hit(4, false);
  for (std::uint32_t w = 0; w < cfg.warehouses; ++w) {
    hit[sharded->ShardOf(StockKey(w, 1))] = true;
  }
  EXPECT_EQ(std::count(hit.begin(), hit.end(), true), 4)
      << "each warehouse's stock rows must land in a distinct shard";
}

TEST(TpccDb, HashedTablesSpreadRowsWithoutBoundaryDerivation) {
  // The hashed kind needs none of the explicit-boundary help MakeTable
  // gives range sharding: fibonacci hashing spreads the packed composite
  // keys by itself, district granularity included (range sharding can only
  // cut along the leading dimension, so 1 warehouse = 1 shard there).
  pm::Pool pool(3u << 30);
  Config cfg = SmallConfig();  // one warehouse
  Db db("hashed-fastfair:4", cfg, &pool);
  auto* hashed = dynamic_cast<HashShardedIndex*>(&db.stock());
  ASSERT_NE(hashed, nullptr);
  ASSERT_EQ(hashed->num_shards(), 4u);
  const auto counts = hashed->ShardEntryCounts();
  EXPECT_EQ(std::count(counts.begin(), counts.end(), 0u), 0)
      << "every shard must hold stock rows despite a single warehouse";
  EXPECT_LE(ImbalanceRatio(counts), 1.5);
}

TEST(TpccDriver, MultiThreadedRunMixOverHashShardedKind) {
  // End-to-end: concurrent terminals against hash-sharded tables — every
  // transaction lands somewhere (no torn tallies) and the per-(seed,
  // nthreads) run is deterministic, matching the range-sharded MT
  // contract. (Thread counts use distinct rng streams, so 4-thread and
  // 1-thread commit splits are not comparable — by design, see driver.cc.)
  pm::Pool pool(3u << 30);
  Db db("hashed-fastfair:4", SmallConfig(), &pool);
  ASSERT_TRUE(db.supports_concurrency());
  const auto r = RunMix(db, PaperMixes()[0], 800, 77, 4);
  EXPECT_EQ(r.committed + r.aborted, 800u);
  EXPECT_GT(r.committed, 0u);
  pm::Pool pool_ref(3u << 30);
  Db ref("hashed-fastfair:4", SmallConfig(), &pool_ref);
  const auto rr = RunMix(ref, PaperMixes()[0], 800, 77, 4);
  EXPECT_EQ(r.committed, rr.committed) << "same seed+threads: deterministic";
  EXPECT_EQ(r.aborted, rr.aborted);
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, TpccCrossIndex,
    ::testing::Values(CrossInput{"fastfair", false},
                      CrossInput{"sharded-fastfair", false},
                      CrossInput{"hashed-fastfair:4", false},
                      CrossInput{"wbtree", false}, CrossInput{"fptree", false},
                      CrossInput{"wort", false}, CrossInput{"skiplist", false},
                      CrossInput{"fastfair", true},
                      CrossInput{"sharded-fastfair", true}),
    [](const auto& info) {
      std::string name = info.param.kind;
      for (auto& c : name) {
        if (c == '-' || c == ':') c = '_';
      }
      return info.param.batched ? name + "_batched" : name;
    });

}  // namespace
}  // namespace fastfair::tpcc
