// KV service tier (DESIGN.md §10): batch-formation equivalence against
// single-op groups (max_batch = 1) across every registry kind (and for
// one grouped batch of deletes with repeated and absent keys), admission
// control (queue backpressure + per-tenant quota), partial-group flush
// policy (deadline and empty-poll paths), deterministic cross-client
// group formation and its exact read-stall accounting, the worker clamp
// for non-concurrent kinds, and the multi-client shutdown race (the ASan
// and TSan jobs' main target here).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common/rng.h"
#include "index/index.h"
#include "pm/fault.h"
#include "pm/persist.h"
#include "server/service.h"
#include "test_util.h"

namespace fastfair {
namespace {

using server::Completion;
using server::KvService;
using server::ReqStatus;
using server::ServiceOptions;
using server::Session;

Value V1(Key k) { return 2 * k + 1; }
Value V2(Key k) { return 2 * k + 5; }

void WaitAll(std::vector<Completion>& cs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) cs[i].Wait();
}

void ResetAll(std::vector<Completion>& cs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) cs[i].Reset();
}

// Drives one service through scripted rounds — pipelined submissions,
// waits between rounds — checking every per-op status and value against
// what the rounds imply. Run with single-op groups and with max_batch 16
// over every kind, this IS the batch-formation equivalence check: grouped
// execution must be observationally identical to sequential execution at
// round boundaries.
void RunScript(Index* idx, bool single) {
  SCOPED_TRACE(std::string(idx->name()) +
               (single ? " single-op" : " batched"));
  ServiceOptions so;
  so.workers = 2;
  so.queue_depth = 512;
  so.max_batch = single ? 1 : 16;
  so.batch_timeout_us = 50;
  KvService svc(idx, so);
  Session* s = svc.OpenSession();
  ASSERT_NE(s, nullptr);
  svc.Start();

  const std::size_t kN = 200;
  const auto keys = bench::UniformKeys(kN, 42);
  std::vector<Completion> cs(kN);

  // Round 1: fresh puts — every status kInserted.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Put(keys[i], V1(keys[i]), &cs[i]));
  }
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(cs[i].status(), ReqStatus::kInserted) << i;
  }
  ResetAll(cs, kN);

  // Round 2: gets — every value as written.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Get(keys[i], &cs[i]));
  }
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(cs[i].status(), ReqStatus::kOk) << i;
    EXPECT_EQ(cs[i].value(), V1(keys[i])) << i;
  }
  ResetAll(cs, kN);

  // Round 3: upserts — every status kUpdated, values move to V2.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Put(keys[i], V2(keys[i]), &cs[i]));
  }
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(cs[i].status(), ReqStatus::kUpdated) << i;
  }
  ResetAll(cs, kN);

  // Round 4: delete the even positions — kOk now, kNotFound on repeat.
  // (Only the even completions are armed; wait on exactly those.)
  for (std::size_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE(s->Del(keys[i], &cs[i]));
  }
  for (std::size_t i = 0; i < kN; i += 2) {
    EXPECT_EQ(cs[i].Wait(), ReqStatus::kOk) << i;
    cs[i].Reset();
    ASSERT_TRUE(s->Del(keys[i], &cs[i]));
  }
  for (std::size_t i = 0; i < kN; i += 2) {
    EXPECT_EQ(cs[i].Wait(), ReqStatus::kNotFound) << i;
  }
  ResetAll(cs, kN);

  // Round 5: mixed pipelined batch — gets of survivors and victims.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Get(keys[i], &cs[i]));
  }
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(cs[i].status(), ReqStatus::kNotFound) << i;
      EXPECT_EQ(cs[i].value(), kNoValue) << i;
    } else {
      EXPECT_EQ(cs[i].status(), ReqStatus::kOk) << i;
      EXPECT_EQ(cs[i].value(), V2(keys[i])) << i;
    }
  }
  ResetAll(cs, kN);

  // Round 6: pipelined scans — many outstanding kScan requests land in the
  // same cross-client groups, and the batched mode runs each group through
  // one Index::ScanBatch call (single-op groups execute them one by one).
  // Either way each scan must see exactly the survivors from its start,
  // cap-limited and sorted. Starts sweep the survivor list with duplicates,
  // plus 0 and a past-the-end start that must return zero records.
  std::vector<Key> survivors;
  for (std::size_t i = 1; i < kN; i += 2) survivors.push_back(keys[i]);
  std::sort(survivors.begin(), survivors.end());
  constexpr std::size_t kScans = 24;
  constexpr std::uint32_t kCap = 16;
  std::vector<core::Record> bufs(kScans * kCap);
  std::vector<Key> starts;
  for (std::size_t j = 0; j < kScans; ++j) {
    if (j == 0) {
      starts.push_back(0);
    } else if (j + 1 == kScans) {
      starts.push_back(~Key{0});
    } else {
      starts.push_back(survivors[j * survivors.size() / kScans]);
    }
  }
  for (std::size_t j = 0; j < kScans; ++j) {
    ASSERT_TRUE(s->Scan(starts[j], kCap, bufs.data() + j * kCap, &cs[j]));
  }
  WaitAll(cs, kScans);
  for (std::size_t j = 0; j < kScans; ++j) {
    EXPECT_EQ(cs[j].status(), ReqStatus::kOk) << j;
    const auto lo =
        std::lower_bound(survivors.begin(), survivors.end(), starts[j]);
    const std::size_t want = std::min<std::size_t>(
        kCap, static_cast<std::size_t>(survivors.end() - lo));
    ASSERT_EQ(cs[j].scan_count(), want) << j;
    for (std::uint32_t i = 0; i < want; ++i) {
      EXPECT_EQ(bufs[j * kCap + i].key, *(lo + i)) << j << " rec " << i;
      EXPECT_EQ(bufs[j * kCap + i].ptr, V2(bufs[j * kCap + i].key)) << j;
    }
  }
  ResetAll(cs, kScans);

  // Round 7: one uncapped scan through the service sees all survivors.
  std::vector<core::Record> out(kN + 8);
  ASSERT_TRUE(s->Scan(0, static_cast<std::uint32_t>(out.size()), out.data(),
                      &cs[0]));
  EXPECT_EQ(cs[0].Wait(), ReqStatus::kOk);
  EXPECT_EQ(cs[0].scan_count(), kN / 2);
  for (std::uint32_t i = 0; i < cs[0].scan_count(); ++i) {
    EXPECT_EQ(out[i].ptr, V2(out[i].key)) << i;
    if (i > 0) {
      EXPECT_GT(out[i].key, out[i - 1].key) << i;
    }
  }

  svc.Stop();
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, st.submitted);
  EXPECT_EQ(st.rejected_queue_full, 0u);
  if (single) {
    EXPECT_DOUBLE_EQ(st.AvgGroupOps(), 1.0);
  }
}

TEST(Service, EquivalenceAcrossEveryKindAndDispatchMode) {
  for (const auto& kind : AllIndexKinds()) {
    for (const bool single : {true, false}) {
      pm::Pool pool(std::size_t{256} << 20);
      auto idx = MakeIndex(kind, &pool);
      RunScript(idx.get(), single);
    }
  }
}

TEST(Service, CrossClientGroupFormationIsDeterministicWhenPrefilled) {
  // Rings filled BEFORE Start: the single worker's first drain sweeps all
  // four clients' requests into max_batch-sized groups — cross-client
  // formation with no timing dependence at all.
  pm::Pool pool(std::size_t{256} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.queue_depth = 128;
  so.max_batch = 64;
  KvService svc(idx.get(), so);
  std::vector<Session*> sessions;
  for (int c = 0; c < 4; ++c) sessions.push_back(svc.OpenSession());
  const std::size_t kPer = 100;
  std::vector<Completion> cs(4 * kPer);  // Completion is pinned: flat array
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < kPer; ++i) {
      const Key k = static_cast<Key>(c) * 1000 + i + 1;
      ASSERT_TRUE(sessions[c]->Put(k, V1(k), &cs[c * kPer + i]));
    }
  }
  svc.Start();
  WaitAll(cs, 4 * kPer);
  svc.Stop();
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, 4 * kPer);
  EXPECT_GE(st.full_flushes, 1u);       // 400 queued ops vs max_batch 64
  EXPECT_GT(st.AvgGroupOps(), 2.0);     // grouping actually happened
  EXPECT_LT(st.groups, st.executed);
  EXPECT_EQ(idx->CountEntries(), 4 * kPer);
}

TEST(Service, PrefilledGroupPaysExactReadStalls) {
  // The host-independent form of bench_service's stall gate: one
  // prefilled round of 64 Gets on one worker. As one group they reach
  // their leaves in waves of kBatchGroup = 8, one stall per wave; as 64
  // single-op groups each pays its own leaf stall. The leaf visits
  // (read_annotations) are the same either way.
  for (const char* kind :
       {"fastfair", "hashed-fastfair:8", "sharded-fastfair:8"}) {
    for (const std::size_t max_batch : {std::size_t{64}, std::size_t{1}}) {
      SCOPED_TRACE(std::string(kind) + " max_batch " +
                   std::to_string(max_batch));
      pm::Pool pool(std::size_t{64} << 20);
      auto idx = MakeIndex(kind, &pool);
      constexpr Key kKeys = 4000;
      for (Key k = 1; k <= kKeys; ++k) idx->Insert(k, V1(k));
      ServiceOptions so;
      so.workers = 1;
      so.queue_depth = 64;
      so.max_batch = max_batch;
      KvService svc(idx.get(), so);
      Session* s = svc.OpenSession();
      constexpr std::size_t kGets = 64;
      std::vector<Completion> cs(kGets);
      for (std::size_t i = 0; i < kGets; ++i) {
        ASSERT_TRUE(s->Get(static_cast<Key>(i) * 61 + 7, &cs[i]));
      }
      svc.Start();
      WaitAll(cs, kGets);
      svc.Stop();
      for (std::size_t i = 0; i < kGets; ++i) {
        EXPECT_EQ(cs[i].value(), V1(static_cast<Key>(i) * 61 + 7)) << i;
      }
      const auto st = svc.Stats();
      EXPECT_EQ(st.groups, max_batch == 1 ? kGets : 1u);
      EXPECT_EQ(st.pm.read_stalls, max_batch == 1 ? kGets : kGets / 8);
      EXPECT_EQ(st.pm.read_annotations, kGets);
    }
  }
}

TEST(Service, PrefilledMixedGroupSharesWaves) {
  // One prefilled round of 4 Puts and 4 Gets on 8 distinct leaves, on one
  // worker. As one group the eight ops go through one Index::PointBatch,
  // whose descent wave cuts across the op classes, so the group pays one
  // stall where a call per class paid one per class; as single-op groups
  // each op pays its own leaf stall. Two Puts update present keys, two
  // add fresh ones beside them (no split).
  for (const char* kind :
       {"fastfair", "hashed-fastfair:8", "sharded-fastfair:8"}) {
    for (const std::size_t max_batch : {std::size_t{64}, std::size_t{1}}) {
      SCOPED_TRACE(std::string(kind) + " max_batch " +
                   std::to_string(max_batch));
      pm::Pool pool(std::size_t{64} << 20);
      auto idx = MakeIndex(kind, &pool);
      for (Key k = 1; k < 16000; k += 2) idx->Insert(k, V1(k));
      ServiceOptions so;
      so.workers = 1;
      so.queue_depth = 64;
      so.max_batch = max_batch;
      KvService svc(idx.get(), so);
      Session* s = svc.OpenSession();
      const auto key = [](std::size_t i) { return Key{2000} * i + 1; };
      std::vector<Completion> cs(8);
      for (std::size_t i = 0; i < 4; ++i) {
        const Key k = key(i) + i % 2;  // odd i: a fresh (even) key
        ASSERT_TRUE(s->Put(k, V2(k), &cs[i]));
      }
      for (std::size_t i = 4; i < 8; ++i) ASSERT_TRUE(s->Get(key(i), &cs[i]));
      svc.Start();
      WaitAll(cs, cs.size());
      svc.Stop();
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cs[i].status(), i % 2 == 0 ? ReqStatus::kUpdated
                                             : ReqStatus::kInserted)
            << i;
        EXPECT_EQ(idx->Search(key(i) + i % 2), V2(key(i) + i % 2)) << i;
      }
      for (std::size_t i = 4; i < 8; ++i) {
        EXPECT_EQ(cs[i].status(), ReqStatus::kOk) << i;
        EXPECT_EQ(cs[i].value(), V1(key(i))) << i;
      }
      const auto st = svc.Stats();
      EXPECT_EQ(st.groups, max_batch == 1 ? 8u : 1u);
      EXPECT_EQ(st.pm.read_stalls, max_batch == 1 ? 8u : 1u);
      EXPECT_EQ(st.pm.read_annotations, 8u);
    }
  }
}

TEST(Service, GroupedDeletesMatchSingleOpGroups) {
  // One prefilled group of deletes — repeated keys and keys never
  // inserted among them — then Gets of the same keys. Batched mode runs
  // the deletes as one RemoveBatch (before the Gets, as submitted), so
  // every status must equal those of single-op groups: kOk for the first
  // delete of a present key, kNotFound for repeats, absent keys and the
  // Gets.
  const std::vector<Key> dels = {3, 9, 3, 200, 17, 9, 64, 65, 1, 1, 40, 300};
  for (const char* kind :
       {"fastfair", "hashed-fastfair:4", "sharded-fastfair-reclaim:4"}) {
    std::vector<ReqStatus> want;
    for (const bool single : {true, false}) {
      SCOPED_TRACE(std::string(kind) + (single ? " single-op" : " batched"));
      pm::Pool pool(std::size_t{64} << 20);
      auto idx = MakeIndex(kind, &pool);
      for (Key k = 1; k <= 64; ++k) idx->Insert(k, V1(k));
      ServiceOptions so;
      so.workers = 1;
      so.max_batch = single ? 1 : 64;
      KvService svc(idx.get(), so);
      Session* s = svc.OpenSession();
      std::vector<Completion> cs(2 * dels.size());
      for (std::size_t i = 0; i < dels.size(); ++i) {
        ASSERT_TRUE(s->Del(dels[i], &cs[i]));
      }
      for (std::size_t i = 0; i < dels.size(); ++i) {
        ASSERT_TRUE(s->Get(dels[i], &cs[dels.size() + i]));
      }
      svc.Start();
      WaitAll(cs, cs.size());
      svc.Stop();
      std::vector<ReqStatus> got;
      for (const auto& c : cs) got.push_back(c.status());
      if (single) {
        EXPECT_EQ(svc.Stats().groups, cs.size());
        want = got;
        for (std::size_t i = 0; i < dels.size(); ++i) {
          const bool first =
              std::find(dels.begin(), dels.begin() + i, dels[i]) ==
              dels.begin() + i;
          EXPECT_EQ(got[i], first && dels[i] <= 64 ? ReqStatus::kOk
                                                   : ReqStatus::kNotFound)
              << "del " << i;
          EXPECT_EQ(got[dels.size() + i], ReqStatus::kNotFound) << "get " << i;
        }
      } else {
        EXPECT_EQ(svc.Stats().groups, 1u);
        EXPECT_EQ(got, want);
      }
      EXPECT_EQ(idx->CountEntries(), 64u - 6u);
    }
  }
}

TEST(Service, QueueFullBackpressureAndDrainOnStop) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.queue_depth = 4;
  KvService svc(idx.get(), so);
  Session* s = svc.OpenSession();
  std::vector<Completion> cs(10);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    const Key k = static_cast<Key>(i) + 1;
    if (s->Put(k, V1(k), &cs[i])) {
      ++admitted;
    } else {
      EXPECT_EQ(cs[i].status(), ReqStatus::kRejectedQueueFull) << i;
    }
  }
  EXPECT_EQ(admitted, 4);  // ring capacity, exactly
  // Start-then-Stop must still execute everything admitted (graceful
  // drain), even with the stop racing the workers' first drain.
  svc.Start();
  svc.Stop();
  for (int i = 0; i < admitted; ++i) {
    EXPECT_EQ(cs[i].status(), ReqStatus::kInserted) << i;
  }
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, 4u);
  EXPECT_EQ(st.rejected_queue_full, 6u);
}

TEST(Service, PerTenantQuotaMetersSharedBucket) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.quota_ops_per_sec = 1;  // burst defaults to the rate: one token
  KvService svc(idx.get(), so);
  Session* a1 = svc.OpenSession(/*tenant=*/7);
  Session* a2 = svc.OpenSession(/*tenant=*/7);  // same bucket
  Session* b = svc.OpenSession(/*tenant=*/8);   // its own bucket
  std::vector<Completion> cs(6);
  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    Session* s = i % 2 == 0 ? a1 : a2;
    const Key k = static_cast<Key>(i) + 1;
    if (s->Put(k, V1(k), &cs[i])) {
      ++admitted;
    } else {
      EXPECT_EQ(cs[i].status(), ReqStatus::kRejectedQuota) << i;
    }
  }
  // One token in the shared bucket; the refill across the few microseconds
  // of this loop cannot mint another (rate = 1/s).
  EXPECT_EQ(admitted, 1);
  Completion cb;
  EXPECT_TRUE(b->Put(1000, V1(1000), &cb));  // tenant 8 unaffected
  svc.Start();
  svc.Stop();
  const auto st = svc.Stats();
  EXPECT_EQ(st.rejected_quota, 5u);
  EXPECT_EQ(st.executed, 2u);
}

TEST(Service, PartialGroupFlushesOnDeadline) {
  // batch_timeout_us = 0 pins the deadline to "now": every gathered group
  // flushes through the timeout path on its first poll, so the counter
  // proves the deadline machinery runs without any timing dependence.
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.queue_depth = 256;
  so.max_batch = 1024;  // far above the op count: never a full flush
  so.batch_timeout_us = 0;
  KvService svc(idx.get(), so);
  Session* s = svc.OpenSession();
  std::vector<Completion> cs(100);
  for (int i = 0; i < 100; ++i) {
    const Key k = static_cast<Key>(i) + 1;
    ASSERT_TRUE(s->Put(k, V1(k), &cs[i]));
  }
  svc.Start();
  WaitAll(cs, 100);
  svc.Stop();
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, 100u);
  EXPECT_EQ(st.full_flushes, 0u);
  EXPECT_GE(st.timeout_flushes, 1u);
}

TEST(Service, LoneRequestFlushesOnEmptyPoll) {
  // The low-load tail-latency mechanism: a lone request must not wait out
  // the (here: enormous) batch timeout — the empty-poll pass flushes it.
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.max_batch = 1024;
  so.batch_timeout_us = 5'000'000;  // 5 s: a deadline flush would hang
  KvService svc(idx.get(), so);
  Session* s = svc.OpenSession();
  svc.Start();
  Completion c;
  ASSERT_TRUE(s->Put(1, V1(1), &c));
  EXPECT_EQ(c.Wait(), ReqStatus::kInserted);  // returns well before 5 s
  svc.Stop();
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, 1u);
  EXPECT_GE(st.idle_flushes + st.timeout_flushes, 1u);
  EXPECT_GE(st.idle_flushes, 1u);
}

TEST(Service, NonConcurrentKindClampsToOneWorker) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("wbtree", &pool);
  ASSERT_FALSE(idx->supports_concurrency());
  ServiceOptions so;
  so.workers = 8;
  KvService svc(idx.get(), so);
  EXPECT_EQ(svc.workers(), 1u);
  Session* s = svc.OpenSession();
  svc.Start();
  Completion c;
  ASSERT_TRUE(s->Put(1, V1(1), &c));
  EXPECT_EQ(c.Wait(), ReqStatus::kInserted);
  svc.Stop();
}

TEST(Service, SessionTableCapacityIsEnforced) {
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.max_sessions = 2;
  KvService svc(idx.get(), so);
  EXPECT_NE(svc.OpenSession(), nullptr);
  EXPECT_NE(svc.OpenSession(), nullptr);
  EXPECT_EQ(svc.OpenSession(), nullptr);
}

// Per-request deadlines: ops whose deadline passed while queued complete
// as kDeadlineExceeded without executing; everything else is untouched.
// Prefilling before Start makes the expiry deterministic (no sleeps racing
// a live worker) and covers both grouped and single-op groups.
void RunDeadlineScript(bool single) {
  SCOPED_TRACE(single ? "single-op" : "batched");
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.queue_depth = 256;
  if (single) so.max_batch = 1;
  KvService svc(idx.get(), so);
  Session* s = svc.OpenSession();

  constexpr std::size_t kN = 64;
  std::vector<Completion> cs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const Key k = static_cast<Key>(i) + 1;
    if (i % 2 == 0) {
      // 1 us: long expired by the time the worker first drains the ring.
      ASSERT_TRUE(s->Put(k, V1(k), &cs[i], /*deadline_us=*/1));
    } else {
      ASSERT_TRUE(s->Put(k, V1(k), &cs[i]));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.Start();
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(cs[i].status(), ReqStatus::kDeadlineExceeded) << i;
    } else {
      EXPECT_EQ(cs[i].status(), ReqStatus::kInserted) << i;
    }
  }
  ResetAll(cs, kN);

  // Expired puts never touched the index; unexpired ones landed.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Get(static_cast<Key>(i) + 1, &cs[i]));
  }
  WaitAll(cs, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(cs[i].status(), ReqStatus::kNotFound) << i;
    } else {
      EXPECT_EQ(cs[i].value(), V1(static_cast<Key>(i) + 1)) << i;
    }
  }
  ResetAll(cs, kN);

  // A generous deadline behaves exactly like no deadline.
  Completion ok;
  ASSERT_TRUE(s->Put(9999, V1(9999), &ok, /*deadline_us=*/10'000'000));
  EXPECT_EQ(ok.Wait(), ReqStatus::kInserted);

  // Clean shutdown with short-deadline ops still queued: Stop's drain must
  // resolve every admitted op — executed or expired, never left kPending.
  std::vector<Completion> tail(8);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ASSERT_TRUE(
        s->Put(20000 + static_cast<Key>(i), V1(i), &tail[i], /*deadline_us=*/1));
  }
  svc.Stop();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const ReqStatus st = tail[i].status();
    EXPECT_TRUE(st == ReqStatus::kInserted || st == ReqStatus::kDeadlineExceeded)
        << i << " status " << static_cast<int>(st);
  }
  const auto st = svc.Stats();
  EXPECT_GE(st.deadline_exceeded, kN / 2);
}

TEST(Service, DeadlineExpiredOpsCompleteWithoutExecuting) {
  for (const bool single : {false, true}) RunDeadlineScript(single);
}

// Degraded mode under pool exhaustion (simulated via the fault injector's
// fail-all mode): the first Put that hits kNoSpace flips the service into a
// capacity_backoff_us shed window — further Puts are rejected at submit
// time with a retry-after hint while Gets, Scans, and Dels keep serving —
// and the window expires on its own once the injector is disarmed.
void RunCapacityScript(bool single) {
  SCOPED_TRACE(single ? "single-op" : "batched");
  pm::FaultInjector& inj = pm::FaultInjector::Instance();
  inj.Reset();
  pm::Pool pool(std::size_t{64} << 20);
  auto idx = MakeIndex("fastfair", &pool);
  ServiceOptions so;
  so.workers = 1;
  so.queue_depth = 512;
  if (single) so.max_batch = 1;
  so.capacity_backoff_us = 100'000;  // wide enough to assert inside it
  KvService svc(idx.get(), so);
  Session* s = svc.OpenSession();
  svc.Start();

  // Preload with real capacity so there is data for reads to keep serving.
  constexpr std::size_t kN = 200;
  std::vector<Completion> cs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(s->Put(static_cast<Key>(i) + 1, V1(i + 1), &cs[i]));
  }
  WaitAll(cs, kN);
  ResetAll(cs, kN);

  // Simulated exhaustion: fresh ascending keys hammer the rightmost leaf,
  // so a split (= an allocation = kNoSpace) is forced within node-capacity
  // puts. Updates of resident keys would not allocate — fresh keys do.
  inj.FailAllAllocs(true);
  bool saw_reject = false;
  Completion c;
  for (std::size_t i = 0; i < 64 && !saw_reject; ++i) {
    const Key k = 100000 + static_cast<Key>(i);
    if (!s->Put(k, V1(k), &c)) {
      // Already shed at submit: an earlier put in this loop tripped the
      // degraded window.
      saw_reject = true;
      break;
    }
    const ReqStatus st = c.Wait();
    ASSERT_TRUE(st == ReqStatus::kInserted || st == ReqStatus::kRejectedCapacity)
        << static_cast<int>(st);
    if (st == ReqStatus::kRejectedCapacity) {
      EXPECT_EQ(c.retry_after_us(), so.capacity_backoff_us);
      saw_reject = true;
    }
    c.Reset();
  }
  ASSERT_TRUE(saw_reject) << "no put ever needed an allocation";

  // Inside the shed window: writes are rejected AT SUBMIT with a hint...
  c.Reset();
  EXPECT_FALSE(s->Put(200000, V1(1), &c));
  EXPECT_EQ(c.status(), ReqStatus::kRejectedCapacity);
  EXPECT_GT(c.retry_after_us(), 0u);
  // ...while reads, scans, and deletes (which free space) keep serving.
  c.Reset();
  ASSERT_TRUE(s->Get(1, &c));
  EXPECT_EQ(c.Wait(), ReqStatus::kOk);
  EXPECT_EQ(c.value(), V1(1));
  c.Reset();
  core::Record scan_out[8];
  ASSERT_TRUE(s->Scan(1, 8, scan_out, &c));
  EXPECT_EQ(c.Wait(), ReqStatus::kOk);
  EXPECT_EQ(c.scan_count(), 8u);
  c.Reset();
  ASSERT_TRUE(s->Del(2, &c));
  EXPECT_EQ(c.Wait(), ReqStatus::kOk);

  // Capacity returns: disarm and wait out the window — the service recovers
  // by itself, no restart, no knob.
  inj.Reset();
  c.Reset();
  ASSERT_TRUE(testutil::PollUntil([&] {
    if (s->Put(300000, V1(7), &c)) return true;
    c.Reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return false;
  }));
  EXPECT_EQ(c.Wait(), ReqStatus::kInserted);

  // Clean shutdown while degraded again (injector armed, window active).
  inj.FailAllAllocs(true);
  c.Reset();
  for (std::size_t i = 0; i < 64; ++i) {
    const Key k = 400000 + static_cast<Key>(i);
    if (!s->Put(k, V1(k), &c)) break;  // degraded window tripped
    const ReqStatus st = c.Wait();
    c.Reset();
    if (st == ReqStatus::kRejectedCapacity) break;
  }
  svc.Stop();
  inj.Reset();
  const auto stats = svc.Stats();
  EXPECT_GE(stats.rejected_capacity, 2u);
}

TEST(Service, CapacityExhaustionShedsWritesKeepsServingReads) {
  for (const bool single : {false, true}) RunCapacityScript(single);
}

TEST(Service, MultiClientShutdownRace) {
  // Four clients hammer the service while the main thread Stops it.
  // Contract under test: a submit that returned true NEVER resolves to
  // kShutdown or stays kPending (admitted work is executed); a submit
  // after the fence returns false with kShutdown; nothing crashes or
  // leaks (the ASan job runs this test).
  pm::Pool pool(std::size_t{512} << 20);
  auto idx = MakeIndex("sharded-fastfair:4", &pool);
  ServiceOptions so;
  so.workers = 2;
  so.queue_depth = 64;
  so.max_batch = 32;
  KvService svc(idx.get(), so);
  std::vector<Session*> sessions;
  for (int c = 0; c < 4; ++c) sessions.push_back(svc.OpenSession());
  svc.Start();

  std::atomic<std::uint64_t> bad_status{0};
  std::atomic<std::uint64_t> admitted_total{0};
  std::atomic<std::uint64_t> admitted_live{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Session* s = sessions[c];
      constexpr std::size_t kWin = 64;
      std::vector<Completion> win(kWin);
      bool armed[kWin] = {};  // slot holds an admitted, un-waited op
      std::uint64_t n = 0;
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      bool stopped = false;
      while (!stopped) {
        const std::size_t slot = n % kWin;
        Completion& cmp = win[slot];
        if (armed[slot]) {
          const ReqStatus st = cmp.Wait();
          if (st == ReqStatus::kShutdown || st == ReqStatus::kPending) {
            bad_status.fetch_add(1);
          }
          cmp.Reset();
          armed[slot] = false;
        }
        for (;;) {
          const Key k = (rng.Next() | 1);
          if (s->Put(k, V1(k), &cmp)) {
            armed[slot] = true;
            ++n;
            admitted_live.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          if (cmp.status() == ReqStatus::kShutdown) {
            stopped = true;
            break;
          }
          cmp.Reset();  // queue full: shed and retry
          std::this_thread::yield();
        }
      }
      for (std::size_t slot = 0; slot < kWin; ++slot) {
        if (!armed[slot]) continue;
        const ReqStatus st = win[slot].Wait();
        if (st == ReqStatus::kShutdown || st == ReqStatus::kPending) {
          bad_status.fetch_add(1);
        }
      }
      admitted_total.fetch_add(n);
    });
  }
  // Stop only once real traffic has flowed: a fixed sleep can admit zero
  // ops on a loaded/ASan machine, which makes the shutdown race vacuous
  // (and the `rejected_shutdown >= 4` assertion below flaky).
  ASSERT_TRUE(testutil::PollUntil(
      [&] { return admitted_live.load(std::memory_order_relaxed) >= 4000; }));
  svc.Stop();
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad_status.load(), 0u);
  const auto st = svc.Stats();
  EXPECT_EQ(st.executed, admitted_total.load());
  EXPECT_EQ(st.executed, st.submitted);
  // The post-fence rejections the clients observed are accounted.
  EXPECT_GE(st.rejected_shutdown, 4u);

  // Stop is idempotent, and a session keeps rejecting after it.
  svc.Stop();
  Completion late;
  EXPECT_FALSE(sessions[0]->Get(1, &late));
  EXPECT_EQ(late.status(), ReqStatus::kShutdown);
}

}  // namespace
}  // namespace fastfair
