// Tests for the two-level free-list reclaimer in pm::Pool (DESIGN.md §3.1):
// epoch-deferred recycling, cross-thread Free -> reuse accounting, bounded
// used() under churn, and the crash-safe persistent free lists.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pm/check.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "pm/reclaim.h"

namespace fastfair::pm {
namespace {

TEST(PoolFreeList, FreedBlockIsRecycledForAMatchingSize) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(512);
  pool.Free(a, 512);
  // The block parks in limbo until the epoch moves past its stamp, then a
  // same-class allocation must reuse it instead of the bump path.
  std::set<void*> seen;
  const std::size_t used_before = pool.used();
  for (int i = 0; i < 200 && seen.find(a) == seen.end(); ++i) {
    void* p = pool.Alloc(512);
    seen.insert(p);
    pool.Free(p, 512);
    epoch::TryAdvance();
  }
  EXPECT_TRUE(seen.count(a)) << "freed block never recycled";
  EXPECT_EQ(pool.used(), used_before) << "recycling must not move the bump";
  EXPECT_GT(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, EpochGuardDefersRecycling) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(256);
  auto* guard = new EpochGuard;  // a "reader" pinned before the free
  pool.Free(a, 256);
  // While the reader is pinned at the free's epoch, the block must never
  // come back from Alloc, no matter how often the clock is nudged.
  for (int i = 0; i < 300; ++i) {
    epoch::TryAdvance();
    void* p = pool.Alloc(256);
    EXPECT_NE(p, a) << "block recycled under a pinned reader";
    pool.Free(p, 256);
  }
  delete guard;  // reader done: the block may now circulate again
  // Allocate without freeing: drains the thread cache, limbo, the global
  // list, and the overflow tier the pinned phase pushed `a` into.
  std::set<void*> seen;
  for (int i = 0; i < 500 && seen.find(a) == seen.end(); ++i) {
    seen.insert(pool.Alloc(256));
  }
  EXPECT_TRUE(seen.count(a));
}

TEST(PoolFreeList, CrossThreadFreeThenReuse) {
  // Allocate on thread A, free on thread B: the freed-bytes accounting and
  // the recycle counters must both see the blocks, and thread B's frees
  // must be reusable (the blocks reach the shared per-class lists).
  Pool pool(std::size_t{16} << 20);
  constexpr int kBlocks = 300;  // enough to overflow the freeing thread's
                                // cache and force spills to the global list
  std::vector<void*> blocks;
  ResetStats();
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(pool.Alloc(512));
  ASSERT_EQ(Stats().frees, 0u);
  std::uint64_t b_frees = 0, b_free_bytes = 0, b_spills = 0;
  std::thread b([&] {
    ResetStats();
    for (void* p : blocks) pool.Free(p, 512);
    b_frees = Stats().frees;
    b_free_bytes = Stats().free_bytes;
    b_spills = Stats().freelist_spills;
  });
  b.join();
  EXPECT_EQ(b_frees, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(b_free_bytes, static_cast<std::uint64_t>(kBlocks) * 512);
  EXPECT_GT(b_spills, 0u) << "cross-thread frees never reached the "
                             "shared list";
  EXPECT_EQ(pool.freed_bytes(), static_cast<std::uint64_t>(kBlocks) * 512);
  // Thread A (this thread) must be able to recycle thread B's frees.
  ResetStats();
  std::set<void*> freed(blocks.begin(), blocks.end());
  int recycled = 0;
  for (int i = 0; i < 4 * kBlocks; ++i) {
    epoch::TryAdvance();
    void* p = pool.Alloc(512);
    if (freed.count(p)) ++recycled;
  }
  EXPECT_GT(recycled, 0) << "no cross-thread block was ever reused";
  EXPECT_EQ(Stats().recycles, static_cast<std::uint64_t>(recycled));
  EXPECT_GT(Stats().freelist_refills, 0u);
}

TEST(PoolFreeList, ChurnLoopPlateausUsed) {
  // Sustained alloc/free churn at several times the pool size: used() must
  // plateau once the free lists warm up, and the recycle counters must
  // account for the difference.
  Pool pool(std::size_t{4} << 20);
  ResetStats();
  const ThreadStats before = Stats();
  const std::size_t target = 3 * pool.capacity();
  std::vector<void*> batch;
  std::size_t used_after_warmup = 0;
  while ((Stats() - before).alloc_bytes < target) {
    batch.clear();
    for (int i = 0; i < 256; ++i) batch.push_back(pool.Alloc(512));
    for (void* p : batch) pool.Free(p, 512);
    epoch::TryAdvance();
    if (used_after_warmup == 0 &&
        (Stats() - before).alloc_bytes > pool.capacity() / 4) {
      used_after_warmup = pool.used();
    }
  }
  ASSERT_GT(used_after_warmup, 0u);
  EXPECT_LE(pool.used(), used_after_warmup + pool.chunk_size())
      << "used() kept growing: reclamation is not closing the loop";
  EXPECT_GT((Stats() - before).recycles, 0u);
  EXPECT_GT(pool.recycled_bytes(), target / 2)
      << "most of the churn volume should be served by recycling";
}

TEST(PoolFreeList, NonPowerOfTwoSameSizeChurnRecycles) {
  // A freed block bins into floor(log2(size)) while the same-size request
  // looks up ceil(log2(size)): the floor-class probe (with per-block
  // sizes) must close that gap, or e.g. WORT's 136-byte nodes would never
  // recycle under same-size churn.
  Pool pool(std::size_t{16} << 20);
  constexpr std::size_t kOdd = 136;
  void* a = pool.Alloc(kOdd, 8);
  pool.Free(a, kOdd);
  std::set<void*> seen;
  for (int i = 0; i < 400 && seen.find(a) == seen.end(); ++i) {
    void* p = pool.Alloc(kOdd, 8);
    seen.insert(p);
    pool.Free(p, kOdd);
    epoch::TryAdvance();
  }
  EXPECT_TRUE(seen.count(a)) << "non-power-of-2 block never recycled";
  // The same floor-class entry must never serve a larger request.
  void* big = pool.Alloc(200, 8);
  EXPECT_NE(big, a);
}

TEST(PoolFreeList, IneligibleSizesAreAccountedButNotRecycled) {
  Pool pool(std::size_t{16} << 20);
  void* tiny = pool.Alloc(4, 8);
  pool.Free(tiny, 4);  // below the next-link minimum: accounting only
  const std::size_t big_size = std::size_t{2} << 20;
  void* big = pool.Alloc(big_size);
  pool.Free(big, big_size);  // above the largest class: accounting only
  EXPECT_EQ(pool.freed_bytes(), 4u + big_size);
  for (int i = 0; i < 100; ++i) {
    epoch::TryAdvance();
    EXPECT_NE(pool.Alloc(4, 8), tiny);
  }
  EXPECT_EQ(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, ResetDropsParkedBlocks) {
  Pool pool(std::size_t{16} << 20);
  void* a = pool.Alloc(512);
  pool.Free(a, 512);
  pool.Reset();
  // Parked blocks died with the reset: allocations come from the fresh
  // bump region, and the recycle counter starts over.
  EXPECT_EQ(pool.recycled_bytes(), 0u);
  void* p = pool.Alloc(512);
  EXPECT_TRUE(pool.Contains(p));
  for (int i = 0; i < 50; ++i) {
    epoch::TryAdvance();
    pool.Alloc(512);
  }
  EXPECT_EQ(pool.recycled_bytes(), 0u);
}

TEST(PoolFreeList, PersistentListsSurviveReopen) {
  const std::string path = ::testing::TempDir() + "/freelist_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{16} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5200'0000'0000ull;
  opts.persist_free_lists = true;
  std::set<void*> freed;
  {
    Pool pool(opts);
    ASSERT_FALSE(pool.reopened());
    // Free enough same-class blocks that a batch reaches the persistent
    // global list (the thread cache spills past kCacheCap).
    std::vector<void*> blocks;
    for (int i = 0; i < 64; ++i) blocks.push_back(pool.Alloc(512));
    for (void* p : blocks) {
      pool.Free(p, 512);
      freed.insert(p);
      epoch::TryAdvance();
    }
    // Cycle allocations so limbo drains and spills happen.
    for (int i = 0; i < 64; ++i) {
      epoch::TryAdvance();
      void* p = pool.Alloc(64);
      pool.Free(p, 64);
    }
  }
  {
    Pool pool(opts);
    ASSERT_TRUE(pool.reopened());
    // Recovery resumes recycling from the persisted lists: some allocation
    // of the class must return a block freed before the "crash".
    bool recycled = false;
    for (int i = 0; i < 64 && !recycled; ++i) {
      recycled = freed.count(pool.Alloc(512)) != 0;
    }
    EXPECT_TRUE(recycled) << "persistent free list lost across reopen";
  }
  std::remove(path.c_str());
}

TEST(PoolFreeList, ReopenSanitizesACorruptListHead) {
  const std::string path = ::testing::TempDir() + "/freelist_corrupt_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5300'0000'0000ull;
  opts.persist_free_lists = true;
  void* block = nullptr;
  {
    Pool pool(opts);
    // Plant a torn push: a block whose next link is garbage, directly on
    // the persistent list (simulated by freeing it, then scribbling).
    std::vector<void*> blocks;
    for (int i = 0; i < 64; ++i) blocks.push_back(pool.Alloc(512));
    for (void* p : blocks) pool.Free(p, 512);
    for (int i = 0; i < 64; ++i) {
      epoch::TryAdvance();
      pool.Free(pool.Alloc(64), 64);
    }
    block = blocks[0];
    *static_cast<std::uint64_t*>(block) = ~std::uint64_t{0};  // garbage next
  }
  {
    Pool pool(opts);  // must not crash or loop on the garbage link
    ASSERT_TRUE(pool.reopened());
    // Allocations still work; the sanitized list serves what it can and
    // the bump path covers the rest.
    for (int i = 0; i < 128; ++i) {
      void* p = pool.Alloc(512);
      EXPECT_TRUE(pool.Contains(p));
    }
  }
  std::remove(path.c_str());
}

TEST(PoolFreeList, AuditCountsSharedListsAndReportsForgedLinks) {
  // File-backed only for its fixed base, which turns a block address into
  // the pool offset the in-block links hold.
  const std::string path = ::testing::TempDir() + "/freelist_audit_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5800'0000'0000ull;
  {
    Pool pool(opts);
    std::vector<char*> big;
    std::vector<char*> small;
    for (int i = 0; i < 100; ++i) {
      big.push_back(static_cast<char*>(pool.Alloc(512)));
    }
    for (int i = 0; i < 30; ++i) {
      small.push_back(static_cast<char*>(pool.Alloc(64)));
    }
    for (char* p : big) pool.Free(p, 512);
    for (char* p : small) pool.Free(p, 64);
    // Move every freed block onto the shared lists: the thread's caches
    // spill and its limbo parks in the pool's overflow, which drains once
    // the epoch has moved past the stamps.
    pool.FlushThreadLimbo();
    epoch::TryAdvance();
    pool.DrainLimboQuantum();
    const CheckReport clean = CheckPool(&pool);
    EXPECT_TRUE(clean.ok()) << clean.ToString();
    EXPECT_EQ(clean.free_blocks, 130u);
    EXPECT_EQ(clean.free_bytes, 100u * 512 + 30u * 64);

    // Forge one defect at a time into a listed block's words: word 0 is
    // the next link, word 1 the block's size.
    auto* words = reinterpret_cast<std::uint64_t*>(big[7]);
    const auto self = static_cast<std::uint64_t>(
        big[7] - reinterpret_cast<char*>(opts.fixed_base));
    auto expect_reported = [&](std::uint64_t* word, std::uint64_t forged,
                               const std::string& error) {
      const std::uint64_t saved = *word;
      *word = forged;
      const std::string report = CheckPool(&pool).ToString();
      *word = saved;
      EXPECT_NE(report.find(error), std::string::npos) << report;
    };
    expect_reported(&words[0], self + 4, "misaligned or outside");
    expect_reported(&words[0], pool.used(), "misaligned or outside");
    expect_reported(&words[0], self, "cycle detected");
    expect_reported(&words[1], 3, "torn size word");
    EXPECT_TRUE(CheckPool(&pool).ok());
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, TruncatedFileIsReportedAsCorrupt) {
  const std::string path = ::testing::TempDir() + "/truncated_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5400'0000'0000ull;
  { Pool pool(opts); pool.Alloc(512); }
  // Chop the file to half its capacity — the classic lost-tail copy. The
  // header's own capacity field survives at offset 8, so reopen must see
  // the mismatch and refuse with kCorrupt instead of silently re-extending
  // the file with zero holes.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(opts.capacity / 2)), 0);
  try {
    Pool pool(opts);
    FAIL() << "reopen of a truncated pool file must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, FileTruncatedMidHeaderIsCorrupt) {
  const std::string path = ::testing::TempDir() + "/midheader_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5500'0000'0000ull;
  { Pool pool(opts); }
  ASSERT_EQ(::truncate(path.c_str(), 24), 0);  // a few header words remain
  try {
    Pool pool(opts);
    FAIL() << "reopen of a mid-header-truncated file must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kCorrupt);
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, CapacityMismatchIsIncompatibleNotCorrupt) {
  const std::string path = ::testing::TempDir() + "/capmismatch_pool_test.pm";
  std::remove(path.c_str());
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = path;
  opts.fixed_base = 0x5600'0000'0000ull;
  { Pool pool(opts); }
  Pool::Options wrong = opts;
  wrong.capacity = std::size_t{8} << 20;  // healthy file, wrong parameters
  try {
    Pool pool(wrong);
    FAIL() << "reopen with a different capacity must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kIncompatible);
    // The message names both capacities so the fix is obvious.
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(std::size_t{4} << 20)),
              std::string::npos);
  }
  {  // the original parameters still work: the file was never touched
    Pool pool(opts);
    EXPECT_TRUE(pool.reopened());
  }
  std::remove(path.c_str());
}

TEST(PoolReopen, MissingDirectoryIsTransientIoError) {
  Pool::Options opts;
  opts.capacity = std::size_t{4} << 20;
  opts.file_path = "/nonexistent-dir-fastfair/pool.pm";
  opts.fixed_base = 0x5700'0000'0000ull;
  try {
    Pool pool(opts);
    FAIL() << "open under a missing directory must throw";
  } catch (const PoolError& e) {
    EXPECT_EQ(e.kind(), PoolError::Kind::kIo);  // retryable, not corruption
  }
}

}  // namespace
}  // namespace fastfair::pm
