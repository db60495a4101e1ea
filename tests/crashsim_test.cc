// Unit tests for the cache-line crash simulator itself (the machinery the
// FAST/FAIR crash suites rely on). We verify its semantics on tiny,
// hand-checkable store/flush/fence sequences.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "crashsim/simmem.h"

namespace fastfair::crashsim {
namespace {

class SimFixture : public ::testing::Test {
 protected:
  SimFixture() {
    for (auto& w : buf_) w = 0;
    sim_.Adopt(buf_, sizeof(buf_));
  }

  // Two cache lines of adopted memory.
  alignas(64) std::uint64_t buf_[16];
  SimMem sim_;
};

TEST_F(SimFixture, LoadSeesProgramOrderStores) {
  EXPECT_EQ(sim_.Load64(&buf_[0]), 0u);
  sim_.Store64(&buf_[0], 42);
  EXPECT_EQ(sim_.Load64(&buf_[0]), 42u);
  sim_.Store64(&buf_[0], 43);
  EXPECT_EQ(sim_.Load64(&buf_[0]), 43u);
  EXPECT_EQ(buf_[0], 0u);  // shadow buffer untouched
}

TEST_F(SimFixture, StoreOutsideAdoptedThrows) {
  std::uint64_t other = 0;
  EXPECT_THROW(sim_.Store64(&other, 1), std::out_of_range);
  EXPECT_THROW(sim_.Load64(&other), std::out_of_range);
}

TEST_F(SimFixture, MisalignedAdoptThrows) {
  SimMem s;
  EXPECT_THROW(
      s.Adopt(reinterpret_cast<char*>(buf_) + 4, 8), std::invalid_argument);
}

TEST_F(SimFixture, FinalImageAppliesAllStores) {
  sim_.Store64(&buf_[0], 1);
  sim_.Store64(&buf_[9], 2);
  sim_.Store64(&buf_[0], 3);
  const auto img = sim_.FinalImage();
  EXPECT_EQ(img.Read64(&buf_[0]), 3u);
  EXPECT_EQ(img.Read64(&buf_[9]), 2u);
  EXPECT_EQ(img.Read64(&buf_[1]), 0u);
}

TEST_F(SimFixture, StoreCount) {
  sim_.Store64(&buf_[0], 1);
  sim_.Flush(&buf_[0]);
  sim_.Fence();
  sim_.Store64(&buf_[1], 2);
  EXPECT_EQ(sim_.store_count(), 2u);
  EXPECT_EQ(sim_.events().size(), 4u);
}

// One store, no flush: crash images are {nothing, store persisted}.
TEST_F(SimFixture, SingleUnflushedStoreHasTwoImages) {
  sim_.Store64(&buf_[0], 7);
  std::set<std::uint64_t> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates(
      [&](const SimMem::Image& img) { seen.insert(img.Read64(&buf_[0])); }));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{0, 7}));
}

// Store + flush + fence: after the fence the store is guaranteed durable,
// so the "nothing persisted" image exists only for early crash points.
TEST_F(SimFixture, FencedFlushForcesDurability) {
  sim_.Store64(&buf_[0], 7);
  sim_.Flush(&buf_[0]);
  sim_.Fence();
  sim_.Store64(&buf_[1], 9);  // same line, after the flush
  // Enumerate and check: any image containing buf_[1]=9 must contain
  // buf_[0]=7 (store order within a line), and images after the fence
  // always contain buf_[0]=7 — i.e. {0,0},{7,0},{7,9} but never {0,9}.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates([&](const SimMem::Image& img) {
    seen.insert({img.Read64(&buf_[0]), img.Read64(&buf_[1])});
  }));
  EXPECT_TRUE(seen.count({0, 0}));
  EXPECT_TRUE(seen.count({7, 0}));
  EXPECT_TRUE(seen.count({7, 9}));
  EXPECT_FALSE(seen.count({0, 9}));
}

// Two lines, no fences: all four persistence combinations are possible
// (lines evict independently).
TEST_F(SimFixture, IndependentLinesEvictIndependently) {
  sim_.Store64(&buf_[0], 1);  // line 0
  sim_.Store64(&buf_[8], 2);  // line 1
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates([&](const SimMem::Image& img) {
    seen.insert({img.Read64(&buf_[0]), img.Read64(&buf_[8])});
  }));
  EXPECT_EQ(seen.size(), 4u);  // {0,0} {1,0} {0,2} {1,2}
}

// Within one line, TSO means a later store never persists without the
// earlier one.
TEST_F(SimFixture, SameLineStoresPersistInOrder) {
  sim_.Store64(&buf_[2], 1);
  sim_.Store64(&buf_[3], 2);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates([&](const SimMem::Image& img) {
    seen.insert({img.Read64(&buf_[2]), img.Read64(&buf_[3])});
  }));
  EXPECT_TRUE(seen.count({0, 0}));
  EXPECT_TRUE(seen.count({1, 0}));
  EXPECT_TRUE(seen.count({1, 2}));
  EXPECT_FALSE(seen.count({0, 2}));  // violates store order
}

// Flush without a fence provides no durability floor.
TEST_F(SimFixture, UnfencedFlushGuaranteesNothing) {
  sim_.Store64(&buf_[0], 7);
  sim_.Flush(&buf_[0]);  // no fence
  std::set<std::uint64_t> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates(
      [&](const SimMem::Image& img) { seen.insert(img.Read64(&buf_[0])); }));
  EXPECT_TRUE(seen.count(0));  // may still be lost
  EXPECT_TRUE(seen.count(7));
}

// The flush's durability floor covers the line content *at flush time*,
// not stores issued afterwards.
TEST_F(SimFixture, FlushFloorIsFlushTimeContent) {
  sim_.Store64(&buf_[0], 1);
  sim_.Flush(&buf_[0]);
  sim_.Fence();
  sim_.Store64(&buf_[0], 2);  // overwrites after the fenced flush
  std::set<std::uint64_t> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates(
      [&](const SimMem::Image& img) { seen.insert(img.Read64(&buf_[0])); }));
  // 0 only before the fence; afterwards at least value 1 is durable.
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(1));
  EXPECT_TRUE(seen.count(2));
}

TEST_F(SimFixture, MaxStatesCapReturnsFalse) {
  // 8 independent unfenced lines in this 2-line buffer is impossible; use
  // many stores to one line + another line to exceed a tiny cap.
  for (int i = 0; i < 8; ++i) sim_.Store64(&buf_[0], i + 1);
  for (int i = 0; i < 8; ++i) sim_.Store64(&buf_[8], i + 1);
  std::size_t n = 0;
  EXPECT_FALSE(sim_.EnumerateCrashStates(
      [&](const SimMem::Image&) { ++n; }, /*max_states=*/5));
  EXPECT_LE(n, 5u);
}

TEST_F(SimFixture, EnumerationDeduplicatesImages) {
  sim_.Store64(&buf_[0], 1);
  sim_.Fence();  // fence without flush: no new image
  sim_.Fence();
  std::size_t n = 0;
  EXPECT_TRUE(
      sim_.EnumerateCrashStates([&](const SimMem::Image&) { ++n; }));
  EXPECT_EQ(n, 2u);  // {} and {1} exactly once
}

TEST_F(SimFixture, SamplingRespectsFloors) {
  sim_.Store64(&buf_[0], 1);
  sim_.Flush(&buf_[0]);
  sim_.Fence();
  sim_.Store64(&buf_[8], 2);
  // Sampled images must never violate the same-line order / floor rules:
  // here, any image with buf_[8]==2 was sampled at a crash point after the
  // fence, at which buf_[0]==1 is the floor.
  sim_.SampleCrashStates(500, 42, [&](const SimMem::Image& img) {
    if (img.Read64(&buf_[8]) == 2u) {
      EXPECT_EQ(img.Read64(&buf_[0]), 1u);
    }
  });
}

// Both walks run one crash model: on a three-line log with a fenced flush,
// an unfenced flush and same-line overwrites, every sampled image is an
// enumerated one, and enumeration yields the hand-counted 14 images.
TEST(CrashModel, SamplingDrawsFromTheEnumeratedImages) {
  alignas(64) std::uint64_t buf[24] = {};  // lines A, B, C
  SimMem sim;
  sim.Adopt(buf, sizeof(buf));
  sim.Store64(&buf[0], 1);   // A: 1 store
  sim.Store64(&buf[0], 2);   // A: 2 (overwrite)
  sim.Flush(&buf[0]);
  sim.Fence();               // A's floor becomes 2
  sim.Store64(&buf[8], 3);   // B: 1 store
  sim.Flush(&buf[8]);        // never fenced: B keeps floor 0
  sim.Store64(&buf[16], 4);  // C: 1 store
  sim.Store64(&buf[16], 5);  // C: 2 (overwrite)
  sim.Store64(&buf[1], 6);   // A: 3
  // Cuts (a, b, c), stores each line persists: before the fence a is 0,
  // 1 or 2 with b = c = 0; after it a >= 2, b is 0 or 1 and c is 0, 1 or
  // 2, and a reaches 3 only after the last store. So (0, 0, 0), (1, 0, 0),
  // six cuts with a = 2 and six with a = 3: 14 cut vectors, and each
  // reads different words.
  auto words = [&](const SimMem::Image& img) {
    std::vector<std::uint64_t> w;
    for (const auto& x : buf) w.push_back(img.Read64(&x));
    return w;
  };
  std::set<std::vector<std::uint64_t>> enumerated;
  std::size_t calls = 0;
  EXPECT_TRUE(sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    enumerated.insert(words(img));
    ++calls;
  }));
  EXPECT_EQ(calls, 14u);
  EXPECT_EQ(enumerated.size(), 14u);
  std::set<std::vector<std::uint64_t>> sampled;
  sim.SampleCrashStates(2000, 42, [&](const SimMem::Image& img) {
    const auto w = words(img);
    EXPECT_TRUE(enumerated.count(w)) << "sampled image outside the model";
    sampled.insert(w);
  });
  // Each a = 3 image has odds 1/120 per draw, so 2000 draws reach all 14.
  EXPECT_EQ(sampled, enumerated);
}

TEST_F(SimFixture, ImageReadOutsideThrows) {
  sim_.Store64(&buf_[0], 1);
  const auto img = sim_.FinalImage();
  std::uint64_t other;
  EXPECT_THROW(img.Read64(&other), std::out_of_range);
}

}  // namespace
}  // namespace fastfair::crashsim
