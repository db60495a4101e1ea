// Unit tests for the cache-line crash simulator itself (the machinery the
// FAST/FAIR crash suites rely on). We verify its semantics on tiny,
// hand-checkable store/flush/fence sequences.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
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

// A store that rewrites the value its word holds leaves the line's
// content as it was: the cuts on either side of it name one image.
TEST_F(SimFixture, RewritingAValueAddsNoImage) {
  sim_.Store64(&buf_[0], 0);  // the initial value
  sim_.Store64(&buf_[0], 1);
  sim_.Store64(&buf_[0], 0);  // back to the initial value
  std::vector<std::uint64_t> seen;
  EXPECT_TRUE(sim_.EnumerateCrashStates(
      [&](const SimMem::Image& img) { seen.push_back(img.Read64(&buf_[0])); }));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1}));
}

using Words = std::vector<std::uint64_t>;

// The crash model walked without merging equal contents: every cut vector
// of every crash point, applied to the `n` adopted words at `base`, which
// hold the initial content. `*cut_vectors` counts them.
std::set<Words> ReferenceImages(const SimMem& sim, const std::uint64_t* base,
                                std::size_t n, std::size_t* cut_vectors) {
  const auto line_of = [](std::uintptr_t a) { return a / kCacheLineSize; };
  std::map<std::uintptr_t, std::vector<std::size_t>> by_line;  // store events
  const auto& ev = sim.events();
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == Event::Kind::kStore) {
      by_line[line_of(ev[i].addr)].push_back(i);
    }
  }
  std::vector<std::uintptr_t> ids;
  for (const auto& [id, stores] : by_line) ids.push_back(id);
  const std::size_t L = ids.size();
  std::vector<std::size_t> floor(L, 0), pending(L, 0), upto(L, 0);
  std::vector<bool> flushed(L, false);
  std::set<Words> out;
  *cut_vectors = 0;
  const auto index = [&](std::uintptr_t a) {
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), line_of(a)) - ids.begin());
  };
  for (std::size_t i = 0; i <= ev.size(); ++i) {
    if (i > 0) {  // the state after event i - 1
      const Event& e = ev[i - 1];
      if (e.kind == Event::Kind::kStore) {
        ++upto[index(e.addr)];
      } else if (e.kind == Event::Kind::kFlush) {
        const std::size_t l = index(e.addr);
        if (l < L && ids[l] == line_of(e.addr)) {
          pending[l] = upto[l];
          flushed[l] = true;
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          if (flushed[l]) floor[l] = std::max(floor[l], pending[l]);
          flushed[l] = false;
        }
      }
    }
    std::vector<std::size_t> cuts = floor;
    for (;;) {
      ++*cut_vectors;
      Words w(base, base + n);
      for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t k = 0; k < cuts[l]; ++k) {
          const Event& s = ev[by_line[ids[l]][k]];
          w[(s.addr - reinterpret_cast<std::uintptr_t>(base)) / 8] = s.value;
        }
      }
      out.insert(w);
      std::size_t l = L;
      while (l > 0 && cuts[l - 1] == upto[l - 1]) {
        cuts[l - 1] = floor[l - 1];
        --l;
      }
      if (l == 0) break;
      ++cuts[l - 1];
    }
  }
  return out;
}

// On a logged FAST/FAIR sequence (a front insert shifting a 20-record
// leaf, a delete shift, a FAIR split) the walk yields exactly the images
// the cut vectors name, each once, though many cut vectors repeat one.
TEST(CrashModel, EnumerationVisitsEachImageOnce) {
  using NodeT = core::Node<512>;
  using RealOps = core::NodeOps<NodeT, core::RealMem>;
  using SimOps = core::NodeOps<NodeT, SimMem>;
  struct alignas(64) Pair {
    NodeT left, right;
  } nodes;
  nodes.left.Init(0);
  nodes.right.Init(0);
  core::RealMem rm;
  for (Key k = 2; k <= 40; k += 2) {
    RealOps::InsertKey(rm, &nodes.left, k, k + 1);
  }
  SimMem sim;
  sim.Adopt(&nodes, sizeof(nodes));
  SimOps::InsertKey(sim, &nodes.left, 1, 2001);
  ASSERT_TRUE(SimOps::DeleteKey(sim, &nodes.left, 20));
  const int cnt = SimOps::CountRaw(sim, &nodes.left);
  SimOps::SplitCopy(sim, &nodes.left, &nodes.right, cnt / 2, cnt);
  SimOps::CommitSplit(sim, &nodes.left, &nodes.right, cnt / 2);

  const auto* base = reinterpret_cast<const std::uint64_t*>(&nodes);
  const std::size_t n = sizeof(nodes) / 8;
  std::set<Words> images;
  std::size_t calls = 0;
  EXPECT_TRUE(sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    Words w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = img.Read64(base + i);
    images.insert(w);
    ++calls;
  }));
  std::size_t cut_vectors = 0;
  EXPECT_EQ(images, ReferenceImages(sim, base, n, &cut_vectors));
  EXPECT_EQ(calls, images.size());
  EXPECT_LT(calls, cut_vectors);  // the log does rewrite values
}

TEST_F(SimFixture, ImageReadOutsideThrows) {
  sim_.Store64(&buf_[0], 1);
  const auto img = sim_.FinalImage();
  std::uint64_t other;
  EXPECT_THROW(img.Read64(&other), std::out_of_range);
}

}  // namespace
}  // namespace fastfair::crashsim
