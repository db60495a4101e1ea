// Failure-atomicity verification for FAIR node splits (paper §3.2, Fig 2).
//
// A FAIR split's crash states fall into the paper's two classes:
//   (2)  sibling populated but not yet linked  -> invisible, state = before
//   (3/4) sibling linked, source not truncated -> "virtual single node":
//         readers traverse the sibling pointer; every key readable exactly
//         once via the move-right rule
//   (5)  truncated                              -> clean two-node state
//
// The split event log is large (a whole node copy), so the two-node suite
// uses randomized crash sampling plus exhaustive enumeration of the commit
// suffix (the only events that change reachability).

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "crashsim/simmem.h"

namespace fastfair::core {
namespace {

using crashsim::ImageMem;
using crashsim::SimMem;
using NodeT = Node<512>;
constexpr int kCap = NodeT::kCapacity;

using RealOps = NodeOps<NodeT, RealMem>;
using SimOps = NodeOps<NodeT, SimMem>;
using ImgOps = NodeOps<NodeT, ImageMem>;

/// B-link reader over a crash image: probe `left`, move right if required.
Value ImageSearch(const SimMem::Image& img, const NodeT* left, Key key) {
  ImageMem m{&img};
  auto resolve = [&](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  const NodeT* n = left;
  for (int hop = 0; hop < 4; ++hop) {  // bounded: one sibling in this test
    const Value v = ImgOps::SearchLeaf(m, n, key);
    if (v != kNoValue) return v;
    if (!ImgOps::ShouldMoveRight(m, n, key, resolve)) return kNoValue;
    n = resolve(ImgOps::LoadSibling(m, n));
  }
  return kNoValue;
}

class FairSplitCrash : public ::testing::Test {
 protected:
  FairSplitCrash() {
    left_.Init(0);
    right_.Init(0);
    RealMem rm;
    for (int i = 0; i < kCap; ++i) {
      const Key k = static_cast<Key>((i + 1) * 10);
      RealOps::InsertKey(rm, &left_, k, k + 1);
      committed_[k] = k + 1;
    }
    sim_.Adopt(&left_, sizeof(left_));
    sim_.Adopt(&right_, sizeof(right_));
    const int cnt = kCap;
    SimOps::SplitCopy(sim_, &left_, &right_, cnt / 2, cnt);
    SimOps::CommitSplit(sim_, &left_, &right_, cnt / 2);
  }

  void VerifyImage(const SimMem::Image& img) {
    // Every committed key must be readable with its exact value through the
    // move-right reader — at every crash point.
    for (const auto& [k, v] : committed_) {
      ASSERT_EQ(ImageSearch(img, &left_, k), v) << "lost key " << k;
    }
    // And no phantom keys appear.
    EXPECT_EQ(ImageSearch(img, &left_, 5), kNoValue);
    EXPECT_EQ(ImageSearch(img, &left_, static_cast<Key>(kCap + 2) * 10),
              kNoValue);
  }

  alignas(64) NodeT left_;
  alignas(64) NodeT right_;
  std::map<Key, Value> committed_;
  SimMem sim_;
};

TEST_F(FairSplitCrash, SampledCrashStatesPreserveAllKeys) {
  std::size_t n = 0;
  sim_.SampleCrashStates(20000, /*seed=*/7, [&](const SimMem::Image& img) {
    ++n;
    VerifyImage(img);
  });
  EXPECT_EQ(n, 20000u);
}

TEST_F(FairSplitCrash, FinalImageIsCleanTwoNodeState) {
  const auto img = sim_.FinalImage();
  ImageMem m{&img};
  const int left_cnt = ImgOps::CountRaw(m, &left_);
  const int right_cnt = ImgOps::CountRaw(m, &right_);
  EXPECT_EQ(left_cnt, kCap / 2);
  EXPECT_EQ(right_cnt, kCap - kCap / 2);
  EXPECT_EQ(ImgOps::LoadSibling(m, &left_),
            reinterpret_cast<std::uint64_t>(&right_));
  VerifyImage(img);
}

TEST_F(FairSplitCrash, UnlinkedSiblingIsInvisible) {
  // Replay only SplitCopy (no commit): the "before" world must be intact
  // and the sibling unreachable.
  alignas(64) NodeT left;
  alignas(64) NodeT right;
  left.Init(0);
  right.Init(0);
  RealMem rm;
  for (int i = 0; i < kCap; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &left, k, k + 1);
  }
  SimMem sim;
  sim.Adopt(&left, sizeof(left));
  sim.Adopt(&right, sizeof(right));
  SimOps::SplitCopy(sim, &left, &right, kCap / 2, kCap);
  sim.EnumerateCrashStates(
      [&](const SimMem::Image& img) {
        ImageMem m{&img};
        EXPECT_EQ(ImgOps::LoadSibling(m, &left), 0u);
        for (int i = 0; i < kCap; ++i) {
          const Key k = static_cast<Key>((i + 1) * 10);
          EXPECT_EQ(ImgOps::SearchLeaf(m, &left, k), k + 1);
        }
      },
      /*max_states=*/4000);  // cap: sibling-line cuts are reader-invisible
}

// The commit suffix (sibling-pointer store, truncation store, their
// flushes) is the part that changes reachability; enumerate it
// exhaustively by replaying the prefix as already-persisted state.
TEST_F(FairSplitCrash, CommitSuffixExhaustive) {
  alignas(64) NodeT left;
  alignas(64) NodeT right;
  left.Init(0);
  right.Init(0);
  RealMem rm;
  std::map<Key, Value> committed;
  for (int i = 0; i < kCap; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &left, k, k + 1);
    committed[k] = k + 1;
  }
  // Persisted prefix: sibling fully built (RealMem), then sim the commit.
  RealOps::SplitCopy(rm, &left, &right, kCap / 2, kCap);
  SimMem sim;
  sim.Adopt(&left, sizeof(left));
  sim.Adopt(&right, sizeof(right));
  SimOps::CommitSplit(sim, &left, &right, kCap / 2);
  std::size_t images = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    for (const auto& [k, v] : committed) {
      ASSERT_EQ(ImageSearch(img, &left, k), v);
    }
    // FixNode on a materialized copy completes the truncation.
    alignas(64) NodeT copy;
    auto* words = reinterpret_cast<std::uint64_t*>(&copy);
    const auto* addrs = reinterpret_cast<const std::uint64_t*>(&left);
    for (std::size_t i = 0; i < sizeof(NodeT) / 8; ++i) {
      words[i] = img.Read64(addrs + i);
    }
    copy.hdr.lock.Reset();
    RealMem m2;
    auto resolve = [&](std::uint64_t p) -> const NodeT* {
      // The copy's sibling pointer still addresses the adopted `right`.
      return reinterpret_cast<const NodeT*>(p);
    };
    RealOps::FixNode(m2, &copy, resolve);
    const int cnt = RealOps::CountRaw(m2, &copy);
    if (RealOps::LoadSibling(m2, &copy) != 0) {
      EXPECT_EQ(cnt, kCap / 2);  // truncation completed by recovery
    } else {
      EXPECT_EQ(cnt, kCap);  // commit never landed: full single node
    }
  });
  EXPECT_TRUE(complete);
  EXPECT_GE(images, 3u);
}

// FAIR's flush cost: splitting must flush the sibling once (node/64 lines)
// plus two 8-byte commit points — no log, no copy-on-write of the source.
TEST_F(FairSplitCrash, SplitFlushCountMatchesPaperModel) {
  std::size_t flushes = 0, fences = 0;
  for (const auto& e : sim_.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
    fences += e.kind == crashsim::Event::Kind::kFence;
  }
  EXPECT_EQ(flushes, sizeof(NodeT) / kCacheLineSize + 2);
  EXPECT_EQ(fences, 3u);
}

}  // namespace
}  // namespace fastfair::core
