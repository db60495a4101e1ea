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

/// A full leaf holding keys 10, 20, ... with values key + 1.
std::map<Key, Value> FillFull(NodeT* n) {
  n->Init(0);
  RealMem rm;
  std::map<Key, Value> committed;
  for (int i = 0; i < kCap; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, n, k, k + 1);
    committed[k] = k + 1;
  }
  return committed;
}

class FairSplitCrash : public ::testing::Test {
 protected:
  FairSplitCrash() {
    committed_ = FillFull(&left_);
    right_.Init(0);
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
  FillFull(&left);
  right.Init(0);
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
  const auto committed = FillFull(&left);
  right.Init(0);
  RealMem rm;
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

// FAIR's flush cost: splitting flushes the sibling once, from its header
// through the line of its terminator, plus two 8-byte commit points — no
// log, no copy-on-write of the source, and no flush of the sibling's tail
// lines, which no reader reaches. At 512 B the sibling's 14 records put
// its terminator in slot 14, cache line 4: 5 sibling lines, 7 in all.
TEST_F(FairSplitCrash, SplitFlushCountMatchesPaperModel) {
  std::size_t flushes = 0, fences = 0;
  for (const auto& e : sim_.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
    fences += e.kind == crashsim::Event::Kind::kFence;
  }
  const int terminator = kCap - kCap / 2;
  const std::size_t terminator_line =
      (sizeof(NodeHeader) + terminator * sizeof(Record)) / kCacheLineSize;
  EXPECT_EQ(flushes, terminator_line + 1 + 2);
  EXPECT_EQ(flushes, 7u);
  EXPECT_EQ(fences, 3u);
}

// Garbage a recycled block may hold: a copy of a committed key with a
// wrong value, or a key no one inserted, each with a non-zero ptr.
Record GarbageAt(int slot) {
  const Key k = static_cast<Key>((slot + 1) * 10 + (slot % 2) * 5);
  return {k, 0xdead0000u + static_cast<std::uint64_t>(slot)};
}

bool IsGarbageValue(Value v) {
  return (v & ~std::uint64_t{0xffff}) == 0xdead0000u;
}

/// Sibling block as a recycled allocation leaves it: Init cleared it in
/// the cache, but PM still holds the old bytes wherever a flush has not
/// reached. Every record slot gets garbage (the split's stores and its
/// flushed lines overwrite the copy's part); the header stays clean, as
/// Init's header line always reaches PM with the split's flush.
void RecycledSibling(NodeT* n) {
  n->Init(0);
  for (int i = 0; i <= kCap; ++i) n->records[i] = GarbageAt(i);
}

/// Every committed key with its exact value through the move-right
/// reader, and no garbage or phantom key visible.
void ExpectCommittedOnly(const SimMem::Image& img, const NodeT* left,
                         const std::map<Key, Value>& committed) {
  for (const auto& [k, v] : committed) {
    ASSERT_EQ(ImageSearch(img, left, k), v) << "lost key " << k;
  }
  for (int i = 0; i <= kCap; ++i) {
    const Key k = GarbageAt(i).key;
    const Value got = ImageSearch(img, left, k);
    ASSERT_FALSE(IsGarbageValue(got)) << "stale record " << k;
    if (committed.count(k) == 0) {
      ASSERT_EQ(got, kNoValue) << "phantom " << k;
    }
  }
}

TEST(FairRecycledSibling, SampledImagesAndCommitSuffixHideTheTail) {
  alignas(64) NodeT left;
  alignas(64) NodeT right;
  const auto committed = FillFull(&left);
  RecycledSibling(&right);
  {
    SimMem sim;
    sim.Adopt(&left, sizeof(left));
    sim.Adopt(&right, sizeof(right));
    SimOps::SplitCopy(sim, &left, &right, kCap / 2, kCap);
    SimOps::CommitSplit(sim, &left, &right, kCap / 2);
    sim.SampleCrashStates(20000, /*seed=*/11, [&](const SimMem::Image& img) {
      ExpectCommittedOnly(img, &left, committed);
    });
  }
  // Commit suffix, exhaustively, over a sibling whose copy is persisted
  // and whose tail still holds the recycled bytes.
  alignas(64) NodeT l2;
  alignas(64) NodeT r2;
  FillFull(&l2);
  RecycledSibling(&r2);
  RealMem rm;
  RealOps::SplitCopy(rm, &l2, &r2, kCap / 2, kCap);
  SimMem sim;
  sim.Adopt(&l2, sizeof(l2));
  sim.Adopt(&r2, sizeof(r2));
  SimOps::CommitSplit(sim, &l2, &r2, kCap / 2);
  const bool complete = sim.EnumerateCrashStates(
      [&](const SimMem::Image& img) { ExpectCommittedOnly(img, &l2, committed); });
  EXPECT_TRUE(complete);
}

TEST(FairRecycledSibling, AppendingUntilFullNeverSurfacesTheTail) {
  alignas(64) NodeT left;
  alignas(64) NodeT right;
  const auto committed = FillFull(&left);
  RecycledSibling(&right);
  SimMem split;
  split.Adopt(&left, sizeof(left));
  split.Adopt(&right, sizeof(right));
  SimOps::SplitCopy(split, &left, &right, kCap / 2, kCap);
  SimOps::CommitSplit(split, &left, &right, kCap / 2);
  // The sibling as the final image left it: its flushed lines hold the
  // copy, its tail lines the recycled bytes.
  const auto final_img = split.FinalImage();
  auto* words = reinterpret_cast<std::uint64_t*>(&right);
  for (std::size_t i = 0; i < sizeof(NodeT) / 8; ++i) {
    words[i] = final_img.Read64(words + i);
  }
  RealMem rm;
  std::map<Key, Value> before;
  for (const auto& [k, v] : committed) {
    if (k >= RealOps::LoadFence(rm, &right)) before[k] = v;
  }
  for (Key k = static_cast<Key>(kCap + 1) * 10;
       RealOps::CountRaw(rm, &right) < kCap; k += 10) {
    std::map<Key, Value> after = before;
    after[k] = k + 1;
    SimMem sim;
    sim.Adopt(&right, sizeof(right));
    SimOps::InsertKey(sim, &right, k, k + 1);
    const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
      ImageMem m{&img};
      Record buf[kCap];
      const int n = ImgOps::CollectValid(m, &right, buf);
      std::map<Key, Value> seen;
      for (int i = 0; i < n; ++i) seen[buf[i].key] = buf[i].ptr;
      ASSERT_TRUE(seen == before || seen == after) << "appending " << k;
      for (int i = 0; i <= kCap; ++i) {
        ASSERT_FALSE(IsGarbageValue(
            ImgOps::SearchLeaf(m, &right, GarbageAt(i).key)));
      }
    });
    ASSERT_TRUE(complete);
    const auto img = sim.FinalImage();
    for (std::size_t i = 0; i < sizeof(NodeT) / 8; ++i) {
      words[i] = img.Read64(words + i);
    }
    before = after;
  }
  EXPECT_EQ(RealOps::CountRaw(rm, &right), kCap);
}

// A split whose key lands right carries it in the copy: no image shows
// the key before the sibling pointer commits, and every image after it
// shows the key with the old set intact.
class FairCarriedSplit : public ::testing::TestWithParam<Key> {};

void ExpectOldSetOrWithCarry(const SimMem::Image& img, const NodeT* left,
                             const std::map<Key, Value>& committed, Key key) {
  for (const auto& [k, v] : committed) {
    ASSERT_EQ(ImageSearch(img, left, k), v) << "lost key " << k;
  }
  ImageMem m{&img};
  const bool linked = ImgOps::LoadSibling(m, left) != 0;
  ASSERT_EQ(ImageSearch(img, left, key), linked ? key + 1 : kNoValue);
}

TEST_P(FairCarriedSplit, KeyAppearsWithTheCommit) {
  const Key key = GetParam();
  alignas(64) NodeT left;
  alignas(64) NodeT right;
  const auto committed = FillFull(&left);
  right.Init(0);
  const Record carry{key, key + 1};
  {
    SimMem sim;
    sim.Adopt(&left, sizeof(left));
    sim.Adopt(&right, sizeof(right));
    SimOps::SplitCopy(sim, &left, &right, kCap / 2, kCap, &carry);
    SimOps::CommitSplit(sim, &left, &right, kCap / 2);
    std::size_t flushes = 0;
    for (const auto& e : sim.events()) {
      flushes += e.kind == crashsim::Event::Kind::kFlush;
    }
    EXPECT_EQ(flushes, 7u);  // 15 records: the terminator stays in line 4
    sim.SampleCrashStates(20000, /*seed=*/13, [&](const SimMem::Image& img) {
      ExpectOldSetOrWithCarry(img, &left, committed, key);
    });
    const auto img = sim.FinalImage();
    ImageMem m{&img};
    EXPECT_EQ(ImgOps::CountRaw(m, &right), kCap - kCap / 2 + 1);
  }
  alignas(64) NodeT l2;
  alignas(64) NodeT r2;
  FillFull(&l2);
  r2.Init(0);
  RealMem rm;
  RealOps::SplitCopy(rm, &l2, &r2, kCap / 2, kCap, &carry);
  SimMem sim;
  sim.Adopt(&l2, sizeof(l2));
  sim.Adopt(&r2, sizeof(r2));
  SimOps::CommitSplit(sim, &l2, &r2, kCap / 2);
  std::size_t with_key = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ExpectOldSetOrWithCarry(img, &l2, committed, key);
    with_key += ImageSearch(img, &l2, key) != kNoValue;
  });
  EXPECT_TRUE(complete);
  EXPECT_GE(with_key, 1u);
}

// Just above the separator, between two copied keys, and past the last.
INSTANTIATE_TEST_SUITE_P(Positions, FairCarriedSplit,
                         ::testing::Values(Key{(kCap / 2 + 1) * 10 + 5},
                                           Key{200 + 5},
                                           Key{(kCap + 1) * 10}));

}  // namespace
}  // namespace fastfair::core
