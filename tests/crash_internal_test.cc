// Crash-state verification for FAST on *internal* nodes.
//
// Internal nodes differ from leaves in two ways that matter for failure
// atomicity: slot 0's left neighbour is hdr.leftmost (so slot-0 inserts
// duplicate the leftmost child instead of opening a hole), and readers
// select a child rather than match a key — a crash image must never route
// a key to a wrong child, only to the pre- or post-insert child.

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

/// Reference child selection over a separator->child map with a leftmost.
std::uint64_t ExpectedChild(const std::map<Key, std::uint64_t>& seps,
                            std::uint64_t leftmost, Key key) {
  auto it = seps.upper_bound(key);
  if (it == seps.begin()) return leftmost;
  return std::prev(it)->second;
}

class InternalInsertCrash : public ::testing::TestWithParam<int> {};

TEST_P(InternalInsertCrash, ChildSelectionIsBeforeOrAfterAtEveryCrash) {
  const int pos = GetParam();  // sorted position of the new separator
  alignas(64) NodeT node;
  node.Init(1);
  RealMem rm;
  std::map<Key, std::uint64_t> before;
  const std::uint64_t leftmost = 0x1000;
  RealOps::StoreLeftmost(rm, &node, leftmost);
  constexpr int kFill = 8;
  for (int i = 0; i < kFill; ++i) {
    const Key sep = static_cast<Key>((i + 1) * 100);
    const std::uint64_t child = 0x2000 + static_cast<std::uint64_t>(i) * 0x100;
    RealOps::InsertKey(rm, &node, sep, child);
    before[sep] = child;
  }
  const Key new_sep = static_cast<Key>(pos * 100 + 50);
  const std::uint64_t new_child = 0x9000;
  auto after = before;
  after[new_sep] = new_child;

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, new_sep, new_child);

  std::size_t images = 0, after_images = 0;
  const bool complete =
      sim.EnumerateCrashStates([&](const SimMem::Image& img) {
        ++images;
        ImageMem im{&img};
        // The image as a whole must be the before- or the after-state:
        // probing between every pair of separators disambiguates.
        bool consistent_before = true, consistent_after = true;
        for (Key probe = 0; probe <= (kFill + 1) * 100 + 60; probe += 10) {
          const std::uint64_t got = ImgOps::SearchInternal(im, &node, probe);
          consistent_before &= got == ExpectedChild(before, leftmost, probe);
          consistent_after &= got == ExpectedChild(after, leftmost, probe);
        }
        ASSERT_TRUE(consistent_before || consistent_after)
            << "torn internal node at image " << images;
        after_images += consistent_after && !consistent_before;
      });
  EXPECT_TRUE(complete);
  EXPECT_GE(after_images, 1u);
}

INSTANTIATE_TEST_SUITE_P(Positions, InternalInsertCrash,
                         ::testing::Range(0, 9));

TEST(InternalSplitCrash, VirtualSingleNodeRoutesEveryKey) {
  // FAIR split of a full internal node: at every sampled crash state a
  // reader (with move-right) must route probes to the same child the
  // pre-split node did.
  alignas(64) NodeT left, right;
  left.Init(1);
  right.Init(1);
  RealMem rm;
  std::map<Key, std::uint64_t> seps;
  const std::uint64_t leftmost = 0x1000;
  RealOps::StoreLeftmost(rm, &left, leftmost);
  for (int i = 0; i < kCap; ++i) {
    const Key sep = static_cast<Key>((i + 1) * 10);
    const std::uint64_t child = 0x2000 + static_cast<std::uint64_t>(i) * 0x40;
    RealOps::InsertKey(rm, &left, sep, child);
    seps[sep] = child;
  }
  SimMem sim;
  sim.Adopt(&left, sizeof(left));
  sim.Adopt(&right, sizeof(right));
  SimOps::SplitCopy(sim, &left, &right, kCap / 2, kCap);
  SimOps::CommitSplit(sim, &left, &right, kCap / 2);

  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  sim.SampleCrashStates(8000, 13, [&](const SimMem::Image& img) {
    ImageMem im{&img};
    for (Key probe = 5; probe <= static_cast<Key>(kCap + 1) * 10;
         probe += 5) {
      const NodeT* n = &left;
      // B-link routing: move right when the probe falls beyond the fence.
      for (int hop = 0; hop < 3; ++hop) {
        if (!ImgOps::ShouldMoveRight(im, n, probe, resolve)) break;
        n = resolve(ImgOps::LoadSibling(im, n));
      }
      const std::uint64_t got = ImgOps::SearchInternal(im, n, probe);
      ASSERT_EQ(got, ExpectedChild(seps, leftmost, probe))
          << "misrouted probe " << probe;
    }
  });
}

TEST(InternalDeleteCrash, SeparatorRemovalIsAtomicToReaders) {
  // The production tree never deletes separators, but FixNode and future
  // merge support rely on internal FAST deletes being failure-atomic too.
  alignas(64) NodeT node;
  node.Init(1);
  RealMem rm;
  std::map<Key, std::uint64_t> before;
  const std::uint64_t leftmost = 0x1000;
  RealOps::StoreLeftmost(rm, &node, leftmost);
  for (int i = 0; i < 6; ++i) {
    const Key sep = static_cast<Key>((i + 1) * 100);
    const std::uint64_t child = 0x2000 + static_cast<std::uint64_t>(i) * 0x100;
    RealOps::InsertKey(rm, &node, sep, child);
    before[sep] = child;
  }
  const Key victim = 300;
  auto after = before;
  after.erase(victim);

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::DeleteKey(sim, &node, victim));
  sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ImageMem im{&img};
    bool consistent_before = true, consistent_after = true;
    for (Key probe = 0; probe <= 700; probe += 25) {
      const std::uint64_t got = ImgOps::SearchInternal(im, &node, probe);
      consistent_before &= got == ExpectedChild(before, leftmost, probe);
      consistent_after &= got == ExpectedChild(after, leftmost, probe);
    }
    ASSERT_TRUE(consistent_before || consistent_after);
  });
}

}  // namespace
}  // namespace fastfair::core
