// Crash-state verification for the always-on maintenance commit points:
// run unlinking, dead-route redirect, and shard migration's copy+remove.
//
// These are the three places where maintenance mutates durable state while
// writers are live (DESIGN.md §4.3). Each has a documented commit order;
// a crash between the steps must leave a state the lazy-recovery story
// tolerates, and never one that loses or duplicates a key:
//
//  1. UnlinkDeadSibling: persistent dead mark BEFORE the chain swing. A
//     swung-but-not-dead image would let recovery route writes into a node
//     no parent reaches.
//  2. CleanDeadRoutes' redirect: the surviving child's fence is lowered
//     (and persisted) BEFORE the parent's route is redirected onto it. A
//     redirected-but-high-fence image would bounce every key in the
//     widened range off the new owner forever.
//  3. Migration copy: the target-shard insert is persisted (flush+fence at
//     the insert's commit) before the source-shard remove begins, so every
//     crash image holds the key, with its exact value, in at least one of
//     the two trees.

#include <gtest/gtest.h>

#include <vector>

#include "core/btree.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "crashsim/simmem.h"

namespace fastfair::core {
namespace {

using crashsim::ImageMem;
using crashsim::SimMem;
using NodeT = Node<512>;

using RealOps = NodeOps<NodeT, RealMem>;
using SimOps = NodeOps<NodeT, SimMem>;
using ImgOps = NodeOps<NodeT, ImageMem>;

const NodeT* Resolve(std::uint64_t p) {
  return reinterpret_cast<const NodeT*>(p);
}

TEST(UnlinkCrash, DeadMarkIsDurableBeforeChainSwing) {
  // Chain  left -> victim -> right ; victim drained empty, fences 0/100/200.
  alignas(64) NodeT left, victim, right;
  left.Init(0);
  victim.Init(0);
  right.Init(0);
  RealMem rm;
  RealOps::InsertKey(rm, &left, 10, 11);
  RealOps::InsertKey(rm, &right, 210, 211);
  RealOps::StoreFence(rm, &victim, 100);
  RealOps::StoreFence(rm, &right, 200);
  RealOps::StoreSibling(rm, &left,
                        reinterpret_cast<std::uint64_t>(&victim));
  RealOps::StoreSibling(rm, &victim,
                        reinterpret_cast<std::uint64_t>(&right));

  SimMem sim;
  sim.Adopt(&left, sizeof(left));
  sim.Adopt(&victim, sizeof(victim));
  sim.Adopt(&right, sizeof(right));
  detail::UnlinkDeadSibling<NodeT, SimOps>(sim, &left, &victim);

  const auto right_u = reinterpret_cast<std::uint64_t>(&right);
  std::size_t images = 0, swung = 0;
  const bool complete =
      sim.EnumerateCrashStates([&](const SimMem::Image& img) {
        ++images;
        ImageMem im{&img};
        const bool chain_swung = ImgOps::LoadSibling(im, &left) == right_u;
        if (chain_swung) {
          ++swung;
          ASSERT_TRUE(ImgOps::IsDead(im, &victim))
              << "image " << images
              << ": chain swing durable before the dead mark";
        }
        // Either way the chain must still reach every live key: the victim
        // is empty, so a reader keyed at 210 lands on `right` via at most
        // two fence-driven hops.
        const NodeT* n = &left;
        for (int hop = 0; hop < 3; ++hop) {
          const std::uint64_t su = ImgOps::MoveRightTarget(im, n, 210, Resolve);
          if (su == 0) break;
          n = Resolve(su);
        }
        ASSERT_EQ(ImgOps::SearchLeaf(im, n, 210), Value{211});
      });
  EXPECT_TRUE(complete);
  EXPECT_GE(swung, 1u);  // the final image must exist among the states
}

TEST(RedirectCrash, FenceLoweringIsDurableBeforeRouteRedirect) {
  // CleanDeadRoutes' slot-0 redirect on a split-created parent (lm == 0):
  // records [(100 -> A), (200 -> B)], A dead. Protocol (btree_impl.h):
  // lower B's fence to 100 and persist, then duplicate B over slot 0 and
  // persist. Replayed here step for step through SimMem — the assertion
  // pins the order: any image where the redirect is durable must also show
  // the lowered fence, or descents routed through the redirect would
  // bounce off B's fence with no recovery.
  alignas(64) NodeT parent, a, b;
  parent.Init(1);
  a.Init(0);
  b.Init(0);
  RealMem rm;
  RealOps::StoreFence(rm, &a, 100);
  RealOps::StoreFence(rm, &b, 200);
  RealOps::InsertKey(rm, &parent, 100, reinterpret_cast<std::uint64_t>(&a));
  RealOps::InsertKey(rm, &parent, 200, reinterpret_cast<std::uint64_t>(&b));
  RealOps::StoreFence(rm, &parent, 100);
  RealMem rm2;
  RealOps::MarkDead(rm2, &a);

  SimMem sim;
  sim.Adopt(&parent, sizeof(parent));
  sim.Adopt(&a, sizeof(a));
  sim.Adopt(&b, sizeof(b));
  // LowerFence(B, 100) on a leaf: fence store, header flush, fence.
  SimOps::StoreFence(sim, &b, 100);
  sim.Flush(&b.hdr);
  sim.Fence();
  // Redirect: duplicate B over the dead route (one atomic 8-byte store).
  SimOps::StorePtrAt(sim, &parent, 0,
                     reinterpret_cast<std::uint64_t>(&b));
  sim.Flush(&parent.records[0]);
  sim.Fence();

  const auto b_u = reinterpret_cast<std::uint64_t>(&b);
  std::size_t redirected = 0;
  const bool complete =
      sim.EnumerateCrashStates([&](const SimMem::Image& img) {
        ImageMem im{&img};
        if (ImgOps::LoadPtrAt(im, &parent, 0) == b_u) {
          ++redirected;
          ASSERT_LE(ImgOps::LoadFence(im, &b), Key{100})
              << "route redirected onto B before B's fence was lowered";
        }
      });
  EXPECT_TRUE(complete);
  EXPECT_GE(redirected, 1u);
}

TEST(MigrateCrash, KeyIsReadableInSomeShardAtEveryCrash) {
  // Rebalance phase 1 inserts the key into the target shard's tree (the
  // insert persists at its commit), phase 3 removes the source copy. Model
  // both leaves under one log: no crash point may lose the key or expose a
  // foreign value.
  alignas(64) NodeT src, dst;
  src.Init(0);
  dst.Init(0);
  RealMem rm;
  const Key k = 500;
  const Value v = 0xbeef0;
  RealOps::InsertKey(rm, &src, k, v);
  for (int i = 0; i < 4; ++i) {  // bystander keys in both leaves
    RealOps::InsertKey(rm, &src, 100 + static_cast<Key>(i) * 10, 0x5000 + i);
    RealOps::InsertKey(rm, &dst, 700 + static_cast<Key>(i) * 10, 0x7000 + i);
  }

  SimMem sim;
  sim.Adopt(&src, sizeof(src));
  sim.Adopt(&dst, sizeof(dst));
  SimOps::InsertKey(sim, &dst, k, v);   // phase 1: copy to target
  ASSERT_TRUE(SimOps::DeleteKey(sim, &src, k));  // phase 3: drop source copy

  std::size_t images = 0, dual = 0, target_only = 0;
  const bool complete =
      sim.EnumerateCrashStates([&](const SimMem::Image& img) {
        ++images;
        ImageMem im{&img};
        const Value in_src = ImgOps::SearchLeaf(im, &src, k);
        const Value in_dst = ImgOps::SearchLeaf(im, &dst, k);
        ASSERT_TRUE(in_src == kNoValue || in_src == v)
            << "torn value in source at image " << images;
        ASSERT_TRUE(in_dst == kNoValue || in_dst == v)
            << "torn value in target at image " << images;
        ASSERT_TRUE(in_src == v || in_dst == v)
            << "key lost at image " << images;
        dual += in_src == v && in_dst == v;
        target_only += in_src == kNoValue && in_dst == v;
      });
  EXPECT_TRUE(complete);
  EXPECT_GE(dual, 1u);         // the dual-routed window is a real state
  EXPECT_GE(target_only, 1u);  // and so is the completed migration
}

TEST(MigrateCrash, BurstMigrationSampledCrashStatesKeepEveryKey) {
  // A migrated run (several keys), sampled rather than enumerated: the
  // per-key property must hold for all keys at once.
  alignas(64) NodeT src, dst;
  src.Init(0);
  dst.Init(0);
  RealMem rm;
  constexpr int kKeys = 6;
  for (int i = 0; i < kKeys; ++i) {
    RealOps::InsertKey(rm, &src, 500 + static_cast<Key>(i) * 10,
                       0xb000 + static_cast<Value>(i));
  }

  SimMem sim;
  sim.Adopt(&src, sizeof(src));
  sim.Adopt(&dst, sizeof(dst));
  for (int i = 0; i < kKeys; ++i) {
    SimOps::InsertKey(sim, &dst, 500 + static_cast<Key>(i) * 10,
                      0xb000 + static_cast<Value>(i));
  }
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(SimOps::DeleteKey(sim, &src, 500 + static_cast<Key>(i) * 10));
  }

  sim.SampleCrashStates(8000, 13, [&](const SimMem::Image& img) {
    ImageMem im{&img};
    for (int i = 0; i < kKeys; ++i) {
      const Key k = 500 + static_cast<Key>(i) * 10;
      const Value v = 0xb000 + static_cast<Value>(i);
      const Value in_src = ImgOps::SearchLeaf(im, &src, k);
      const Value in_dst = ImgOps::SearchLeaf(im, &dst, k);
      ASSERT_TRUE(in_src == kNoValue || in_src == v) << "key " << k;
      ASSERT_TRUE(in_dst == kNoValue || in_dst == v) << "key " << k;
      ASSERT_TRUE(in_src == v || in_dst == v) << "key " << k << " lost";
    }
  });
}

}  // namespace
}  // namespace fastfair::core
