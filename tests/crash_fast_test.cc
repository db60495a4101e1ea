// Failure-atomicity verification for FAST (paper §3.1, §5.7).
//
// The same templated node operations the production tree runs are executed
// against crashsim::SimMem, which logs every 8-byte store / flush / fence.
// We then enumerate *every* reachable crash state under the adversarial
// eviction model and assert, for each materialized image:
//
//   1. a reader applying the duplicate-pointer rule sees exactly the
//      pre-operation key set or exactly the post-operation key set — never
//      a torn mixture, never a wrong value;
//   2. lazy recovery (FixNode) turns the image into a clean node whose
//      contents are one of those two sets.
//
// This is the paper's "endurable transient inconsistency" claim, checked
// exhaustively instead of by pulling power.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
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

/// Key set visible in `img` via the lock-free reader rules.
std::map<Key, Value> ReadImage(const SimMem::Image& img, const NodeT* node) {
  ImageMem m{&img};
  Record buf[kCap];
  const int n = ImgOps::CollectValid(m, node, buf);
  std::map<Key, Value> out;
  for (int i = 0; i < n; ++i) out[buf[i].key] = buf[i].ptr;
  return out;
}

/// Materializes the crash image of adopted node `src` into buffer `dst`.
void Materialize(const SimMem::Image& img, const NodeT* src, NodeT* dst) {
  auto* words = reinterpret_cast<std::uint64_t*>(dst);
  const auto* addrs = reinterpret_cast<const std::uint64_t*>(src);
  for (std::size_t i = 0; i < sizeof(NodeT) / 8; ++i) {
    words[i] = img.Read64(addrs + i);
  }
}

struct CrashCase {
  int fill;  // committed entries before the op
  int pos;   // operation position within the sorted order
};

void PrintTo(const CrashCase& c, std::ostream* os) {
  *os << "fill" << c.fill << "_pos" << c.pos;
}

std::vector<CrashCase> InsertCases() {
  std::vector<CrashCase> cases;
  for (const int fill : {0, 1, 2, 7, kCap - 1}) {
    for (int pos = 0; pos <= fill; ++pos) cases.push_back({fill, pos});
  }
  return cases;
}

class FastInsertCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(FastInsertCrash, EveryCrashStateIsBeforeOrAfter) {
  const auto [fill, pos] = GetParam();
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  // Committed state: keys 10,20,...; the new key lands at sorted index pos.
  std::map<Key, Value> before;
  for (int i = 0; i < fill; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &node, k, k + 1);
    before[k] = k + 1;
  }
  const Key newkey = static_cast<Key>(pos * 10 + 5);
  std::map<Key, Value> after = before;
  after[newkey] = newkey + 1;

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, newkey, newkey + 1);

  std::size_t images = 0, after_images = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    const auto seen = ReadImage(img, &node);
    const bool is_before = seen == before;
    const bool is_after = seen == after;
    ASSERT_TRUE(is_before || is_after)
        << "torn state with " << seen.size() << " keys at image " << images;
    after_images += is_after;

    // Lazy recovery: fix a materialized copy, re-verify, and require a
    // clean (nothing further to fix) node.
    alignas(64) NodeT copy;
    Materialize(img, &node, &copy);
    copy.hdr.lock.Reset();
    RealMem m2;
    auto resolve = [](std::uint64_t p) {
      return reinterpret_cast<const NodeT*>(p);
    };
    RealOps::FixNode(m2, &copy, resolve);
    EXPECT_FALSE(RealOps::FixNode(m2, &copy, resolve));  // converged
    Record buf[kCap];
    const int n = RealOps::CollectValid(m2, &copy, buf);
    std::map<Key, Value> fixed;
    for (int i = 0; i < n; ++i) fixed[buf[i].key] = buf[i].ptr;
    EXPECT_TRUE(fixed == before || fixed == after);
    for (int i = 1; i < n; ++i) ASSERT_LT(buf[i - 1].key, buf[i].key);
  });
  EXPECT_TRUE(complete) << "crash-state enumeration hit the cap";
  EXPECT_GE(images, 2u);
  EXPECT_GE(after_images, 1u);  // the fully-persisted state is reachable
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastInsertCrash,
                         ::testing::ValuesIn(InsertCases()));

std::vector<CrashCase> DeleteCases() {
  std::vector<CrashCase> cases;
  for (const int fill : {1, 2, 3, 8, kCap}) {
    for (int pos = 0; pos < fill; ++pos) cases.push_back({fill, pos});
  }
  return cases;
}

class FastDeleteCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(FastDeleteCrash, EveryCrashStateIsBeforeOrAfter) {
  const auto [fill, pos] = GetParam();
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  std::map<Key, Value> before;
  for (int i = 0; i < fill; ++i) {
    const Key k = static_cast<Key>((i + 1) * 10);
    RealOps::InsertKey(rm, &node, k, k + 1);
    before[k] = k + 1;
  }
  const Key victim = static_cast<Key>((pos + 1) * 10);
  std::map<Key, Value> after = before;
  after.erase(victim);

  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::DeleteKey(sim, &node, victim));

  std::size_t images = 0, after_images = 0;
  const bool complete = sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ++images;
    const auto seen = ReadImage(img, &node);
    const bool is_before = seen == before;
    const bool is_after = seen == after;
    ASSERT_TRUE(is_before || is_after)
        << "torn delete state at image " << images;
    after_images += is_after;

    // Point lookups through the direction-aware reader must agree.
    ImageMem im{&img};
    for (const auto& [k, v] : before) {
      const Value got = ImgOps::SearchLeaf(im, &node, k);
      if (k == victim) {
        EXPECT_TRUE(got == v || got == kNoValue);
        EXPECT_EQ(got == v, is_before);
      } else {
        EXPECT_EQ(got, v);
      }
    }
  });
  EXPECT_TRUE(complete);
  EXPECT_GE(after_images, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastDeleteCrash,
                         ::testing::ValuesIn(DeleteCases()));

// Upsert (UpdateKey) is a single 8-byte store: both values must be the only
// observable states.
TEST(FastUpdateCrash, ValueUpdateIsAtomic) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  for (Key k = 1; k <= 5; ++k) RealOps::InsertKey(rm, &node, k * 10, k * 100);
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  ASSERT_TRUE(SimOps::UpdateKey(sim, &node, 30, 777));
  sim.EnumerateCrashStates([&](const SimMem::Image& img) {
    ImageMem im{&img};
    const Value got = ImgOps::SearchLeaf(im, &node, 30);
    EXPECT_TRUE(got == 300u || got == 777u) << got;
    EXPECT_EQ(ImgOps::SearchLeaf(im, &node, 20), 200u);
  });
}

// The paper's worst case: a 512-byte node spans 8 cache lines; FAST must
// flush at most one line per record-line crossed plus the commit. Verify
// the flush count stays within the paper's bound (8 worst case for 512 B).
TEST(FastCost, FlushCountWithinPaperBound) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  for (int i = 0; i < kCap - 1; ++i) {
    RealOps::InsertKey(rm, &node, static_cast<Key>(2 * i + 10), 1000u + static_cast<Value>(i));
  }
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, 1, 999);  // worst case: shift everything
  std::size_t flushes = 0;
  for (const auto& e : sim.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
  }
  // 8 lines of node + header direction flip allowance.
  EXPECT_LE(flushes, sizeof(NodeT) / kCacheLineSize + 1);
  EXPECT_GE(flushes, 2u);
}

// Ascending (append-like) inserts touch only the tail line: one flush.
TEST(FastCost, AppendInsertIsOneFlush) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem rm;
  RealOps::InsertKey(rm, &node, 10, 11);
  RealOps::InsertKey(rm, &node, 20, 21);
  SimMem sim;
  sim.Adopt(&node, sizeof(node));
  SimOps::InsertKey(sim, &node, 30, 31);  // max key: no shift
  std::size_t flushes = 0;
  for (const auto& e : sim.events()) {
    flushes += e.kind == crashsim::Event::Kind::kFlush;
  }
  EXPECT_EQ(flushes, 1u);
}

}  // namespace
}  // namespace fastfair::core
