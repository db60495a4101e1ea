// Unit tests for the FAST/FAIR node-level algorithms on single nodes
// (production RealMem policy): insert/delete shifts at every position,
// terminator discipline, switch-counter direction control, split
// primitives, search routines, and FixNode repairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "core/node_search_simd.h"
#include "pm/persist.h"

namespace fastfair::core {
namespace {

using NodeT = Node<512>;
using Ops = NodeOps<NodeT, RealMem>;
constexpr int kCap = NodeT::kCapacity;

class NodeFixture : public ::testing::Test {
 protected:
  NodeFixture() { node_.Init(0); }

  RealMem m_;
  alignas(64) NodeT node_;

  void Fill(const std::vector<Key>& keys) {
    for (const Key k : keys) Ops::InsertKey(m_, &node_, k, k * 10 + 1);
  }

  std::vector<std::pair<Key, Value>> Contents() {
    Record buf[kCap];
    const int n = Ops::CollectValid(m_, &node_, buf);
    std::vector<std::pair<Key, Value>> out;
    for (int i = 0; i < n; ++i) out.emplace_back(buf[i].key, buf[i].ptr);
    return out;
  }
};

TEST_F(NodeFixture, EmptyNodeHasZeroCount) {
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 0);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 42), kNoValue);
}

TEST_F(NodeFixture, SingleInsertIsVisible) {
  Ops::InsertKey(m_, &node_, 42, 421);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 1);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 42), 421u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 41), kNoValue);
}

TEST_F(NodeFixture, AscendingInsertsStaySorted) {
  for (Key k = 1; k <= 10; ++k) Ops::InsertKey(m_, &node_, k, k + 100);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(c[i].first, i + 1);
}

TEST_F(NodeFixture, DescendingInsertsStaySorted) {
  for (Key k = 10; k >= 1; --k) Ops::InsertKey(m_, &node_, k, k + 100);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(c[i].first, i + 1);
}

TEST_F(NodeFixture, MiddleInsertShiftsTail) {
  Fill({10, 20, 40, 50});
  Ops::InsertKey(m_, &node_, 30, 301);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c[2].first, 30u);
  EXPECT_EQ(c[2].second, 301u);
  EXPECT_EQ(c[3].first, 40u);
}

// Parameterized: insert at every position of a near-full node.
class InsertPosition : public ::testing::TestWithParam<int> {};

TEST_P(InsertPosition, EveryPositionPreservesSortedContents) {
  using O = NodeOps<NodeT, RealMem>;
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  // Even keys 2..2*(kCap-1); the param picks an odd key = a distinct slot.
  std::vector<Key> keys;
  for (int i = 1; i < kCap; ++i) keys.push_back(static_cast<Key>(2 * i));
  for (const Key k : keys) O::InsertKey(m, &node, k, k + 1);
  const Key newkey = static_cast<Key>(2 * GetParam() + 1);
  O::InsertKey(m, &node, newkey, newkey + 1);

  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, kCap);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  EXPECT_EQ(O::SearchLeaf(m, &node, newkey), newkey + 1);
  for (const Key k : keys) {
    EXPECT_EQ(O::SearchLeaf(m, &node, k), k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSlots, InsertPosition,
                         ::testing::Range(0, kCap));

// Parameterized: delete at every position.
class DeletePosition : public ::testing::TestWithParam<int> {};

TEST_P(DeletePosition, EveryPositionCompactsCorrectly) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &node, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 101));
  }
  const Key victim = static_cast<Key>(GetParam() + 1);
  EXPECT_TRUE(O::DeleteKey(m, &node, victim));
  // Deleting the first record leaves a ghost in its slot; any other
  // delete shifts the tail left over it.
  EXPECT_EQ(O::CountRaw(m, &node), GetParam() == 0 ? kCap : kCap - 1);
  EXPECT_EQ(O::SearchLeaf(m, &node, victim), kNoValue);
  for (int i = 0; i < kCap; ++i) {
    const Key k = static_cast<Key>(i + 1);
    if (k == victim) continue;
    EXPECT_EQ(O::SearchLeaf(m, &node, k), static_cast<Value>(i + 101));
  }
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, kCap - 1);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
}

INSTANTIATE_TEST_SUITE_P(AllSlots, DeletePosition,
                         ::testing::Range(0, kCap));

TEST_F(NodeFixture, DeleteAbsentReturnsFalse) {
  Fill({10, 20, 30});
  EXPECT_FALSE(Ops::DeleteKey(m_, &node_, 25));
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 3);
}

TEST_F(NodeFixture, DeleteLastEntryEmptiesNode) {
  Fill({10});
  EXPECT_TRUE(Ops::DeleteKey(m_, &node_, 10));
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 0);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 10), kNoValue);
}

TEST_F(NodeFixture, DeleteFlushesEachRecordLineOnce) {
  // The commit store shares its line with the shift's first stores, and
  // the shift flushes that line before it leaves it, so a slot-1 delete
  // (the first that shifts: slot 0 turns into a ghost instead) flushes
  // (and fences) each line of records[1..cnt) exactly once: 3 lines for a
  // 12-record leaf, 7 for a 26-record one.
  for (const int cnt : {12, 26}) {
    node_.Init(0);
    for (int i = 1; i <= cnt + 1; ++i) {
      Ops::InsertKey(m_, &node_, static_cast<Key>(i),
                     static_cast<Value>(10 * i + 1));
    }
    // Deleting the extra tail key flips the node to the delete direction,
    // keeping the header flush out of the measured delete.
    ASSERT_TRUE(Ops::DeleteKey(m_, &node_, static_cast<Key>(cnt + 1)));
    const auto line = [](const void* p) {
      return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
    };
    const std::uint64_t lines =
        line(&node_.records[cnt - 1]) - line(&node_.records[1]) + 1;
    const auto before = pm::Stats();
    ASSERT_TRUE(Ops::DeleteKey(m_, &node_, 2));
    const auto d = pm::Stats() - before;
    EXPECT_EQ(d.flush_lines, lines) << cnt << " records";
    EXPECT_EQ(d.fences, lines) << cnt << " records";
    EXPECT_EQ(Ops::CountRaw(m_, &node_), cnt - 1);
  }
}

TEST_F(NodeFixture, ReinsertAfterDeleteAtSlotZero) {
  Fill({10, 20, 30});
  EXPECT_TRUE(Ops::DeleteKey(m_, &node_, 10));
  Ops::InsertKey(m_, &node_, 5, 51);
  const auto c = Contents();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].first, 5u);
  EXPECT_EQ(c[1].first, 20u);
}

TEST_F(NodeFixture, UpdateKeyOverwritesInPlace) {
  Fill({10, 20, 30});
  EXPECT_TRUE(Ops::UpdateKey(m_, &node_, 20, 999));
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 20), 999u);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 3);
  EXPECT_FALSE(Ops::UpdateKey(m_, &node_, 25, 7));
}

TEST_F(NodeFixture, SwitchCounterFlipsOnDirectionChange) {
  Fill({10, 20, 30});
  const auto sc0 = Ops::LoadSwitch(m_, &node_);
  EXPECT_EQ(sc0 % 2, 0u);  // insert phase
  Ops::DeleteKey(m_, &node_, 20);  // a shifting delete
  const auto sc1 = Ops::LoadSwitch(m_, &node_);
  EXPECT_EQ(sc1 % 2, 1u);  // delete phase
  Ops::DeleteKey(m_, &node_, 30);
  EXPECT_EQ(Ops::LoadSwitch(m_, &node_), sc1);  // same direction: no bump
  Ops::InsertKey(m_, &node_, 15, 151);
  EXPECT_EQ(Ops::LoadSwitch(m_, &node_) % 2, 0u);
}

TEST_F(NodeFixture, BackwardScanFindsKeysInDeletePhase) {
  Fill({10, 20, 30, 40});
  Ops::DeleteKey(m_, &node_, 20);  // switch now odd: backward scans
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 10), 101u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 30), 301u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 40), 401u);
  EXPECT_EQ(Ops::SearchLeaf(m_, &node_, 20), kNoValue);
}

TEST_F(NodeFixture, BinarySearchMatchesLinear) {
  std::vector<Key> keys;
  for (int i = 0; i < kCap; ++i) keys.push_back(static_cast<Key>(3 * i + 2));
  Fill(keys);
  for (Key k = 0; k < static_cast<Key>(3 * kCap + 3); ++k) {
    EXPECT_EQ(Ops::BinarySearchLeaf(m_, &node_, k),
              Ops::SearchLeaf(m_, &node_, k))
        << "key " << k;
  }
}

// --- internal-node semantics ---------------------------------------------------

class InternalFixture : public ::testing::Test {
 protected:
  InternalFixture() {
    node_.Init(1);
    RealMem m;
    Ops::StoreLeftmost(m, &node_, 0x1000);
    Ops::InsertKey(m, &node_, 100, 0x2000);
    Ops::InsertKey(m, &node_, 200, 0x3000);
    Ops::InsertKey(m, &node_, 300, 0x4000);
  }
  RealMem m_;
  alignas(64) NodeT node_;
};

TEST_F(InternalFixture, ChildSelection) {
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 50), 0x1000u);   // < first key
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 100), 0x2000u);  // == separator
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 150), 0x2000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 250), 0x3000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 999), 0x4000u);  // past last
}

TEST_F(InternalFixture, BinaryInternalMatchesLinear) {
  for (Key k = 0; k < 400; k += 7) {
    EXPECT_EQ(Ops::BinarySearchInternal(m_, &node_, k),
              Ops::SearchInternal(m_, &node_, k))
        << "key " << k;
  }
}

TEST_F(InternalFixture, SlotZeroInsertDuplicatesLeftmost) {
  Ops::InsertKey(m_, &node_, 50, 0x1500);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 40), 0x1000u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 60), 0x1500u);
  EXPECT_EQ(Ops::SearchInternal(m_, &node_, 150), 0x2000u);
  EXPECT_EQ(Ops::CountRaw(m_, &node_), 4);
}

// --- FAIR split primitives ------------------------------------------------------

TEST(SplitOps, SplitCopyAndCommitPartitionContents) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  O::CommitSplit(m, &left, &right, median);

  EXPECT_EQ(O::LoadSibling(m, &left), reinterpret_cast<std::uint64_t>(&right));
  EXPECT_EQ(O::CountRaw(m, &left), median);
  EXPECT_EQ(O::CountRaw(m, &right), cnt - median);
  // Separator = right's first key = old records[median].
  EXPECT_EQ(O::LoadKeyAt(m, &right, 0), static_cast<Key>(median + 1));
  // Every key findable in exactly the right half.
  for (int i = 0; i < cnt; ++i) {
    const Key k = static_cast<Key>(i + 1);
    const Value v = static_cast<Value>(i + 501);
    if (i < median) {
      EXPECT_EQ(O::SearchLeaf(m, &left, k), v);
      EXPECT_EQ(O::SearchLeaf(m, &right, k), kNoValue);
    } else {
      EXPECT_EQ(O::SearchLeaf(m, &right, k), v);
      EXPECT_EQ(O::SearchLeaf(m, &left, k), kNoValue);
    }
  }
}

TEST(SplitOps, ShouldMoveRightUsesSiblingFence) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  O::CommitSplit(m, &left, &right, median);
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  const Key fence = static_cast<Key>(median + 1);
  EXPECT_FALSE(O::ShouldMoveRight(m, &left, fence - 1, resolve));
  EXPECT_TRUE(O::ShouldMoveRight(m, &left, fence, resolve));
  EXPECT_TRUE(O::ShouldMoveRight(m, &left, fence + 100, resolve));
  EXPECT_FALSE(O::ShouldMoveRight(m, &right, fence + 100, resolve));  // no sib
}

// --- FixNode repairs --------------------------------------------------------------

TEST(FixNode, RemovesDuplicatePointerGarbage) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 6; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  // Forge a crashed-insert state: duplicate ptr pair at slots 2/3.
  // records: 10,20,30,40,50,60 -> set records[2] = (garbage, ptr_of_slot1).
  node.records[2].key = 999;  // garbage key
  node.records[2].ptr = node.records[1].ptr;
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 5);  // key 30 was the casualty of the forged crash
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  EXPECT_FALSE(O::FixNode(m, &node, resolve));  // idempotent
}

TEST(FixNode, ClosesSlotZeroHole) {
  // Only a leaf whose slot 0 has no left neighbour (leftmost 0, the format
  // before leaves carried their own address) can hold the hole.
  alignas(64) NodeT node;
  node.Init(0);
  node.hdr.leftmost = 0;
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 4; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  node.records[0].ptr = 0;  // forge the transient hole
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 3);
  EXPECT_EQ(buf[0].key, 20u);
}

TEST(FixNode, RemovesTornDeleteDuplicateKey) {
  alignas(64) NodeT node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (Key k = 1; k <= 5; ++k) O::InsertKey(m, &node, k * 10, k * 10 + 1);
  // Forge a torn delete shift: slot 1 got slot 2's key but kept its ptr.
  node.records[1].key = node.records[2].key;
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &node, resolve));
  Record buf[kCap];
  const int n = O::CollectValid(m, &node, buf);
  ASSERT_EQ(n, 4);
  for (int i = 1; i < n; ++i) EXPECT_LT(buf[i - 1].key, buf[i].key);
  // The rightmost copy's value (31 = key 30's true value) is authoritative.
  EXPECT_EQ(O::SearchLeaf(m, &node, 30), 31u);
}

TEST(FixNode, CompletesUntruncatedSplit) {
  alignas(64) NodeT left, right;
  left.Init(0);
  right.Init(0);
  RealMem m;
  using O = NodeOps<NodeT, RealMem>;
  for (int i = 0; i < kCap; ++i) {
    O::InsertKey(m, &left, static_cast<Key>(i + 1),
                 static_cast<Value>(i + 501));
  }
  const int cnt = O::CountRaw(m, &left);
  const int median = cnt / 2;
  O::SplitCopy(m, &left, &right, median, cnt);
  // Crash emulation: sibling linked but truncation store lost.
  O::StoreSibling(m, &left, reinterpret_cast<std::uint64_t>(&right));
  auto resolve = [](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  EXPECT_TRUE(O::FixNode(m, &left, resolve));
  EXPECT_EQ(O::CountRaw(m, &left), median);
  EXPECT_EQ(O::SearchLeaf(m, &left, static_cast<Key>(median + 1)), kNoValue);
}

// --- lock-free collect vs. a delete in flight --------------------------------

// Memory policy for one reader call: at the reader's `fire_at`-th load it
// runs a RealMem `write` on the same node (a FAST delete's left shift, a
// front delete, ...), so the write lands between two reader loads.
// Sweeping `fire_at` over every load of the call puts it at every point of
// the pass.
struct WriteAtLoad {
  NodeT* node = nullptr;
  std::function<void(NodeT*)> write;
  int fire_at = 0;
  int loads = 0;

  std::uint64_t Load64(const void* addr) {
    if (++loads == fire_at) write(node);
    return RealMem::Load64(addr);
  }
};

// The race sweeps below fire 1-3 adjacent deletes (keys 10*(pos+1) on)
// at every position of a 20-record node in the delete phase.
constexpr int kSweepRecords = 20;

Value SweepValue(Key k) { return k * 16 + 3; }

void BuildDeletePhaseNode(NodeT* node, bool internal) {
  RealMem m;
  node->Init(internal ? 1 : 0);
  if (internal) Ops::StoreLeftmost(m, node, 0xfff0);
  for (int i = 1; i <= kSweepRecords; ++i) {
    Ops::InsertKey(m, node, Key(i) * 10, SweepValue(Key(i) * 10));
  }
  Ops::EnsureDeleteDirection(m, node);
}

WriteAtLoad ArmDeletes(NodeT* node, int fire_at, int pos, int burst) {
  WriteAtLoad mem;
  mem.node = node;
  mem.fire_at = fire_at;
  mem.write = [pos, burst](NodeT* n) {
    RealMem m;
    for (int i = pos; i < pos + burst; ++i) {
      Ops::DeleteKey(m, n, Key(i + 1) * 10);
    }
  };
  return mem;
}

using Probe = NodeOps<NodeT, WriteAtLoad>;

// Fires the deletes at every load of one CollectValid call. Every result
// must be sorted, carry each key's own value, and hold every key that was
// never deleted. Returns the number of interleavings that lost a live key
// (sortedness and values are asserted directly).
int SweepCollectAgainstDeletes(bool internal) {
  alignas(64) NodeT node;
  int lost = 0;
  for (int burst = 1; burst <= 3; ++burst) {
    for (int pos = 0; pos + burst <= kSweepRecords; ++pos) {
      WriteAtLoad quiet;
      BuildDeletePhaseNode(&node, internal);
      Record buf[kCap];
      Probe::CollectValid(quiet, &node, buf);
      for (int k = 1; k <= quiet.loads; ++k) {
        BuildDeletePhaseNode(&node, internal);
        WriteAtLoad mem = ArmDeletes(&node, k, pos, burst);
        const int n = Probe::CollectValid(mem, &node, buf);
        std::vector<Key> got;
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(buf[i].ptr, SweepValue(buf[i].key))
              << "burst " << burst << " pos " << pos << " load " << k;
          if (i > 0) {
            EXPECT_LT(buf[i - 1].key, buf[i].key)
                << "burst " << burst << " pos " << pos << " load " << k;
          }
          got.push_back(buf[i].key);
        }
        for (int i = 1; i <= kSweepRecords; ++i) {
          const Key key = Key(i) * 10;
          const bool deleted = i - 1 >= pos && i - 1 < pos + burst;
          if (!deleted && !std::binary_search(got.begin(), got.end(), key)) {
            ++lost;
            break;
          }
        }
      }
    }
  }
  return lost;
}

TEST(CollectValidRace, LeafDeleteShiftNeverHidesALiveKey) {
  EXPECT_EQ(SweepCollectAgainstDeletes(false), 0)
      << "interleavings that lost a never-deleted key";
}

TEST(CollectValidRace, InternalDeleteShiftNeverHidesALiveRoute) {
  EXPECT_EQ(SweepCollectAgainstDeletes(true), 0)
      << "interleavings that lost a never-deleted route";
}

TEST(CollectValidRace, SearchLeafNeverMissesALiveKeyDuringDeletes) {
  // SearchLeaf as the reader: every never-deleted key of a leaf is probed
  // with the deletes fired at every load of its one SearchLeaf call, and
  // must come back with its own value.
  alignas(64) NodeT node;
  int interleavings = 0;
  int lost = 0;
  for (int burst = 1; burst <= 3; ++burst) {
    for (int pos = 0; pos + burst <= kSweepRecords; ++pos) {
      for (int i = 1; i <= kSweepRecords; ++i) {
        if (i - 1 >= pos && i - 1 < pos + burst) continue;  // a victim
        const Key key = Key(i) * 10;
        WriteAtLoad quiet;
        BuildDeletePhaseNode(&node, /*internal=*/false);
        Probe::SearchLeaf(quiet, &node, key);
        for (int k = 1; k <= quiet.loads; ++k) {
          BuildDeletePhaseNode(&node, /*internal=*/false);
          WriteAtLoad mem = ArmDeletes(&node, k, pos, burst);
          ++interleavings;
          if (Probe::SearchLeaf(mem, &node, key) != SweepValue(key)) ++lost;
        }
      }
    }
  }
  EXPECT_GT(interleavings, 0);
  EXPECT_EQ(lost, 0) << "of " << interleavings
                     << " interleavings lost a never-deleted key";
}

// --- lock-free readers vs. the ghost-prefix writes ------------------------------

// One ghost-prefix write raced against the readers: `build` makes the
// node it starts from (keys 10, 20, ... with SweepValue values), `write`
// is the op fired at a reader load. `live` keys must be found, `maybe`
// keys (the op's own key) found with their value or not at all, and
// `ghosts` (deleted keys still sitting in ghost slots) never.
struct GhostRace {
  std::string what;
  std::function<void(NodeT*)> build;
  std::function<void(NodeT*)> write;
  std::set<Key> live, maybe, ghosts;
};

// A leaf holding keys 10..10*records whose first `ghosts` records left by
// front deletes, optionally switched to the delete phase.
void BuildGhostLeaf(NodeT* node, int records, int ghosts, bool delete_phase) {
  RealMem m;
  node->Init(0);
  for (int i = 1; i <= records; ++i) {
    Ops::InsertKey(m, node, Key(i) * 10, SweepValue(Key(i) * 10));
  }
  for (int i = 1; i <= ghosts; ++i) Ops::DeleteKey(m, node, Key(i) * 10);
  if (delete_phase) Ops::EnsureDeleteDirection(m, node);
}

std::vector<GhostRace> GhostRaces(bool delete_phase) {
  std::vector<GhostRace> races;
  const auto keys = [](int from, int to) {  // 10*from .. 10*to
    std::set<Key> out;
    for (int i = from; i <= to; ++i) out.insert(Key(i) * 10);
    return out;
  };
  const auto build = [delete_phase](int records, int ghosts) {
    return [=](NodeT* n) { BuildGhostLeaf(n, records, ghosts, delete_phase); };
  };
  const auto insert = [](Key k) {
    return [k](NodeT* n) {
      RealMem m;
      Ops::InsertKey(m, n, k, SweepValue(k));
    };
  };
  // A front delete at every ghost-prefix length, the last one emptying.
  for (int g = 0; g < kSweepRecords; ++g) {
    const Key victim = Key(g + 1) * 10;
    races.push_back({"front delete behind " + std::to_string(g) + " ghosts",
                     build(kSweepRecords, g),
                     [victim](NodeT* n) {
                       RealMem m;
                       Ops::DeleteKey(m, n, victim);
                     },
                     keys(g + 2, kSweepRecords), {victim}, keys(1, g)});
  }
  // A key below every live key written into the last ghost: a new key,
  // and the last ghost's own deleted key put back.
  for (const int g : {1, 2, 3, kSweepRecords / 2, kSweepRecords - 1}) {
    for (const Key k : {Key(g) * 10 + 5, Key(g) * 10}) {
      std::set<Key> ghosts = keys(1, g);
      ghosts.erase(k);
      races.push_back({"put " + std::to_string(k) + " into ghost " +
                           std::to_string(g - 1),
                       build(kSweepRecords, g), insert(k),
                       keys(g + 1, kSweepRecords), {k}, ghosts});
    }
  }
  // A raw-full leaf compacting its last ghost away before an insert.
  for (int g = 1; g <= 3; ++g) {
    const Key k = Key(g + 2) * 10 + 5;
    races.push_back({"compact " + std::to_string(g) + " ghosts, put " +
                         std::to_string(k),
                     build(kCap, g), insert(k), keys(g + 1, kCap), {k},
                     keys(1, g)});
  }
  return races;
}

// Checks one reader result for `key` against the race's key classes.
void ExpectGhostRead(const GhostRace& r, Key key, Value got,
                     const std::string& where) {
  if (r.live.count(key) != 0) {
    EXPECT_EQ(got, SweepValue(key)) << where << ": live key " << key;
  } else if (r.maybe.count(key) != 0) {
    EXPECT_TRUE(got == kNoValue || got == SweepValue(key))
        << where << ": key " << key << " read " << got;
  } else {
    EXPECT_EQ(got, kNoValue) << where << ": ghost key " << key;
  }
}

// Runs `read(mem, node, key)` with the race's write fired at every load.
template <class Read>
void SweepGhostSearch(const GhostRace& r, const std::string& reader,
                      Read read) {
  alignas(64) NodeT node;
  // The op's key, the live keys next to the ghosts and the last one, and
  // the ghosts at both ends of the prefix.
  std::set<Key> probes = r.maybe;
  for (const std::set<Key>* c : {&r.live, &r.ghosts}) {
    if (c->empty()) continue;
    probes.insert(*c->begin());
    probes.insert(*c->rbegin());
  }
  if (r.live.size() > 1) probes.insert(*std::next(r.live.begin()));
  for (const Key key : probes) {
    WriteAtLoad quiet;
    r.build(&node);
    read(quiet, &node, key);
    for (int k = 1; k <= quiet.loads + 1; ++k) {
      r.build(&node);
      WriteAtLoad mem{&node, r.write, k, 0};
      ExpectGhostRead(r, key, read(mem, &node, key),
                      r.what + ", " + reader + " load " + std::to_string(k));
    }
  }
}

void SweepGhostRaces(bool delete_phase) {
  for (const GhostRace& r : GhostRaces(delete_phase)) {
    SCOPED_TRACE(r.what + (delete_phase ? " (delete phase)" : ""));
    SweepGhostSearch(r, "SearchLeaf",
                     [](WriteAtLoad& mem, const NodeT* n, Key key) {
                       return Probe::SearchLeaf(mem, n, key);
                     });
#if defined(FASTFAIR_SIMD_X86)
    using Simd = SimdNodeOps<NodeT, WriteAtLoad>;
    if (simd::IsaSupported(simd::Isa::kAvx2)) {
      SweepGhostSearch(r, "avx2 probe",
                       [](WriteAtLoad& mem, const NodeT* n, Key key) {
                         return Simd::SearchLeaf<simd::Avx2Kernels>(mem, n,
                                                                    key);
                       });
    }
    if (simd::IsaSupported(simd::Isa::kAvx512)) {
      SweepGhostSearch(r, "avx512 probe",
                       [](WriteAtLoad& mem, const NodeT* n, Key key) {
                         return Simd::SearchLeaf<simd::Avx512Kernels>(mem, n,
                                                                      key);
                       });
    }
#endif
    // CollectValid: sorted, own values, every live key, no ghost.
    alignas(64) NodeT node;
    WriteAtLoad quiet;
    r.build(&node);
    Record buf[kCap];
    Probe::CollectValid(quiet, &node, buf);
    for (int k = 1; k <= quiet.loads + 1; ++k) {
      r.build(&node);
      WriteAtLoad mem{&node, r.write, k, 0};
      const int n = Probe::CollectValid(mem, &node, buf);
      std::set<Key> got;
      for (int i = 0; i < n; ++i) {
        if (i > 0) {
          EXPECT_LT(buf[i - 1].key, buf[i].key) << "load " << k;
        }
        ExpectGhostRead(r, buf[i].key, buf[i].ptr,
                        "CollectValid load " + std::to_string(k));
        got.insert(buf[i].key);
      }
      for (const Key key : r.live) {
        EXPECT_EQ(got.count(key), 1u) << "CollectValid load " << k
                                      << " lost live key " << key;
      }
    }
  }
}

TEST(GhostRace, ReadersInsertPhase) { SweepGhostRaces(false); }
TEST(GhostRace, ReadersDeletePhase) { SweepGhostRaces(true); }

// --- node size sweep (the Fig 3 node geometries) ---------------------------------

template <typename T>
class NodeGeometry : public ::testing::Test {};

using Geometries = ::testing::Types<Node<256>, Node<512>, Node<1024>,
                                    Node<2048>, Node<4096>>;
TYPED_TEST_SUITE(NodeGeometry, Geometries);

TYPED_TEST(NodeGeometry, CapacityAndLayout) {
  EXPECT_GE(TypeParam::kCapacity, 3);
  EXPECT_LE(sizeof(TypeParam), static_cast<std::size_t>(
                                   TypeParam::kCapacity + 1) *
                                       sizeof(Record) +
                                   sizeof(NodeHeader));
  EXPECT_EQ(sizeof(NodeHeader) % kCacheLineSize, 0u);
}

TYPED_TEST(NodeGeometry, FullFillAndDrain) {
  alignas(64) TypeParam node;
  node.Init(0);
  RealMem m;
  using O = NodeOps<TypeParam, RealMem>;
  const int cap = TypeParam::kCapacity;
  for (int i = 0; i < cap; ++i) {
    O::InsertKey(m, &node, static_cast<Key>(2 * i + 2),
                 static_cast<Value>(i + 1001));
  }
  EXPECT_EQ(O::CountRaw(m, &node), cap);
  for (int i = 0; i < cap; ++i) {
    EXPECT_EQ(O::SearchLeaf(m, &node, static_cast<Key>(2 * i + 2)),
              static_cast<Value>(i + 1001));
  }
  for (int i = 0; i < cap; ++i) {
    EXPECT_TRUE(O::DeleteKey(m, &node, static_cast<Key>(2 * i + 2)));
  }
  EXPECT_EQ(O::CountRaw(m, &node), 0);
}

}  // namespace
}  // namespace fastfair::core
