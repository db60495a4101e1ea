// SIMD search equivalence suite (DESIGN.md §9).
//
// Three layers, each asserting zero divergence from the scalar reference:
//  1. Kernel level: every compiled+supported ISA's ByteEqMask kernel
//     against ScalarKernels on randomized inputs, and its RecordCmpZero
//     masks (both compares) against a scalar re-derivation.
//  2. Node level: SimdNodeOps entry points against NodeOps on randomized
//     node states *including the forged transient states the lock-free
//     protocol must tolerate* — slot-0 holes, duplicate ptrs (torn
//     inserts), duplicate keys (torn delete shifts) — and on leaves with
//     ghost prefixes holding stale keys, under both switch parities, on
//     two node geometries. The probe sweep covers present and
//     absent keys, so it drives both direct hits and the direct->scalar
//     fallback.
//  3. Concurrent: a writer churns keys (flipping the switch word between
//     insert and delete phases) while SIMD readers on every supported ISA
//     search a leaf for anchor keys that are always present and keys that
//     are never inserted, or route an internal node's anchor separators.
//
// Plus dispatch plumbing: ParseIsa/ForceIsa clamping and the coherent-raw-
// loads gate that pins crash-sim memory policies to the scalar reference.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "core/mem_policy.h"
#include "core/node.h"
#include "core/node_ops.h"
#include "core/node_search_simd.h"
#include "crashsim/simmem.h"

namespace fastfair {
namespace {

using core::Node;
using core::NodeOps;
using core::SimdNodeOps;

std::vector<simd::Isa> SupportedVectorIsas() {
  std::vector<simd::Isa> out;
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

// --- layer 1: kernels vs ScalarKernels ---------------------------------------

template <class K>
void KernelEquivalenceRound(std::mt19937_64* rng) {
  using S = simd::ScalarKernels;
  std::uniform_int_distribution<std::uint64_t> dv(0, 12);

  // ByteEqMask: 64-byte window, n clamps the reported bits.
  alignas(64) std::uint8_t bytes[64];
  std::uniform_int_distribution<int> db(0, 3);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(db(*rng));
  for (const std::size_t n : {std::size_t{16}, std::size_t{48},
                              std::size_t{63}, std::size_t{64}}) {
    for (int v = 0; v <= 3; ++v) {
      EXPECT_EQ(K::ByteEqMask(bytes, n, static_cast<std::uint8_t>(v)),
                S::ByteEqMask(bytes, n, static_cast<std::uint8_t>(v)))
          << "n=" << n << " v=" << v;
    }
  }

  // RecordCmpZero<false>/<true>: the stride-2 mask contract — record l's bit
  // sits at position kMaskStride * l over an interleaved {key, ptr} block of
  // kRecWidth records, odd positions stay clear. Checked against a scalar
  // re-derivation, with sign-straddling keys, zero ptrs, and probe values
  // on both sides of the sign bit.
  static_assert(simd::kMaskStride == 2);
  constexpr std::size_t kW = K::kRecWidth;
  alignas(64) std::uint64_t blk[2 * kW];
  const std::uint64_t hot[] = {0,
                               1,
                               5,
                               0x7FFFFFFFFFFFFFFFull,
                               0x8000000000000000ull,
                               ~std::uint64_t{0}};
  std::uniform_int_distribution<std::size_t> dhot(0, 5);
  std::uniform_int_distribution<int> dzero(0, 3);
  for (int t = 0; t < 64; ++t) {
    for (std::size_t l = 0; l < kW; ++l) {
      blk[2 * l] = (t % 2 != 0) ? hot[dhot(*rng)] : dv(*rng);
      blk[2 * l + 1] = dzero(*rng) == 0 ? 0 : dv(*rng) + 1;
    }
    const std::uint64_t probe = (t % 4 < 2) ? hot[dhot(*rng)] : dv(*rng);
    unsigned ref_eq = 0, ref_gt = 0, ref_z = 0;
    for (std::size_t l = 0; l < kW; ++l) {
      if (blk[2 * l] == probe) ref_eq |= 1u << (2 * l);
      if (blk[2 * l] > probe) ref_gt |= 1u << (2 * l);
      if (blk[2 * l + 1] == 0) ref_z |= 1u << (2 * l);
    }
    unsigned eq = 0, gt = 0, z0 = 0, z1 = 0;
    K::template RecordCmpZero<false>(blk, probe, &eq, &z0);
    K::template RecordCmpZero<true>(blk, probe, &gt, &z1);
    EXPECT_EQ(eq, ref_eq) << "probe=" << probe << " t=" << t;
    EXPECT_EQ(gt, ref_gt) << "probe=" << probe << " t=" << t;
    EXPECT_EQ(z0, ref_z) << "t=" << t;
    EXPECT_EQ(z1, ref_z) << "t=" << t;
  }
}

TEST(SimdKernels, EveryIsaMatchesScalarReference) {
  // Scalar is the only path on CPUs without AVX2 (and off x86-64): there
  // is nothing to compare, and saying so beats passing vacuously.
  if (SupportedVectorIsas().empty()) GTEST_SKIP() << "no vector ISA";
  std::size_t vector_paths = 0;
  for (int seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
#if defined(FASTFAIR_SIMD_X86)
    if (simd::IsaSupported(simd::Isa::kAvx2)) {
      KernelEquivalenceRound<simd::Avx2Kernels>(&rng);
      ++vector_paths;
    }
    if (simd::IsaSupported(simd::Isa::kAvx512)) {
      KernelEquivalenceRound<simd::Avx512Kernels>(&rng);
      ++vector_paths;
    }
#endif
  }
  // Every supported vector ISA ran every seed.
  EXPECT_EQ(vector_paths, 8 * SupportedVectorIsas().size());
}

// --- dispatch plumbing -------------------------------------------------------

TEST(SimdDispatch, ParseIsaSpellings) {
  simd::Isa isa;
  EXPECT_TRUE(simd::ParseIsa("scalar", &isa));
  EXPECT_EQ(isa, simd::Isa::kScalar);
  EXPECT_TRUE(simd::ParseIsa("avx2", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx2);
  EXPECT_TRUE(simd::ParseIsa("avx512", &isa));
  EXPECT_EQ(isa, simd::Isa::kAvx512);
  EXPECT_FALSE(simd::ParseIsa("sse2", &isa));
  EXPECT_FALSE(simd::ParseIsa("neon", &isa));
  EXPECT_TRUE(simd::ParseIsa("", &isa));
  EXPECT_EQ(isa, simd::BestSupportedIsa());
  EXPECT_TRUE(simd::ParseIsa("auto", &isa));
  EXPECT_EQ(isa, simd::BestSupportedIsa());
  EXPECT_FALSE(simd::ParseIsa("avx1024", &isa));
}

TEST(SimdDispatch, ForceIsaClampsUnsupported) {
  const simd::Isa prev = simd::ActiveIsa();
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const simd::Isa got = simd::ForceIsa(isa);
    if (simd::IsaSupported(isa)) {
      EXPECT_EQ(got, isa) << simd::IsaName(isa);
    } else {
      EXPECT_EQ(got, simd::Isa::kScalar) << simd::IsaName(isa);
    }
    EXPECT_EQ(simd::ActiveIsa(), got);
  }
  // A value outside the enumeration (no tier of that number) clamps too.
  EXPECT_EQ(simd::ForceIsa(static_cast<simd::Isa>(0x7F)), simd::Isa::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::ForceIsa(prev);
}

TEST(SimdDispatch, CrashSimPolicyResolvesToScalarReference) {
  // The coherent-raw-loads gate: shadow-memory policies must never read
  // the record area with vector loads, whatever ISA is active.
  using NodeT = Node<512>;
  using SimOps = NodeOps<NodeT, crashsim::SimMem>;
  using SimSimd = SimdNodeOps<NodeT, crashsim::SimMem>;
  for (simd::Isa isa : SupportedVectorIsas()) {
    EXPECT_EQ(SimSimd::LeafSearchFor(isa), &SimOps::SearchLeaf);
    EXPECT_EQ(SimSimd::ChildSearchFor(isa), &SimOps::SearchInternal);
  }
  // RealMem does get vector paths (when any vector ISA exists).
  using RealSimd = SimdNodeOps<NodeT, core::RealMem>;
  using RealOps = NodeOps<NodeT, core::RealMem>;
  for (simd::Isa isa : SupportedVectorIsas()) {
    EXPECT_NE(RealSimd::LeafSearchFor(isa), &RealOps::SearchLeaf)
        << simd::IsaName(isa);
  }
  EXPECT_EQ(RealSimd::LeafSearchFor(simd::Isa::kScalar),
            &RealOps::SearchLeaf);
}

// --- layer 2: node-state equivalence -----------------------------------------

// Compares the SIMD entry point for the node's kind (leaf search or child
// selection) against the scalar reference over a probe-key sweep, for
// every supported vector ISA.
template <class NodeT>
void ExpectNodeEquivalence(core::RealMem& m, const NodeT* node, Key max_key,
                           const char* what) {
  using Ops = NodeOps<NodeT, core::RealMem>;
  using Simd = SimdNodeOps<NodeT, core::RealMem>;
  const bool leaf = node->is_leaf();
  for (simd::Isa isa : SupportedVectorIsas()) {
    auto leaf_fn = Simd::LeafSearchFor(isa);
    auto child_fn = Simd::ChildSearchFor(isa);
    for (Key k = 0; k <= max_key; ++k) {
      if (leaf) {
        ASSERT_EQ(leaf_fn(m, node, k), Ops::SearchLeaf(m, node, k))
            << what << " isa=" << simd::IsaName(isa) << " key=" << k;
      } else {
        ASSERT_EQ(child_fn(m, node, k), Ops::SearchInternal(m, node, k))
            << what << " isa=" << simd::IsaName(isa) << " key=" << k;
      }
    }
  }
}

template <class NodeT>
void RunRandomizedNodeStates(bool internal) {
  using Ops = NodeOps<NodeT, core::RealMem>;
  constexpr int kCap = NodeT::kCapacity;
  std::mt19937_64 rng(internal ? 271828 : 314159);
  std::uniform_int_distribution<int> dcnt(0, kCap);
  std::uniform_int_distribution<int> dforge(0, 3);
  for (int trial = 0; trial < 24; ++trial) {
    core::RealMem m;
    alignas(64) NodeT node;
    node.Init(internal ? 1 : 0);
    if (internal) Ops::StoreLeftmost(m, &node, 0x10000);
    const int cnt = dcnt(rng);
    for (int i = 0; i < cnt; ++i) {
      const Key k = static_cast<Key>(3 * i + 2);  // gaps -> miss probes
      Ops::InsertKey(m, &node, k, internal ? 0x10000 + 16 * (i + 1)
                                           : 1000 + k);
    }
    // Half the trials flip into the delete phase (odd switch, R->L scan).
    if (trial % 2 == 1 && cnt > 0) {
      std::uniform_int_distribution<int> dvic(0, cnt - 1);
      Ops::DeleteKey(m, &node, static_cast<Key>(3 * dvic(rng) + 2));
    }
    // Forge one of the transient states the protocol tolerates.
    const int live = Ops::CountRaw(m, &node);
    switch (live >= 3 ? dforge(rng) : 0) {
      case 1:  // slot-0 hole (mid delete-shift)
        node.records[0].ptr = 0;
        break;
      case 2: {  // duplicate ptr (torn insert): garbage key, left's ptr
        std::uniform_int_distribution<int> dslot(1, live - 1);
        const int s = dslot(rng);
        node.records[s].key = 999999;
        node.records[s].ptr = node.records[s - 1].ptr;
        break;
      }
      case 3: {  // duplicate key (torn delete shift)
        std::uniform_int_distribution<int> dslot(0, live - 2);
        const int s = dslot(rng);
        node.records[s].key = node.records[s + 1].key;
        break;
      }
      default:
        break;
    }
    ExpectNodeEquivalence(m, &node, static_cast<Key>(3 * kCap + 3),
                          internal ? "internal" : "leaf");
  }
}

// Leaves whose front records left by front deletes: every ghost-prefix
// length, then a key put back into the last ghost. Ghosts keep their
// stale keys, which the probe sweep hits.
template <class NodeT>
void RunGhostPrefixStates() {
  using Ops = NodeOps<NodeT, core::RealMem>;
  constexpr int kCap = NodeT::kCapacity;
  for (int g = 0; g < kCap; ++g) {
    for (const bool reput : {false, true}) {
      core::RealMem m;
      alignas(64) NodeT node;
      node.Init(0);
      for (int i = 0; i < kCap; ++i) {
        const Key k = static_cast<Key>(3 * i + 2);
        Ops::InsertKey(m, &node, k, 1000 + k);
      }
      for (int i = 0; i < g; ++i) {
        Ops::DeleteKey(m, &node, static_cast<Key>(3 * i + 2));
      }
      if (reput && g > 0) {
        const Key k = static_cast<Key>(3 * (g - 1) + 2);
        Ops::InsertKey(m, &node, k, 5000 + k);
      }
      for (const bool odd : {false, true}) {
        if (odd) Ops::EnsureDeleteDirection(m, &node);
        ExpectNodeEquivalence(m, &node, static_cast<Key>(3 * kCap + 3),
                              "ghost-prefix leaf");
      }
    }
  }
}

TEST(SimdNodeEquivalence, LeafGhostPrefixes512) {
  RunGhostPrefixStates<Node<512>>();
}
TEST(SimdNodeEquivalence, LeafGhostPrefixes256) {
  RunGhostPrefixStates<Node<256>>();
}

TEST(SimdNodeEquivalence, LeafNode512) { RunRandomizedNodeStates<Node<512>>(false); }
TEST(SimdNodeEquivalence, LeafNode256) { RunRandomizedNodeStates<Node<256>>(false); }
TEST(SimdNodeEquivalence, InternalNode512) { RunRandomizedNodeStates<Node<512>>(true); }
TEST(SimdNodeEquivalence, InternalNode256) { RunRandomizedNodeStates<Node<256>>(true); }

// --- layer 3: concurrent writer vs SIMD readers ------------------------------

using ChurnNode = Node<512>;
using ChurnOps = NodeOps<ChurnNode, core::RealMem>;
using ChurnSimd = SimdNodeOps<ChurnNode, core::RealMem>;
constexpr int kChurnCap = ChurnNode::kCapacity;

// Even anchor keys 2..kChurnCap-1; the churn writer only touches odd keys
// between them, so every insert/delete shifts anchor records around.
std::vector<Key> ChurnAnchors() {
  std::vector<Key> anchors;
  for (int i = 0; i < kChurnCap / 2; ++i) anchors.push_back(2 * i + 2);
  return anchors;
}

// Runs one writer that inserts (churn, churn + churn_val) and deletes it
// again, so the switch word flips parity every iteration, while one reader
// thread per supported vector ISA (the scalar reference when there is none)
// runs read(isa). Single writer = node-lock serialization, as in the tree.
template <class Read>
void ChurnWhileReading(ChurnNode* node, std::uint64_t churn_val, Read read) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    core::RealMem wm;
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int> dslot(0, kChurnCap / 2 - 2);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key churn = static_cast<Key>(2 * dslot(rng) + 3);  // odd = churn
      ChurnOps::InsertKey(wm, node, churn, churn + churn_val);
      ChurnOps::DeleteKey(wm, node, churn);
    }
  });
  auto isas = SupportedVectorIsas();
  if (isas.empty()) isas.push_back(simd::Isa::kScalar);
  std::vector<std::thread> readers;
  for (const simd::Isa isa : isas) readers.emplace_back([&, isa] { read(isa); });
  for (auto& r : readers) r.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(SimdConcurrency, ReadersSeeAnchorsWhileWriterFlipsSwitch) {
  alignas(64) ChurnNode node;
  node.Init(0);
  core::RealMem wm;
  const std::vector<Key> anchors = ChurnAnchors();
  for (const Key k : anchors) ChurnOps::InsertKey(wm, &node, k, k + 7);
  // Keys the writer never inserts: below every anchor, and even keys above
  // the last one. A vector miss on them is answered by the scalar reader
  // while shifts are live.
  std::vector<Key> absent = {1};
  for (Key k = anchors.back() + 2; k <= anchors.back() + 10; k += 2) {
    absent.push_back(k);
  }

  std::atomic<int> lost{0}, phantom{0};
  ChurnWhileReading(&node, 7, [&](simd::Isa isa) {
    core::RealMem m;
    const auto leaf_fn = ChurnSimd::LeafSearchFor(isa);
    for (std::size_t iter = 0; iter < 30000; ++iter) {
      const Key a = anchors[iter % anchors.size()];
      if (leaf_fn(m, &node, a) != a + 7) {
        lost.fetch_add(1, std::memory_order_relaxed);
      }
      if (leaf_fn(m, &node, absent[iter % absent.size()]) != kNoValue) {
        phantom.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(phantom.load(), 0);

  // Quiesced: full equivalence sweep over the final state.
  core::RealMem m;
  ExpectNodeEquivalence(m, &node, static_cast<Key>(kChurnCap + 4),
                        "post-churn leaf");
}

TEST(SimdConcurrency, InternalRoutesAnchorsWhileWriterFlipsSwitch) {
  // Level-1 twin: anchor separators are fixed, the writer inserts and
  // deletes odd separators between them, and readers route each anchor.
  // A lock-free child pick promises B-link safety, not exactness: a delete
  // shift can make even the scalar reader pick a child left of the key's
  // (the descent's move-right recovers), but never one right of it
  // (nothing recovers). So every routed child must belong to a separator
  // <= the anchor; at quiescence it is exactly the anchor's own child.
  constexpr std::uint64_t kLeftmost = 0x10000;     // separator "-inf"
  constexpr std::uint64_t kAnchorChild = 0x20000;  // child = key + offset
  constexpr std::uint64_t kChurnChild = 0x30000;
  alignas(64) ChurnNode node;
  node.Init(1);
  core::RealMem wm;
  ChurnOps::StoreLeftmost(wm, &node, kLeftmost);
  const std::vector<Key> anchors = ChurnAnchors();
  for (const Key k : anchors) {
    ChurnOps::InsertKey(wm, &node, k, k + kAnchorChild);
  }
  // Separator owning `child`; ~0 (right of everything) for a ptr the node
  // never held.
  const auto separator_of = [&](std::uint64_t child) -> Key {
    if (child == kLeftmost) return 0;
    for (const std::uint64_t base : {kAnchorChild, kChurnChild}) {
      if (child > base && child <= base + kChurnCap) return child - base;
    }
    return ~Key{0};
  };

  std::atomic<int> routed_right{0};
  ChurnWhileReading(&node, kChurnChild, [&](simd::Isa isa) {
    core::RealMem m;
    const auto child_fn = ChurnSimd::ChildSearchFor(isa);
    for (std::size_t iter = 0; iter < 30000; ++iter) {
      const Key a = anchors[iter % anchors.size()];
      if (separator_of(child_fn(m, &node, a)) > a) {
        routed_right.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(routed_right.load(), 0);

  core::RealMem m;
  for (simd::Isa isa : SupportedVectorIsas()) {
    for (const Key a : anchors) {
      EXPECT_EQ(ChurnSimd::ChildSearchFor(isa)(m, &node, a), a + kAnchorChild)
          << simd::IsaName(isa) << " anchor=" << a;
    }
  }
  ExpectNodeEquivalence(m, &node, static_cast<Key>(kChurnCap + 4),
                        "post-churn internal");
}

}  // namespace
}  // namespace fastfair
