#include "pm/check.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "core/btree.h"
#include "pm/pool.h"

namespace fastfair::pm {

namespace {

// One level's walk state: the set of nodes the sibling chain actually
// visited, checked against the child routes the level above collected.
using PtrSet = std::unordered_set<std::uint64_t>;

// Read-only walk of one tree, templated on the node size recorded in its
// TreeMeta. Plain loads throughout: the pool is quiescent (reopen time),
// and after a crash the raw bytes are all the state there is.
template <std::size_t P>
void WalkTree(const Pool* pool, const core::TreeMeta* meta, CheckReport* r) {
  using NodeT = core::Node<P>;
  auto err = [&](std::string m) { r->errors.push_back(std::move(m)); };
  auto node_at = [&](std::uint64_t p) {
    return reinterpret_cast<const NodeT*>(p);
  };
  const std::uint64_t root = meta->root;
  if (root == 0 || !pool->Contains(node_at(root))) {
    err("tree root pointer is null or outside the pool");
    return;
  }
  // Cycle bound: the chain cannot legitimately hold more nodes than the
  // bump offset has handed out.
  const std::uint64_t max_nodes = pool->used() / P + 2;
  const NodeT* first = node_at(root);
  int level = first->level();
  r->levels = static_cast<std::uint64_t>(level) + 1;
  PtrSet routed;  // children the level above routes to
  for (;;) {
    if (first->level() != level) {
      err("leftmost descent reached a node tagged level " +
          std::to_string(first->level()) + " where level " +
          std::to_string(level) + " was expected");
      return;
    }
    PtrSet chain;
    PtrSet child_routes;
    std::uint64_t walked = 0;
    bool have_fence = false;
    Key prev_fence = 0;
    bool have_key = false;
    Key prev_key = 0;
    for (const NodeT* n = first; n != nullptr;) {
      if (!pool->Contains(n)) {
        err("sibling pointer leaves the pool at level " +
            std::to_string(level));
        break;
      }
      if (++walked > max_nodes) {
        err("sibling chain cycle at level " + std::to_string(level));
        break;
      }
      chain.insert(reinterpret_cast<std::uint64_t>(n));
      ++r->nodes;
      r->node_bytes += P;
      if (n->is_leaf()) ++r->leaves;
      if ((n->hdr.flags & core::kNodeDead) != 0) ++r->dead_nodes;
      if (n->level() != level) {
        err("level tag mismatch on the level-" + std::to_string(level) +
            " chain");
      }
      // Fence monotonicity: the persistent low fences partition the level,
      // strictly ascending left to right.
      const Key fence = n->hdr.fence;
      if (have_fence && fence <= prev_fence) {
        err("fences not strictly ascending at level " +
            std::to_string(level) + " (" + std::to_string(prev_fence) +
            " then " + std::to_string(fence) + ")");
      }
      prev_fence = fence;
      have_fence = true;
      // Records: scan past a transient slot-0 hole, apply the
      // duplicate-pointer validity rule, check order against the fence
      // and the running maximum of the level.
      const int start =
          n->records[0].ptr == 0 && n->records[1].ptr != 0 ? 1 : 0;
      std::uint64_t left = start == 0 && !n->is_leaf() ? n->hdr.leftmost : 0;
      for (int i = start; i <= NodeT::kCapacity; ++i) {
        const std::uint64_t p = n->records[i].ptr;
        if (p == 0) break;
        const bool valid = i == start ? (start == 1 || p != left)
                                      : p != n->records[i - 1].ptr;
        if (!valid) continue;  // paper-legal transient shift state
        const Key k = n->records[i].key;
        if (k < fence) {
          err("key " + std::to_string(k) + " below its node's low fence " +
              std::to_string(fence) + " at level " + std::to_string(level));
        }
        if (have_key && k <= prev_key) {
          err("keys not strictly ascending at level " +
              std::to_string(level) + " (" + std::to_string(prev_key) +
              " then " + std::to_string(k) + ")");
        }
        prev_key = k;
        have_key = true;
        if (n->is_leaf()) {
          ++r->entries;
        } else {
          child_routes.insert(p);
        }
      }
      if (!n->is_leaf() && n->hdr.leftmost != 0) {
        child_routes.insert(n->hdr.leftmost);
      }
      n = node_at(n->hdr.sibling);
    }
    // Reachability: every child some parent routes to must sit on this
    // chain. (The converse is allowed — a split sibling not yet published
    // to its parent is the crash state AdoptSibling completes lazily.)
    for (const std::uint64_t p : routed) {
      if (chain.count(p) == 0) {
        err("level-" + std::to_string(level + 1) +
            " node routes to a child not reachable on the level-" +
            std::to_string(level) + " sibling chain");
        break;  // one message per level is enough signal
      }
    }
    if (first->is_leaf()) break;
    routed = std::move(child_routes);
    const std::uint64_t down =
        first->hdr.leftmost != 0 ? first->hdr.leftmost
                                 : first->records[0].ptr;
    if (down == 0 || !pool->Contains(node_at(down))) {
      err("leftmost descent broken below level " + std::to_string(level));
      return;
    }
    first = node_at(down);
    --level;
  }
  if (level != 0) {
    err("leftmost descent ended at level " + std::to_string(level) +
        ", not at the leaves");
  }
}

}  // namespace

CheckReport CheckPool(Pool* pool) {
  CheckReport r;
  r.used_bytes = pool->used();
  r.capacity_bytes = pool->capacity();
  pool->AuditFreeLists(&r.errors, &r.free_blocks, &r.free_bytes);
  std::uint64_t meta_bytes = 0;
  if (const void* root = pool->GetRoot(); root != nullptr) {
    const auto* meta = static_cast<const core::TreeMeta*>(root);
    if (!pool->Contains(meta)) {
      r.errors.push_back("pool root slot points outside the pool");
    } else if (meta->magic != core::kTreeMagic) {
      r.errors.push_back(
          "pool root slot does not anchor a tree (TreeMeta magic mismatch)");
    } else {
      meta_bytes = sizeof(core::TreeMeta);
      switch (meta->page_size) {
        case 256:  WalkTree<256>(pool, meta, &r); break;
        case 512:  WalkTree<512>(pool, meta, &r); break;
        case 1024: WalkTree<1024>(pool, meta, &r); break;
        case 2048: WalkTree<2048>(pool, meta, &r); break;
        case 4096: WalkTree<4096>(pool, meta, &r); break;
        default:
          r.errors.push_back("TreeMeta carries unknown page size " +
                             std::to_string(meta->page_size));
      }
    }
  }
  // Leak estimate: bump-reserved bytes not explained by the header, the
  // reachable tree, or the free lists. Arena chunk tails and crash-time
  // in-transit blocks land here by design — reported, never an error.
  const std::uint64_t explained =
      pool->header_bytes() + meta_bytes + r.node_bytes + r.free_bytes;
  r.leaked_bytes = r.used_bytes > explained ? r.used_bytes - explained : 0;
  return r;
}

std::string CheckReport::ToString() const {
  char buf[256];
  std::string s = ok() ? "CheckPool: OK\n" : "CheckPool: FAILED\n";
  std::snprintf(buf, sizeof(buf),
                "  tree: %" PRIu64 " levels, %" PRIu64 " nodes (%" PRIu64
                " leaves, %" PRIu64 " dead), %" PRIu64 " entries, %" PRIu64
                " bytes\n",
                levels, nodes, leaves, dead_nodes, entries, node_bytes);
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "  free lists: %" PRIu64 " blocks, %" PRIu64 " bytes\n",
                free_blocks, free_bytes);
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "  pool: %" PRIu64 "/%" PRIu64
                " bytes used, ~%" PRIu64 " bytes unaccounted (arena tails + "
                "crash-time transit)\n",
                used_bytes, capacity_bytes, leaked_bytes);
  s += buf;
  for (const std::string& e : errors) s += "  error: " + e + "\n";
  return s;
}

}  // namespace fastfair::pm
