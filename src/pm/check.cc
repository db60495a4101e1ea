#include "pm/check.h"

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_set>

#include "core/btree.h"
#include "pm/pool.h"

namespace fastfair::pm {

namespace {

// One level's walk state: the set of nodes the sibling chain actually
// visited, checked against the child routes the level above collected.
using PtrSet = std::unordered_set<std::uint64_t>;

// Read-only walk of one tree, templated on the node size recorded in its
// TreeMeta. Plain loads throughout: the tree is quiescent, and after a
// crash the raw bytes are all the state there is.
template <std::size_t P>
void WalkTree(const Pool* pool, const core::TreeMeta* meta, CheckReport* r) {
  using NodeT = core::Node<P>;
  auto err = [&](std::string m) { r->errors.push_back(std::move(m)); };
  auto node_at = [](std::uint64_t p) {
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
    const std::string at = " at level " + std::to_string(level);
    auto key_err = [&](Key k, const std::string& what) {
      err("key " + std::to_string(k) + at + ": " + what);
    };
    if (first->level() != level) {
      err("leftmost descent reached a node tagged level " +
          std::to_string(first->level()) + " where level " +
          std::to_string(level) + " was expected");
      return;
    }
    PtrSet chain;
    PtrSet child_routes;
    std::uint64_t walked = 0;
    std::optional<Key> prev_fence;
    // Split copies: records a left node holds at or above its sibling's
    // fence because FAIR's truncation store never persisted; skipped, not
    // counted. Like CountEntries and ScanRange, the walk returns a record
    // only above the last key returned; `shown` queues the copies returned
    // that way, and their owners' records must match them one for one.
    std::deque<core::Record> shown;
    std::optional<Key> last;  // the last key the scan returned
    for (const NodeT* n = first; n != nullptr;) {
      if (!pool->Contains(n)) {
        err("sibling pointer leaves the pool" + at);
        break;
      }
      if (++walked > max_nodes) {
        err("sibling chain cycle" + at);
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
      if (prev_fence && fence <= *prev_fence) {
        err("fences not strictly ascending" + at + " (" +
            std::to_string(*prev_fence) + " then " + std::to_string(fence) +
            ")");
      }
      prev_fence = fence;
      const NodeT* sib = node_at(n->hdr.sibling);
      const bool bounded = sib != nullptr && pool->Contains(sib);
      // Takes one valid record of `n`, in key order.
      auto take = [&](const core::Record& rec) {
        if (rec.key < fence) {
          key_err(rec.key,
                  "below its node's low fence " + std::to_string(fence));
        }
        if (bounded && rec.key >= sib->hdr.fence) {
          if (!last || rec.key > *last) {
            shown.push_back(rec);
            last = rec.key;
          }
          return;
        }
        for (; !shown.empty() && shown.front().key < rec.key;
             shown.pop_front()) {
          key_err(shown.front().key, "split copy no node right of it holds");
        }
        if (!shown.empty() && shown.front().key == rec.key) {
          if (shown.front().ptr != rec.ptr) {
            key_err(rec.key, "split copy disagrees with its owner's pointer");
          }
          shown.pop_front();
        } else if (last && rec.key <= *last) {
          key_err(rec.key, "hidden by a split copy left of it");
        } else {
          last = rec.key;
        }
        if (n->is_leaf()) {
          ++r->entries;
        } else {
          child_routes.insert(rec.ptr);
        }
      };
      // One pass over the slots under the readers' validity rules: a
      // slot-0 hole is skipped, a slot whose ptr repeats its left
      // neighbour's (hdr.leftmost for slot 0 and behind a zero ptr, the
      // leaf's own address in a leaf: a ghost) is invalid, and of two
      // adjacent valid slots holding one key the right one is
      // authoritative (a torn delete shift's remnant).
      const std::uint64_t self = reinterpret_cast<std::uint64_t>(n);
      if (n->is_leaf() && n->hdr.leftmost != 0 && n->hdr.leftmost != self) {
        err("leaf" + at + " anchors slot 0 at another node's address");
      }
      const int start =
          n->records[0].ptr == 0 && n->records[1].ptr != 0 ? 1 : 0;
      std::optional<core::Record> cur;
      for (int i = start; i <= NodeT::kCapacity && n->records[i].ptr != 0;
           ++i) {
        const std::uint64_t p = n->records[i].ptr;
        const std::uint64_t left = i > 0 && n->records[i - 1].ptr != 0
                                       ? n->records[i - 1].ptr
                                       : n->hdr.leftmost;
        if (p == left) continue;
        const Key k = n->records[i].key;
        if (cur && k == cur->key) {
          cur->ptr = p;
        } else if (cur && k < cur->key) {  // the offender stays uncounted
          err("keys not strictly ascending" + at + " (" +
              std::to_string(cur->key) + " then " + std::to_string(k) + ")");
        } else {
          if (cur) take(*cur);
          cur = core::Record{k, p};
        }
      }
      if (cur) take(*cur);
      if (!n->is_leaf() && n->hdr.leftmost != 0) {
        child_routes.insert(n->hdr.leftmost);
      }
      n = sib;
    }
    for (const core::Record& c : shown) {
      key_err(c.key, "split copy no node right of it holds");
    }
    // Reachability: every child some parent routes to must sit on this
    // chain, or be a dead node already unlinked from it whose routes a
    // repairer has yet to redirect. (The converse is allowed — a split
    // sibling not yet published to its parent is the crash state
    // AdoptSibling completes lazily.)
    for (const std::uint64_t p : routed) {
      const NodeT* c = node_at(p);
      if (chain.count(p) != 0 ||
          (pool->Contains(c) && c->level() == level &&
           (c->hdr.flags & core::kNodeDead) != 0)) {
        continue;
      }
      err("level-" + std::to_string(level + 1) +
          " node routes to a child not reachable on the level-" +
          std::to_string(level) + " sibling chain");
      break;  // one message per level is enough signal
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

CheckReport CheckTree(const Pool* pool, const core::TreeMeta* meta) {
  CheckReport r;
  if (!pool->Contains(meta)) {
    r.errors.push_back("TreeMeta lies outside the pool");
  } else if (meta->magic != core::kTreeMagic) {
    r.errors.push_back("TreeMeta magic mismatch: the anchor is not a tree");
  } else {
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
  return r;
}

CheckReport CheckPool(Pool* pool) {
  const auto* meta = static_cast<const core::TreeMeta*>(pool->GetRoot());
  CheckReport r = meta != nullptr ? CheckTree(pool, meta) : CheckReport{};
  r.used_bytes = pool->used();
  r.capacity_bytes = pool->capacity();
  pool->AuditFreeLists(&r.errors, &r.free_blocks, &r.free_bytes);
  // Leak estimate: bump-reserved bytes not explained by the header, the
  // reachable tree, or the free lists. Arena chunk tails and crash-time
  // in-transit blocks land here by design — reported, never an error.
  const std::uint64_t meta_bytes = r.levels != 0 ? sizeof(core::TreeMeta) : 0;
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
