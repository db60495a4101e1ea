// Reopen-time pool verifier (DESIGN.md §11.4): a read-only fsck an
// application runs after attaching to an existing pool, before trusting
// its contents. Three passes:
//
//  * tree walk (CheckTree, also behind core::BTreeT::CheckInvariants) —
//    every level's sibling chain is walked left to right checking level
//    tags, strict fence ascent, and each node's records in one slot pass
//    under the readers' rules, so the transient states an interrupted
//    shift or split leaves pass (DESIGN.md §11.4 lists them). Every child
//    an internal node routes to must sit on the child level's chain (or be
//    a dead node awaiting route repair); a split sibling not yet in its
//    parent is legal — that is the crash state AdoptSibling repairs.
//  * free-list audit — each per-size-class list is walked validating
//    alignment, bounds against the bump offset, per-block size words, and
//    cycle-freedom, totaling the recyclable bytes.
//  * leak accounting — bump-reserved bytes not explained by the header,
//    the reachable tree, or the free lists. Reported, never an error:
//    partially-used arena chunks and blocks in crash-time transit are the
//    allocator's documented bounded-leak class (pm/pool.h).
//
// Everything lands in a structured CheckReport; nothing is mutated, so a
// failed check leaves the evidence intact for offline inspection. Callers
// that want self-repair attach normally afterwards (the tree's attach
// constructor and lazy repairers handle the transient states the paper
// defines); CheckPool is the auditor, not the repairer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fastfair::core {
struct TreeMeta;
}

namespace fastfair::pm {

class Pool;

/// Structured result of CheckPool. `errors` holds one human-readable
/// message per defect; the counters describe what the walk saw and are
/// valid even when defects were found (they cover the walked prefix).
struct CheckReport {
  std::vector<std::string> errors;

  // Tree walk (zeros when the pool anchors no tree).
  std::uint64_t levels = 0;       // tree height (1 = single leaf)
  std::uint64_t nodes = 0;        // nodes reached via sibling chains
  std::uint64_t leaves = 0;       // level-0 subset of `nodes`
  std::uint64_t dead_nodes = 0;   // kNodeDead, awaiting unlink/reclaim
  std::uint64_t entries = 0;      // live leaf records, split copies skipped
  std::uint64_t node_bytes = 0;   // bytes of reachable nodes

  // Free-list audit.
  std::uint64_t free_blocks = 0;
  std::uint64_t free_bytes = 0;

  // Accounting.
  std::uint64_t used_bytes = 0;      // pool bump offset (incl. header)
  std::uint64_t capacity_bytes = 0;
  std::uint64_t leaked_bytes = 0;    // used - header - tree - free (est.)

  bool ok() const { return errors.empty(); }

  /// Multi-line summary: one line per counter group, then every error.
  std::string ToString() const;
};

/// The tree walk alone, over `meta` (its bounds, magic and page size are
/// checked first). Fills only the tree counters and errors. Quiescent
/// trees only.
CheckReport CheckTree(const Pool* pool, const core::TreeMeta* meta);

/// Runs the fsck described above against `pool`: CheckTree on the pool's
/// root slot (Pool::GetRoot) when non-null, the free-list audit, and leak
/// accounting. Quiescent pools only (no concurrent writers — the natural
/// reopen-time condition).
CheckReport CheckPool(Pool* pool);

}  // namespace fastfair::pm
