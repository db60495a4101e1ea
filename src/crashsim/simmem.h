// Cache-line-granularity crash simulator.
//
// Substitute for the paper's physical power-off experiments (DESIGN.md §5.2).
// The FAST/FAIR node algorithms in core/node_ops.h are templated over a
// memory policy; production code instantiates them with `RealMem` (plain
// stores + pm::Clflush), while crash tests instantiate the *same* templates
// with `SimMem`, which records every 8-byte store, flush, and fence into a
// log instead of touching memory.
//
// Crash-state semantics (TSO + explicit flushes):
//
//  * Stores become *cached* in program order.  Under TSO, a cache line that is
//    evicted at time t contains exactly the stores to that line issued before
//    t — i.e. a per-line prefix of the global store order.
//  * `Flush(line)` guarantees that, once the next `Fence()` completes, the
//    line's content as of the flush is persistent.
//  * At a crash, each line independently persists some prefix of its stores,
//    constrained from below by its last fenced flush: the prefix cannot be
//    *shorter* than the flushed prefix (flushed data cannot be un-written),
//    but may be *longer* (the line may have been evicted, or partially
//    rewritten and evicted again, after the flush).
//
// `EnumerateCrashStates` walks every combination of per-line cut points
// (bounded per line by [fenced-flush point, end]) and materializes each
// distinct resulting memory image once so a test can run a reader against
// it.  For large
// logs the combinatorial product explodes, so `SampleCrashStates` draws
// random cut-point vectors; the exhaustive mode additionally offers
// *crash-point* enumeration: crash after the i-th event, with every
// unflushed line at an arbitrary cut <= i (the adversarial eviction model).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/defs.h"
#include "common/rng.h"

namespace fastfair::pm {
class Pool;  // pm/pool.h; only referenced, keeping this header pm-free
}

namespace fastfair::crashsim {

/// One logged event.
struct Event {
  enum class Kind : std::uint8_t { kStore, kFlush, kFence };
  Kind kind;
  std::uintptr_t addr = 0;   // store: 8-byte-aligned target; flush: any byte in line
  std::uint64_t value = 0;   // store only
};

/// Simulated persistent memory with an event log.
///
/// Addresses are real host addresses of a caller-owned *shadow* buffer: the
/// caller allocates node images normally, seeds SimMem with their initial
/// bytes via `Adopt`, and node_ops write through `Store64`.  The shadow
/// buffer itself is never modified; images are materialized on demand.
class SimMem {
 public:
  /// Registers [base, base+len) with its current content as the persistent
  /// initial state. Must be 8-byte aligned. Re-adopting a released range is
  /// legal and models recycled PM: the block re-enters the domain with its
  /// current (garbage) bytes as the initial state.
  void Adopt(const void* base, std::size_t len);

  /// Removes [base, base+len) from the simulated-PM domain (the inverse of
  /// Adopt). Subsequent loads/stores to the range throw, so a simulated run
  /// that touches freed memory fails loudly — this is how recycling bugs
  /// surface under simulation. Must be 8-byte aligned.
  void Release(const void* base, std::size_t len);

  /// Installs this simulator as `pool`'s allocation *and* free hooks: every
  /// subsequent allocation (arena, direct, or recycled) is Adopt()ed and
  /// every Free is Release()d automatically, so node_ops driven through
  /// SimMem can allocate from a real Pool — splits and recycling included —
  /// without stepping outside the simulated-PM domain. The pool must outlive
  /// the simulator or have the hooks cleared first.
  void InterceptPool(pm::Pool& pool);

  /// Memory-policy interface used by core/node_ops.h -------------------------
  void Store64(void* addr, std::uint64_t value);
  std::uint64_t Load64(const void* addr) const;  // program-order (cache) view
  void Flush(const void* addr);                  // clflush of addr's line
  void Fence();                                  // sfence
  void FenceIfNotTso() {}  // simulator models TSO; non-TSO is tested via real pm layer
  /// -------------------------------------------------------------------------

  const std::vector<Event>& events() const { return events_; }
  std::size_t store_count() const;

  /// A materialized crash image: byte content for every adopted range.
  struct Image {
    // Maps 8-byte-aligned address -> value for all adopted memory.
    std::unordered_map<std::uintptr_t, std::uint64_t> words;
    std::uint64_t Read64(const void* addr) const;
  };

  /// The fully-persisted final image (all stores applied).
  Image FinalImage() const;

  /// Invokes `fn` once on every distinct crash image under the adversarial
  /// eviction model: for each crash point i (after event i executes, 0..N),
  /// each line independently persists any store-prefix between its fenced
  /// flush floor and i. Prefixes that leave a line with the same content
  /// (a store rewriting the value its word holds) name one image.
  /// `max_states` caps the total invocations (returns false if the cap was
  /// hit before completing enumeration).
  bool EnumerateCrashStates(const std::function<void(const Image&)>& fn,
                            std::size_t max_states = 1u << 22) const;

  /// Randomized variant for logs too large to enumerate: `samples` draws,
  /// each a uniform crash point and then, per line, a uniform cut between
  /// that point's floor and its store count. Same model as the
  /// enumeration, so every sampled image is one it also yields.
  void SampleCrashStates(std::size_t samples, std::uint64_t seed,
                         const std::function<void(const Image&)>& fn) const;

 private:
  static std::uintptr_t LineOf(std::uintptr_t a) {
    return a & ~(std::uintptr_t{kCacheLineSize} - 1);
  }

  // The crash model both walks share (simmem.cc).
  struct CrashModel;

  // Initial persistent content.
  std::unordered_map<std::uintptr_t, std::uint64_t> initial_;
  // Program-order (cache) view for Load64.
  std::unordered_map<std::uintptr_t, std::uint64_t> cache_;
  std::vector<Event> events_;
  // Flushes the fault injector deferred past the next fence (pm/fault.h);
  // re-emitted right after that fence so the fence no longer covers them.
  std::vector<Event> deferred_flushes_;
};

/// Read-only memory policy over a materialized crash image, for running
/// the core/node_ops.h readers against the bytes a crash left.
struct ImageMem {
  const SimMem::Image* img;
  std::uint64_t Load64(const void* a) const { return img->Read64(a); }
  void Store64(void*, std::uint64_t) {
    throw std::logic_error("ImageMem is read-only");
  }
  void Flush(const void*) {}
  void Fence() {}
  void FenceIfNotTso() {}
};

}  // namespace fastfair::crashsim
