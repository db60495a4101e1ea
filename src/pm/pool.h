// Persistent memory pool: the `nv_malloc` substrate from the paper.
//
// A Pool is a contiguous mapped region carved out by a scalable two-level
// bump allocator.  Two flavours:
//
//  * Anonymous (DRAM-as-PM): what the paper's Quartz setup does; used by all
//    benchmarks and most tests.
//  * File-backed at a fixed virtual address: a real persistence demo.  Because
//    tree nodes hold raw pointers, a reopened pool must map at the same
//    address; we reserve a fixed base (configurable) with MAP_FIXED_NOREPLACE
//    so the pool header's stored root pointer stays valid across process
//    restarts (see examples/kvstore.cc).
//
// Allocation path (DESIGN.md §3): the pool header holds a single global bump
// offset, but threads do not contend on it per allocation.  Each thread
// reserves a 1 MiB *arena chunk* from the global offset with one CAS,
// then bump-allocates thread-locally with zero shared-memory traffic
// until the chunk is exhausted.  Allocations larger than half a chunk
// bypass the arena and hit the global offset directly; pools too small
// for chunking (< 8 chunks) degrade to the direct path entirely, so tiny
// test pools behave exactly like the original allocator.
//
// Reclamation path (DESIGN.md §3.1): Free() is a real two-level reclaimer.
// Freed blocks are stamped with the global reclamation epoch (pm/reclaim.h)
// and parked in a per-thread limbo list; once no reader pinned at or before
// the stamp remains, they move into per-thread per-size-class caches that
// Alloc() consumes before touching the bump offset.  Cache overflow spills
// in batches to one lock-free Treiber list per size class whose heads live
// in the pool header; cache misses refill from it in batches, so the hot
// paths (cache hit on both sides) write no shared memory.  Blocks smaller
// than 8 bytes or larger than 1 MiB are not recycled (accounting only).
// Callers must Free with the same size they passed to Alloc, and must
// remove the last persistent reference to a block (persisted) *before*
// freeing it — concurrent lock-free readers are then covered by the epoch.
//
// Crash story: a file-backed pool flushes the global offset at
// *chunk-reservation* granularity — after a crash the allocator resumes past
// every byte any thread may have handed out; an anonymous pool cannot be
// reopened and flushes none.  With Options::persist_free_lists
// the free-list heads and in-block next links are flushed in push/pop order
// (next durable before the head that exposes it; a pop durable before the
// block is handed out), so a reopened pool resumes recycling from the
// persisted lists; recovery sanitizes each list and truncates at the first
// torn entry.  Blocks in transit (limbo, thread caches) at the crash are
// leaked — the same bounded leak class as a partially-used arena chunk.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/defs.h"

namespace fastfair::pm {

/// Typed pool open/reopen failure. `kind()` tells a caller whether retrying
/// makes sense (`kIo`: transient OS condition — bad path, permissions, a
/// full filesystem), whether the file itself is damaged (`kCorrupt`: torn
/// header or a file shorter than the capacity its own header claims —
/// restore from a backup or delete to start fresh), or whether the file is
/// healthy but the open parameters are wrong (`kIncompatible`: reopen with
/// the capacity the file was created with). Derives from runtime_error so
/// untyped `catch` sites keep working; the what() message is actionable.
class PoolError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kIo, kCorrupt, kIncompatible };

  PoolError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

class Pool {
 public:
  struct Options {
    std::size_t capacity = std::size_t{1} << 32;  // 4 GiB virtual reservation
    std::string file_path;      // empty => anonymous (DRAM-as-PM)
    std::uintptr_t fixed_base = 0x5100'0000'0000ull;  // file-backed mapping base
    // Persist the size-class free lists (heads + in-block next links) so a
    // reopened pool resumes recycling. Off by default: the paper's
    // evaluation (like its reference implementation) uses a volatile
    // allocator, and a flush per free-list push or pop would skew the
    // comparative flush counts the figures measure.
    bool persist_free_lists = false;
  };

  explicit Pool(const Options& opts);
  explicit Pool(std::size_t capacity)
      : Pool(Options{.capacity = capacity, .file_path = {}}) {}
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Allocates `size` bytes aligned to `align` (power of two, >= 8).
  /// Thread-safe and, for small blocks, contention-free (per-thread arena or
  /// per-thread free-list cache). Throws std::bad_alloc when the pool is
  /// exhausted and nothing recyclable remains.
  void* Alloc(std::size_t size, std::size_t align = kCacheLineSize);

  /// Nothrow variant of Alloc: same recycle -> arena -> global path, but
  /// returns nullptr when the pool is exhausted (or when the fault injector
  /// fails this allocation — pm/fault.h). The status-propagating insert
  /// paths (core::BTreeT, the index adapters, the service tier's degraded
  /// mode) build on this instead of catching bad_alloc.
  void* TryAlloc(std::size_t size, std::size_t align = kCacheLineSize);

  /// Returns a block to the reclaimer (see file comment for the contract:
  /// same size as allocated, last persistent reference already removed).
  /// Safe to call from any thread, including one other than the allocating
  /// thread. The hot path writes only thread-local state; recycling is
  /// deferred past every reader pinned at the current epoch
  /// (pm/reclaim.h). The cold overflow path (a lagging reader pinning a
  /// full limbo) takes a pool-level mutex.
  void Free(void* p, std::size_t size) noexcept;

  /// Constructs a T in pool memory. The object is never destroyed by the
  /// pool; persistent structures are POD-like by design.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Alloc(sizeof(T), alignof(T) < 8 ? 8 : alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  /// Observation hook: called after every successful Alloc with the block
  /// address and requested size. Used by crashsim to Adopt() freshly
  /// allocated node memory into a simulated-PM domain (and by tests to
  /// audit the allocation stream). Install before sharing the pool between
  /// threads; pass fn=nullptr to clear.
  using AllocHook = void (*)(void* ctx, void* p, std::size_t size);
  void SetAllocHook(AllocHook fn, void* ctx) {
    hook_ctx_ = ctx;
    hook_ = fn;
  }

  /// Observation hook: called on every Free before the block enters the
  /// reclaimer. crashsim uses it to Release() freed memory from the
  /// simulated-PM domain, so simulated runs catch use-after-free.
  using FreeHook = void (*)(void* ctx, void* p, std::size_t size);
  void SetFreeHook(FreeHook fn, void* ctx) {
    free_hook_ctx_ = ctx;
    free_hook_ = fn;
  }

  // --- background maintenance entry points (src/maint, DESIGN.md §6) -------

  /// Budgeted background drain of the pool-level overflow limbo: pushes up
  /// to `max_blocks` entries whose epoch stamp has been waited out
  /// (stamp < epoch::MinPinned()) onto the shared per-size-class free
  /// lists, where any thread's Alloc can recycle them. Allocation misses
  /// run it opportunistically (unlimited budget) when a free-list refill
  /// comes up empty; a maintenance thread calling
  /// `epoch::TryAdvance()` + `DrainLimboQuantum()` drains limbo that no
  /// foreground free would otherwise ever revisit. Returns the bytes made
  /// recyclable. Thread-safe (pool-level mutex, try-lock — a racing
  /// foreground drain just makes this quantum a no-op).
  std::size_t DrainLimboQuantum(std::size_t max_blocks = SIZE_MAX);

  /// Hands this thread's private reclaim state to the pool: limbo entries
  /// move (epoch stamps intact) to the pool-level overflow limbo, and the
  /// thread's free-list caches spill to the shared per-class lists. Call
  /// when a worker goes idle or retires — afterwards the maintenance
  /// thread's DrainLimboQuantum can finish the reclamation without this
  /// thread ever freeing again. Returns the bytes handed over.
  std::size_t FlushThreadLimbo();

  /// Bytes currently parked in the pool-level overflow limbo (freed, epoch
  /// deferral not yet waited out or not yet drained). Telemetry for the
  /// maintenance tier; per-thread limbo lists are private until
  /// FlushThreadLimbo and are not counted. Takes the overflow mutex —
  /// use limbo_empty() for the per-quantum probe.
  std::size_t limbo_bytes() const;

  /// Lock-free probe of the same state (relaxed mirror of the entry
  /// count): the maintenance scheduler's at-rest check, safe to call
  /// every cycle without touching the overflow mutex.
  bool limbo_empty() const {
    return overflow_n_.load(std::memory_order_relaxed) == 0;
  }

  /// 8-byte root pointer slot in the pool header: set atomically + persisted.
  /// This is how an application finds its tree after restart.
  void SetRoot(const void* p);
  void* GetRoot() const;

  /// True if an existing file was reopened (header magic matched), i.e. the
  /// caller should recover via GetRoot() instead of building afresh.
  bool reopened() const { return reopened_; }

  /// Bytes reserved from the region (header + arena chunks + direct blocks).
  /// Grows at chunk granularity: small allocations served from a thread's
  /// current arena chunk — or recycled from a free list — do not move it.
  std::size_t used() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t freed_bytes() const;

  /// Bytes served from the free lists instead of the bump path (monotonic).
  std::size_t recycled_bytes() const;

  /// Effective arena chunk size for this pool: 1 MiB, capped at
  /// capacity/8; 0 (arenas disabled) when that falls below 4 KiB.
  std::size_t chunk_size() const { return chunk_size_; }

  /// Read-only audit of the shared per-size-class free lists for the
  /// reopen-time verifier (pm/check.h): walks each list validating
  /// alignment, bounds against the bump offset, per-block size words, and
  /// cycle-freedom; appends one message per defect to `errors` and totals
  /// the healthy prefix into `blocks`/`bytes`. Unlike SanitizeFreeLists
  /// this never truncates — the evidence stays on disk. Quiescent pools
  /// only (no concurrent Alloc/Free).
  void AuditFreeLists(std::vector<std::string>* errors,
                      std::uint64_t* blocks, std::uint64_t* bytes) const;

  /// Bytes the pool header reserves at the start of the mapping (the
  /// verifier's accounting baseline).
  std::size_t header_bytes() const;

  /// Returns true if `p` points inside this pool's mapping.
  bool Contains(const void* p) const {
    auto a = reinterpret_cast<std::uintptr_t>(p);
    auto b = reinterpret_cast<std::uintptr_t>(base_);
    return a >= b && a < b + capacity_;
  }

  /// Resets the bump pointer and the free lists, discarding all allocations
  /// and invalidating every thread's cached arena chunk and free cache.
  /// Test helper; not crash-consistent and must not race with allocation.
  void Reset();

 private:
  struct Header;  // lives at offset 0 of the mapping
  struct ReclaimSlot;
  static constexpr int kReclaimSlots = 4;
  static thread_local ReclaimSlot t_reclaim[kReclaimSlots];

  Header* header() const;

  /// One CAS on the global bump offset. Returns the offset of the reserved
  /// block, or SIZE_MAX when it does not fit and `nothrow` is set.
  std::size_t ReserveGlobal(std::size_t size, std::size_t align, bool nothrow);

  /// Thread-local arena fast path; nullptr when the request must go global.
  void* ArenaAlloc(std::size_t size, std::size_t align);

  /// Free-list fast path; nullptr when nothing recyclable fits.
  void* TryRecycle(std::size_t size, std::size_t align);

  ReclaimSlot* ReclaimFor(bool create);
  void DrainLimbo(ReclaimSlot* slot);
  void CachePut(ReclaimSlot* slot, int cls, std::uint64_t off,
                std::uint32_t size);
  void PushGlobal(int cls, std::uint64_t off, std::uint32_t size);
  std::uint64_t PopGlobal(int cls, std::uint32_t* size);
  /// The free-list walk recovery's sanitizer and the audit share: follows
  /// class `c`'s links while each is aligned, leaves a whole block inside
  /// [header, used) and stays under capacity / 8 links (else a cycle),
  /// calling visit(offset, block words); *stop gets the last link read.
  enum class FreeWalk { kEnd, kBadLink, kCycle };
  template <class Visit>
  FreeWalk WalkFreeList(int c, Visit visit, std::uint64_t* stop) const;
  void SanitizeFreeLists();

  void* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t chunk_size_ = 0;
  std::uint64_t id_ = 0;  // process-unique; never reused across Pool objects
  std::atomic<std::uint64_t> epoch_{0};  // bumped by Reset() to kill arenas
  AllocHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  FreeHook free_hook_ = nullptr;
  void* free_hook_ctx_ = nullptr;
  bool file_backed_ = false;
  bool reopened_ = false;
  bool persist_free_ = false;
  int fd_ = -1;

  // Overflow limbo: deferred frees evicted from a full thread-local limbo
  // while a lagging reader blocks recycling. Cold path only.
  struct OverflowEntry {
    std::uint64_t off;
    std::uint32_t size;
    std::uint64_t stamp;
  };
  mutable std::mutex overflow_mu_;  // mutable: limbo_bytes() is const telemetry
  std::vector<OverflowEntry> overflow_limbo_;
  // Relaxed mirror of overflow_limbo_.size(): lets allocation misses skip
  // the mutex entirely on pools that have no parked overflow.
  std::atomic<std::size_t> overflow_n_{0};
};

}  // namespace fastfair::pm
