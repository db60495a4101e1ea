// Persistence primitives + PM emulation layer.
//
// This module is the substrate the paper obtains from real hardware plus the
// Quartz DRAM-based PM latency emulator:
//
//  * `Clflush` / `Persist` / `Sfence` wrap the real cache-line flush and store
//    fence instructions, so flush *counts* and cache-eviction side effects are
//    the real thing.
//  * Configurable latency injection substitutes for Quartz (see DESIGN.md
//    §5.1): every flushed cache line spins for `write_latency_ns`, and every
//    `AnnotateRead` (called once per pointer-chased PM node by the index
//    implementations) spins for `read_latency_ns`.  The paper's performance
//    arguments are about flush/fence/serial-read counts, and this layer makes
//    those counts the directly priced quantities.
//  * `FenceIfNotTso` implements the paper's `mfence_IF_NOT_TSO()`: a no-op on
//    TSO (x86) and a real fence plus a `dmb` cost surrogate in the emulated
//    non-TSO mode used by the Fig 5(d) experiment.
//  * Per-thread counters record flushed lines, fences, barrier calls, read
//    annotations, and time spent flushing; the Fig 5(a) breakdown and the
//    barrier-count ablations read them.
//
// Thread safety: configuration is global and read with relaxed atomics (set it
// before or between benchmark phases); statistics are thread-local.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/defs.h"

namespace fastfair::pm {

enum class MemModel : std::uint8_t {
  kTso,     // x86-like: stores are not reordered with stores.
  kNonTso,  // ARM-like: FAST must fence between dependent stores.
};

enum class Persistency : std::uint8_t {
  kStrict,   // persist order == volatile store order (paper's main model)
  kRelaxed,  // epoch-style: a persist barrier is required per ordered flush
};

struct Config {
  std::uint64_t write_latency_ns = 0;  // injected per flushed cache line
  std::uint64_t read_latency_ns = 0;   // injected per AnnotateRead call
  std::uint64_t barrier_ns = 0;        // injected per FenceIfNotTso (non-TSO)
  MemModel model = MemModel::kTso;
  // Paper §VI: under relaxed persistency FAST/FAIR must issue a persist
  // barrier per ordered cache-line flush. They already do for in-node
  // shifts, and a split copy needs none inside it (the sibling is
  // unreachable until its commit); this additionally fences between the
  // lines of every FlushRange/Persist, e.g. a new root or a baseline's
  // node write. Enables the ablation_persistency experiment.
  Persistency persistency = Persistency::kStrict;
};

/// Installs a new global emulation config. Not meant to race with operations;
/// benchmarks call it between phases.
void SetConfig(const Config& cfg);
Config GetConfig();

/// Switches the memory model (and its barrier cost) alone.
void SetMemModel(MemModel model, std::uint64_t barrier_ns = 0);

/// Per-thread persistence statistics.
struct ThreadStats {
  std::uint64_t flush_lines = 0;       // cache lines flushed
  std::uint64_t fences = 0;            // sfence count
  std::uint64_t barriers = 0;          // FenceIfNotTso count (non-TSO only)
  std::uint64_t read_annotations = 0;  // PM node visits charged read latency
  std::uint64_t read_stalls = 0;       // serialized read-latency stalls paid
  std::uint64_t flush_ns = 0;          // wall time inside Clflush/Persist
  std::uint64_t allocs = 0;            // PM pool allocations
  std::uint64_t alloc_bytes = 0;       // bytes handed out to this thread
  std::uint64_t arena_refills = 0;     // arena chunk reservations (global CAS)
  std::uint64_t frees = 0;             // Pool::Free calls from this thread
  std::uint64_t free_bytes = 0;        // bytes this thread logically freed
  std::uint64_t recycles = 0;          // allocations served from a free list
  std::uint64_t recycle_bytes = 0;     // bytes served from free lists
  std::uint64_t freelist_spills = 0;   // cache -> global batch pushes
  std::uint64_t freelist_refills = 0;  // global -> cache batch pops

  ThreadStats& operator-=(const ThreadStats& o);
  ThreadStats operator-(const ThreadStats& o) const;
  /// Member-wise sum: aggregates per-thread deltas across a worker pool
  /// (the service tier folds each worker's phase delta into one total).
  ThreadStats& operator+=(const ThreadStats& o);
  ThreadStats operator+(const ThreadStats& o) const;
};

/// Mutable reference to this thread's counters.
ThreadStats& Stats();
void ResetStats();

/// Flushes one cache line containing `addr` and charges write latency.
void Clflush(const void* addr);

/// Flushes every cache line in [addr, addr+len) and issues a store fence.
/// This is the paper's `clflush_with_mfence`.
void Persist(const void* addr, std::size_t len);

/// Flushes the range without a trailing fence (used when several ranges are
/// persisted together, with one explicit Sfence at the end).
void FlushRange(const void* addr, std::size_t len);

/// Store fence: orders flushes with subsequent stores.
void Sfence();

/// The paper's `mfence_IF_NOT_TSO()`. No-op under TSO; real fence plus `dmb`
/// cost surrogate under the emulated non-TSO model.
void FenceIfNotTso();

/// Read-latency injection point: indexes call this once per PM node they
/// pointer-chase into. Models serial (dependent) PM reads; adjacent lines
/// within a node are assumed fetched in parallel by MLP / prefetch, per the
/// paper's §5.4 argument. Charges one read_stall (and one latency spin).
void AnnotateRead(const void* node);

/// Grouped read annotation for the batched descent pipeline (DESIGN.md
/// §8.1): `nodes` PM nodes whose addresses were all known before any was
/// dereferenced (an interleaved group of descents that prefetched each
/// child one level ahead), so the fetches overlap in the memory system the
/// same way a node's adjacent lines do. Counts `nodes` read_annotations
/// (node-visit accounting is unchanged) but only ONE serialized stall —
/// one read_stall, one latency spin. No-op when nodes == 0.
void AnnotateReadGroup(std::size_t nodes);

/// Visits to `nodes` PM nodes whose fetch an earlier stall already paid
/// for: a grouped wave that fetched them ahead of use (DESIGN.md §5.1,
/// §8.2b). Counts `nodes` read_annotations and no read_stall; no latency.
void AnnotateCoveredReads(std::size_t nodes);

/// Busy-waits approximately `ns` nanoseconds (TSC-calibrated).
void SpinNs(std::uint64_t ns);

/// Monotonic nanosecond clock (TSC-based when available).
std::uint64_t NowNs();

}  // namespace fastfair::pm
