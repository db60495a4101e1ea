#include "pm/persist.h"

#include <atomic>
#include <chrono>

#if defined(__x86_64__)
#include <immintrin.h>
#include <x86intrin.h>
#endif

namespace fastfair::pm {
namespace {

// Global emulation configuration, packed into individually-atomic fields so
// hot paths read them with relaxed loads.
std::atomic<std::uint64_t> g_write_latency_ns{0};
std::atomic<std::uint64_t> g_read_latency_ns{0};
std::atomic<std::uint64_t> g_barrier_ns{0};
std::atomic<MemModel> g_model{MemModel::kTso};
std::atomic<Persistency> g_persistency{Persistency::kStrict};

thread_local ThreadStats t_stats;

#if defined(__x86_64__)
// Cycles per nanosecond, calibrated once at startup against the steady clock.
double CalibrateTscPerNs() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const std::uint64_t c0 = __rdtsc();
  // ~2 ms calibration window: long enough to dwarf clock-read overhead.
  while (std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
             .count() < 2000) {
  }
  const std::uint64_t c1 = __rdtsc();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  return static_cast<double>(c1 - c0) / static_cast<double>(ns);
}

double TscPerNs() {
  static const double v = CalibrateTscPerNs();
  return v;
}
#endif

#if defined(__x86_64__)
bool DetectClflushOpt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("clflushopt");
}

// Compiled with the clflushopt ISA enabled for this one function; only
// called after the runtime CPU check above.
__attribute__((target("clflushopt"))) void ClflushOptLine(const void* addr) {
  _mm_clflushopt(const_cast<void*>(addr));
}
#endif

inline void FlushLine(const void* addr) {
#if defined(__x86_64__)
  // Prefer clflushopt (weakly ordered, cheaper) when the CPU has it; every
  // ordering-sensitive call site in this codebase pairs flushes with an
  // explicit Sfence, so the weaker ordering is safe.
  static const bool has_clflushopt = DetectClflushOpt();
  if (has_clflushopt) {
    ClflushOptLine(addr);
  } else {
    _mm_clflush(addr);
  }
#else
  (void)addr;
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

ThreadStats& ThreadStats::operator-=(const ThreadStats& o) {
  flush_lines -= o.flush_lines;
  fences -= o.fences;
  barriers -= o.barriers;
  read_annotations -= o.read_annotations;
  read_stalls -= o.read_stalls;
  flush_ns -= o.flush_ns;
  allocs -= o.allocs;
  alloc_bytes -= o.alloc_bytes;
  arena_refills -= o.arena_refills;
  frees -= o.frees;
  free_bytes -= o.free_bytes;
  recycles -= o.recycles;
  recycle_bytes -= o.recycle_bytes;
  freelist_spills -= o.freelist_spills;
  freelist_refills -= o.freelist_refills;
  return *this;
}

ThreadStats ThreadStats::operator-(const ThreadStats& o) const {
  ThreadStats r = *this;
  r -= o;
  return r;
}

ThreadStats& ThreadStats::operator+=(const ThreadStats& o) {
  flush_lines += o.flush_lines;
  fences += o.fences;
  barriers += o.barriers;
  read_annotations += o.read_annotations;
  read_stalls += o.read_stalls;
  flush_ns += o.flush_ns;
  allocs += o.allocs;
  alloc_bytes += o.alloc_bytes;
  arena_refills += o.arena_refills;
  frees += o.frees;
  free_bytes += o.free_bytes;
  recycles += o.recycles;
  recycle_bytes += o.recycle_bytes;
  freelist_spills += o.freelist_spills;
  freelist_refills += o.freelist_refills;
  return *this;
}

ThreadStats ThreadStats::operator+(const ThreadStats& o) const {
  ThreadStats r = *this;
  r += o;
  return r;
}

void SetConfig(const Config& cfg) {
  g_write_latency_ns.store(cfg.write_latency_ns, std::memory_order_relaxed);
  g_read_latency_ns.store(cfg.read_latency_ns, std::memory_order_relaxed);
  g_barrier_ns.store(cfg.barrier_ns, std::memory_order_relaxed);
  g_model.store(cfg.model, std::memory_order_relaxed);
  g_persistency.store(cfg.persistency, std::memory_order_relaxed);
}

Config GetConfig() {
  Config cfg;
  cfg.write_latency_ns = g_write_latency_ns.load(std::memory_order_relaxed);
  cfg.read_latency_ns = g_read_latency_ns.load(std::memory_order_relaxed);
  cfg.barrier_ns = g_barrier_ns.load(std::memory_order_relaxed);
  cfg.model = g_model.load(std::memory_order_relaxed);
  cfg.persistency = g_persistency.load(std::memory_order_relaxed);
  return cfg;
}

void SetMemModel(MemModel model, std::uint64_t barrier_ns) {
  g_model.store(model, std::memory_order_relaxed);
  g_barrier_ns.store(barrier_ns, std::memory_order_relaxed);
}

ThreadStats& Stats() { return t_stats; }

void ResetStats() { t_stats = ThreadStats{}; }

std::uint64_t NowNs() {
#if defined(__x86_64__)
  return static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) /
                                    TscPerNs());
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

void SpinNs(std::uint64_t ns) {
  if (ns == 0) return;
#if defined(__x86_64__)
  const std::uint64_t target =
      __rdtsc() + static_cast<std::uint64_t>(static_cast<double>(ns) *
                                             TscPerNs());
  while (__rdtsc() < target) {
    _mm_pause();
  }
#else
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < end) {
  }
#endif
}

void Clflush(const void* addr) {
  const std::uint64_t t0 = NowNs();
  FlushLine(addr);
  t_stats.flush_lines += 1;
  const std::uint64_t lat = g_write_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNs(lat);
  t_stats.flush_ns += NowNs() - t0;
}

void FlushRange(const void* addr, std::size_t len) {
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = base & ~(kCacheLineSize - 1);
  const std::uintptr_t last = (base + (len ? len : 1) - 1) & ~(kCacheLineSize - 1);
  const std::uint64_t t0 = NowNs();
  const std::uint64_t lat = g_write_latency_ns.load(std::memory_order_relaxed);
  const bool relaxed = g_persistency.load(std::memory_order_relaxed) ==
                       Persistency::kRelaxed;
  for (std::uintptr_t line = first; line <= last; line += kCacheLineSize) {
    FlushLine(reinterpret_cast<const void*>(line));
    t_stats.flush_lines += 1;
    if (lat != 0) SpinNs(lat);
    if (relaxed && line != last) {
      // Relaxed persistency: the flushes themselves may persist out of
      // order, so FAST/FAIR's ordered multi-line persists need a persist
      // barrier between lines (paper §VI). The trailing fence comes from
      // the caller (Persist) or the algorithm's own Fence().
      Sfence();
    }
  }
  t_stats.flush_ns += NowNs() - t0;
}

void Sfence() {
#if defined(__x86_64__)
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  t_stats.fences += 1;
  // On the emulated non-TSO architecture every store fence is a dmb: the
  // baselines' persist points pay the same barrier cost FAST's explicit
  // FenceIfNotTso() calls do (Fig 5(d) methodology).
  if (g_model.load(std::memory_order_relaxed) == MemModel::kNonTso) {
    t_stats.barriers += 1;
    const std::uint64_t lat = g_barrier_ns.load(std::memory_order_relaxed);
    if (lat != 0) SpinNs(lat);
  }
}

void Persist(const void* addr, std::size_t len) {
  FlushRange(addr, len);
  Sfence();
}

void FenceIfNotTso() {
  if (g_model.load(std::memory_order_relaxed) == MemModel::kTso) return;
  // ARM `dmb ishst` surrogate: real fence for correctness plus the configured
  // cost delta (a dmb is far more expensive than x86's implicit ordering).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  t_stats.barriers += 1;
  const std::uint64_t lat = g_barrier_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNs(lat);
}

void AnnotateRead(const void* node) {
  (void)node;
  t_stats.read_annotations += 1;
  t_stats.read_stalls += 1;
  const std::uint64_t lat = g_read_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNs(lat);
}

void AnnotateReadGroup(std::size_t nodes) {
  if (nodes == 0) return;
  t_stats.read_annotations += nodes;
  t_stats.read_stalls += 1;
  const std::uint64_t lat = g_read_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNs(lat);
}

void AnnotateCoveredReads(std::size_t nodes) {
  t_stats.read_annotations += nodes;
}

}  // namespace fastfair::pm
