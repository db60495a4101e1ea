// Common type definitions shared by every fastfair subsystem.
//
// The paper's structures index 8-byte keys against 8-byte pointers; 8 bytes is
// the unit of failure-atomic stores on the target architectures, so both Key
// and Value are fixed 64-bit types rather than template parameters.  Value 0
// is reserved: it doubles as the "empty slot" terminator inside tree nodes
// (the paper scans `records[i].ptr != NULL`) and as the "not found" result.

#pragma once

#include <cstddef>
#include <cstdint>

namespace fastfair {

using Key = std::uint64_t;
using Value = std::uint64_t;

/// Reserved value meaning "no entry" / "not found".
inline constexpr Value kNoValue = 0;

/// Per-op outcome of a batched upsert (Index::InsertBatch with a status
/// array, core::BTreeT::InsertBatch): whether the op created its key or
/// overwrote an existing entry. Shared vocabulary between the core tree,
/// the index tier, and the service tier's Put replies. kNoSpace means the
/// pool could not supply the split the op needed: the key was NOT inserted,
/// the structure is untouched and stays fully valid, and the op may be
/// retried once capacity returns (the service tier's degraded mode maps it
/// to ReqStatus::kRejectedCapacity).
enum class InsertStatus : std::uint8_t { kInserted, kUpdated, kNoSpace };

namespace core {
/// One {key, ptr} pair: a node record (core/node.h), a scan result, an
/// upsert op.
struct Record {
  std::uint64_t key;
  std::uint64_t ptr;
};
static_assert(sizeof(Record) == 16);
}  // namespace core

/// One entry of a batched range scan (BTreeT::ScanBatch, Index::ScanBatch):
/// collect up to `cap` records with key >= min_key, ascending, into the
/// caller-owned `out` buffer. Shared vocabulary between the core tree, the
/// index tier, the service tier's Scan requests, and TPC-C's grouped
/// ORDER-LINE reads.
struct ScanOp {
  Key min_key = 0;
  std::size_t cap = 0;
  core::Record* out = nullptr;
};

/// One class-ordered batch of point ops (core::BTreeT::PointBatch,
/// Index::PointBatch): the puts run first, in order, then the deletes, then
/// the gets, with exactly the per-op results of InsertBatch(puts),
/// RemoveBatch(dels) and SearchBatch(gets) called in that sequence — a get
/// observes every put and delete of its batch. Op i of the batch is the
/// i-th of the concatenation puts ++ dels ++ gets. `put_out` may be null.
struct PointOps {
  const core::Record* puts = nullptr;
  std::size_t n_puts = 0;
  InsertStatus* put_out = nullptr;
  const Key* dels = nullptr;
  std::size_t n_dels = 0;
  bool* del_out = nullptr;
  const Key* gets = nullptr;
  std::size_t n_gets = 0;
  Value* get_out = nullptr;

  std::size_t size() const { return n_puts + n_dels + n_gets; }

  /// The key of op i.
  Key KeyAt(std::size_t i) const {
    if (i < n_puts) return puts[i].key;
    i -= n_puts;
    return i < n_dels ? dels[i] : gets[i - n_dels];
  }

  /// Ops [i, i + g) as a batch of their own.
  PointOps Slice(std::size_t i, std::size_t g) const {
    // Where op x falls in the span that starts at op lo, clamped to it.
    const auto at = [](std::size_t x, std::size_t lo, std::size_t len) {
      return x <= lo ? 0 : x - lo < len ? x - lo : len;
    };
    const std::size_t e = i + g, d = n_puts, q = n_puts + n_dels;
    const std::size_t p0 = at(i, 0, n_puts), d0 = at(i, d, n_dels),
                      q0 = at(i, q, n_gets);
    PointOps s = *this;
    s.puts += p0;
    if (s.put_out != nullptr) s.put_out += p0;
    s.n_puts = at(e, 0, n_puts) - p0;
    s.dels += d0;
    s.del_out += d0;
    s.n_dels = at(e, d, n_dels) - d0;
    s.gets += q0;
    s.get_out += q0;
    s.n_gets = at(e, q, n_gets) - q0;
    return s;
  }
};

/// Size of a CPU cache line; the unit of transfer between cache and PM.
inline constexpr std::size_t kCacheLineSize = 64;

/// Unit of failure-atomic stores (one word on x86-64).
inline constexpr std::size_t kAtomicWriteSize = 8;

/// Rounds `n` up to the next multiple of `align` (power of two).
constexpr std::size_t AlignUp(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

#if defined(__GNUC__) || defined(__clang__)
#define FASTFAIR_LIKELY(x) __builtin_expect(!!(x), 1)
#define FASTFAIR_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define FASTFAIR_LIKELY(x) (x)
#define FASTFAIR_UNLIKELY(x) (x)
#endif

}  // namespace fastfair
