// Workload table, key generation and result checks for bench_e2e.
//
// Every input the program sees is generated here from --seed (KeySpace):
// keys are distinct, cover the whole 64-bit space (range sharding applies)
// and differ from seed to seed. Values follow the repo-wide convention
// bench::ValueFor(k) = 2k+1, which lets every reply be checked without a
// reference copy of the data.

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/runner.h"
#include "bench/workload.h"
#include "common/defs.h"
#include "common/rng.h"
#include "core/node.h"
#include "server/service.h"

namespace e2e {

using fastfair::Key;
using fastfair::Rng;
using fastfair::Value;
using fastfair::bench::ValueFor;

enum class Op : std::uint8_t { kGet, kPut, kDel, kScan };
inline constexpr int kNumOps = 4;
inline constexpr std::uint32_t kScanLen = 100;

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kDel: return "del";
    case Op::kScan: return "scan";
  }
  return "?";
}

struct Workload {
  const char* name;
  const char* kind;            // index registry kind (index/index.h)
  std::uint64_t universe;      // ranks keys are generated for
  std::uint64_t live;          // ranks [0, live) are preloaded
  double theta;                // zipf skew over ranks; 0 = uniform
  std::uint32_t mix[kNumOps];  // relative weights of Get, Put, Del, Scan
  // Sliding window (write-churn): Puts append the next fresh rank, Dels
  // retire the oldest live rank, Gets read a live rank. Otherwise every
  // op draws a rank from [0, live).
  bool window;
  bool gets_must_hit;  // no op ever removes a key
  bool maintenance;    // background maintenance thread on
  // Closed-loop capacity the op count is sized from, and the fixed
  // open-loop rate of the heavy phase (about 40 % of that capacity on a
  // 4-CPU Xeon). Fixed numbers, not measured per run: a slower build then
  // shows as longer closed-loop time and higher heavy-phase latency
  // instead of moving its own load.
  double closed_kops;
  double heavy_kops;
};

// Live keys per workload: 122x the probe cache's 16 K entries, and small
// enough that three setups per run fit the run-time budget.
inline constexpr std::uint64_t kKeys = 2'000'000;

// Why each workload exists is recorded in README.md; in short:
//   point-read-uniform  descent + in-node search; working set far beyond
//                       the 16 K-entry probe cache, which is bypassed
//   mixed-zipf          the paper's 16:4:1 Mixed ratio under skew; the hot
//                       set fits the probe cache, writes invalidate it
//   scan-range          leaf-chain drains and ScanBatch seam continuation
//   write-churn         alloc/free/recycle, splits, run-unlinking and the
//                       background maintenance thread. Its window retires
//                       whole key ranges: uniform Put/Del churn never
//                       empties a leaf, so nothing would be reclaimed.
//                       Its head advances ~155 K ranks per second of run
//                       (45 % of the fixed op counts and rates), so the
//                       16 M-rank universe covers --seconds 60 with room
//                       to spare.
inline const Workload kWorkloads[] = {
    {"point-read-uniform", "hashed-fastfair:8", kKeys, kKeys, 0.0,
     {1, 0, 0, 0}, false, true, false, 1400, 560},
    {"mixed-zipf", "hashed-fastfair:8", kKeys, kKeys, 0.99, {16, 4, 1, 0},
     false, false, false, 1400, 560},
    {"scan-range", "sharded-fastfair:8", kKeys, kKeys, 0.0, {0, 1, 0, 9},
     false, true, false, 650, 260},
    {"write-churn", "sharded-fastfair-reclaim:8", 8 * kKeys, kKeys, 0.0,
     {10, 45, 45, 0}, true, false, true, 750, 300},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// splitmix64 finalizer.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded rank -> key mapping. Rank r occupies slot Slot(r) of `universe`
/// equal slices of the key space and gets a seeded key strictly inside it,
/// so keys are distinct and each key maps back to one rank. For a window
/// workload, consecutive ranks are striped across kStripes equal key
/// ranges (one per range shard), so the window's head and tail move
/// through every shard at once and no shard runs hot.
class KeySpace {
 public:
  static constexpr std::uint64_t kStripes = 8;

  KeySpace(const Workload& w, std::uint64_t seed)
      : universe_(w.universe), stride_(~std::uint64_t{0} / w.universe),
        seed_(Mix(seed)), striped_(w.window) {}

  Key KeyOf(std::uint64_t rank) const {
    return Slot(rank) * stride_ + 1 + Mix(seed_ ^ rank) % (stride_ - 1);
  }

  /// True when `k` is a key this space generates.
  bool Contains(Key k) const {
    const std::uint64_t slot = k / stride_;
    if (slot >= universe_) return false;
    const std::uint64_t per = universe_ / kStripes;
    const std::uint64_t rank =
        striped_ ? (slot % per) * kStripes + slot / per : slot;
    return KeyOf(rank) == k;
  }

 private:
  std::uint64_t Slot(std::uint64_t rank) const {
    return striped_ ? (rank % kStripes) * (universe_ / kStripes) +
                          rank / kStripes
                    : rank;
  }

  std::uint64_t universe_;
  std::uint64_t stride_;
  std::uint64_t seed_;
  bool striped_;
};

/// Requests whose key hashes into this 1-in-16 class are traced end to end
/// (request span linked to the index call that served it).
inline bool Sampled(Key k) { return (Mix(k ^ 0x5eedull) >> 60) == 0; }

/// The preloaded keys (ranks [0, live)), in a seeded random insertion order.
inline std::vector<Key> PreloadKeys(const Workload& w, const KeySpace& ks,
                                    std::uint64_t seed) {
  std::vector<Key> keys;
  keys.reserve(w.live);
  for (std::uint64_t r = 0; r < w.live; ++r) keys.push_back(ks.KeyOf(r));
  Rng rng(seed ^ 0x10adull);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  return keys;
}

/// Live rank range [tail, head) of a window workload, shared by every op
/// stream of the run (all draw on the generator thread).
struct Window {
  std::uint64_t tail = 0, head = 0;
};

struct Request {
  Op op;
  Key key;
};

/// Draws the workload's op stream: op type by mix weight, rank uniform or
/// zipfian over the live ranks, or from the window for window workloads.
class OpStream {
 public:
  /// `zipf` (nullptr = uniform ranks) keeps no per-draw state, so one
  /// generator serves every stream; `window` is required for window
  /// workloads and ignored otherwise.
  OpStream(const Workload& w, const KeySpace& ks,
           fastfair::bench::ZipfianGenerator* zipf, Window* window,
           std::uint64_t seed)
      : ks_(ks), zipf_(zipf), window_(w.window ? window : nullptr),
        rng_(seed), live_(w.live), universe_(w.universe) {
    std::uint32_t sum = 0;
    for (int i = 0; i < kNumOps; ++i) cum_[i] = sum += w.mix[i];
  }

  Request Next() {
    const auto pick = static_cast<std::uint32_t>(rng_.NextBounded(cum_[3]));
    int op = 0;
    while (pick >= cum_[op]) ++op;
    std::uint64_t rank;
    if (window_ != nullptr) {
      Window& win = *window_;
      if (op == static_cast<int>(Op::kPut)) {
        // Past the universe KeyOf would leave the key space it checks
        // against; fail the run rather than report keys as wrong.
        if (win.head == universe_) {
          throw std::length_error("window reached the end of the universe");
        }
        rank = win.head++;
      } else if (op == static_cast<int>(Op::kDel) && win.tail < win.head) {
        rank = win.tail++;
      } else {
        rank = win.head > win.tail
                   ? win.tail + rng_.NextBounded(win.head - win.tail)
                   : win.tail;
      }
    } else {
      rank = zipf_ != nullptr ? zipf_->Next(rng_) : rng_.NextBounded(live_);
    }
    return {static_cast<Op>(op), ks_.KeyOf(rank)};
  }

  Rng& rng() { return rng_; }

 private:
  const KeySpace& ks_;
  fastfair::bench::ZipfianGenerator* zipf_;
  Window* window_;
  Rng rng_;
  std::uint64_t live_;
  std::uint64_t universe_;
  std::uint32_t cum_[kNumOps];
};

/// One in-flight request of a load generator: its completion slot and,
/// for scans, the client-owned result buffer.
struct Slot {
  fastfair::server::Completion done;
  Request req{};
  std::uint64_t due_ns = 0;     // scheduled arrival (open loop)
  std::uint64_t submit_ns = 0;  // actual submit time
  std::unique_ptr<fastfair::core::Record[]> scan_out;
};

inline bool Submit(fastfair::server::Session* s, Slot* slot) {
  const Request& r = slot->req;
  switch (r.op) {
    case Op::kGet: return s->Get(r.key, &slot->done);
    case Op::kPut: return s->Put(r.key, ValueFor(r.key), &slot->done);
    case Op::kDel: return s->Del(r.key, &slot->done);
    case Op::kScan:
      return s->Scan(r.key, kScanLen, slot->scan_out.get(), &slot->done);
  }
  return false;
}

/// True when `n` scan results are ascending from `from` on, with valid
/// values.
inline bool ScanValid(const fastfair::core::Record* recs, std::size_t n,
                      Key from) {
  for (std::size_t i = 0; i < n; ++i) {
    if (recs[i].key < from || recs[i].ptr != ValueFor(recs[i].key)) {
      return false;
    }
    from = recs[i].key + 1;
  }
  return true;
}

enum class Outcome : std::uint8_t { kOk, kFailed, kWrong };

/// Validates one completed request. kFailed = rejected or expired by the
/// service (counted in failed_frac); kWrong = a result the index must
/// never return.
inline Outcome Check(const Workload& w, const Slot& slot) {
  using fastfair::server::ReqStatus;
  const ReqStatus st = slot.done.status();
  if (st >= ReqStatus::kRejectedQueueFull) return Outcome::kFailed;
  const Key k = slot.req.key;
  switch (slot.req.op) {
    case Op::kGet:
      if (st == ReqStatus::kOk) {
        return slot.done.value() == ValueFor(k) ? Outcome::kOk
                                                : Outcome::kWrong;
      }
      return st == ReqStatus::kNotFound && !w.gets_must_hit
                 ? Outcome::kOk
                 : Outcome::kWrong;
    case Op::kPut:
      return st == ReqStatus::kInserted || st == ReqStatus::kUpdated
                 ? Outcome::kOk
                 : Outcome::kWrong;
    case Op::kDel:
      return st == ReqStatus::kOk || st == ReqStatus::kNotFound
                 ? Outcome::kOk
                 : Outcome::kWrong;
    case Op::kScan: {
      const std::uint32_t n = slot.done.scan_count();
      return st == ReqStatus::kOk && n <= kScanLen &&
                     ScanValid(slot.scan_out.get(), n, k)
                 ? Outcome::kOk
                 : Outcome::kWrong;
    }
  }
  return Outcome::kWrong;
}

}  // namespace e2e
