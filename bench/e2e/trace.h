// Tracing for bench_e2e, recorded from outside the program.
//
// The traced run hands KvService a TracingIndex instead of the real index.
// Every call the service forwards becomes one span (entry, start and end of
// the inner call, ops carried, and the worker's pm::ThreadStats delta,
// which is exact because the pm counters are thread-local). Spans go into
// buffers preallocated per worker thread and never reallocate on the hot
// path; what does not fit is counted as dropped. The load generator records
// a request span (submit -> Completion::complete_ns) for every request whose
// key is Sampled(); the decorator logs which sampled keys each call carried,
// so a request links to the index span that served it.
//
// The decorator hides the inner index from the service's dynamic_cast probe
// wiring, so the benchmark reads probe-cache statistics from the inner
// index itself.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "maint/maintenance.h"
#include "pm/persist.h"
#include "workload.h"

namespace e2e {

namespace pm = fastfair::pm;

/// The index entry points the batched service dispatch calls.
enum class Call : std::uint8_t { kSearchBatch, kInsertBatch, kRemove,
                                 kScanBatch };
inline constexpr int kNumCalls = 4;

inline const char* CallName(Call c) {
  switch (c) {
    case Call::kSearchBatch: return "search_batch";
    case Call::kInsertBatch: return "insert_batch";
    case Call::kRemove: return "remove";
    case Call::kScanBatch: return "scan_batch";
  }
  return "?";
}

/// The call that serves a request of type `op` (service.cc ExecuteGroup).
inline Call CallFor(Op op) {
  switch (op) {
    case Op::kGet: return Call::kSearchBatch;
    case Op::kPut: return Call::kInsertBatch;
    case Op::kDel: return Call::kRemove;
    case Op::kScan: return Call::kScanBatch;
  }
  return Call::kSearchBatch;
}

struct Span {
  std::uint64_t entry_ns, start_ns, end_ns;
  std::uint32_t ops;
  std::uint32_t read_stalls, flush_lines;
  Call call;
};

/// A sampled key an index call carried: (key, span index in the thread's
/// span buffer).
struct KeyLink {
  Key key;
  std::uint32_t span;
};

class TracingIndex final : public fastfair::Index {
 public:
  static constexpr int kMaxThreads = 4;

  /// What one worker thread recorded.
  struct PerThread {
    std::uint64_t calls[kNumCalls] = {};
    std::uint64_t ops[kNumCalls] = {};
    std::uint64_t ns[kNumCalls] = {};
    pm::ThreadStats pm[kNumCalls];
    std::vector<std::uint32_t> dur_ns[kNumCalls];  // per call, capped
    std::vector<Span> spans;      // only calls that carried a sampled key
    std::vector<KeyLink> links;
    std::uint64_t dropped = 0;    // records that did not fit
  };

  explicit TracingIndex(fastfair::Index* inner) : inner_(inner) {}

  /// kOff forwards without recording (the untraced closed-loop slices of
  /// the traced run); kCalls records call aggregates; kCallsAndKeys also
  /// logs sampled keys and stores the spans that carried them (open loop).
  enum Mode : int { kOff, kCalls, kCallsAndKeys };
  void SetMode(Mode m) { mode_.store(m); }

  int threads() const {
    return std::min(next_thread_.load(), kMaxThreads);
  }
  /// Valid once the service that called this index has stopped.
  const PerThread& thread(int i) const { return *per_[i]; }

  void Insert(Key key, Value value) override { inner_->Insert(key, value); }
  bool Remove(Key key) override {
    bool r = false;
    Traced(Call::kRemove, 1, [&](std::size_t) { return key; },
           [&] { r = inner_->Remove(key); });
    return r;
  }
  Value Search(Key key) const override { return inner_->Search(key); }
  std::size_t Scan(Key min_key, std::size_t max_results,
                   fastfair::core::Record* out) const override {
    return inner_->Scan(min_key, max_results, out);
  }
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const override {
    Traced(Call::kSearchBatch, n, [&](std::size_t i) { return keys[i]; },
           [&] { inner_->SearchBatch(keys, n, out); });
  }
  using Index::InsertBatch;
  void InsertBatch(const fastfair::core::Record* ops, std::size_t n,
                   fastfair::InsertStatus* out) override {
    Traced(Call::kInsertBatch, n, [&](std::size_t i) { return ops[i].key; },
           [&] { inner_->InsertBatch(ops, n, out); });
  }
  void ScanBatch(const fastfair::ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override {
    Traced(Call::kScanBatch, n,
           [&](std::size_t i) { return ops[i].min_key; },
           [&] { inner_->ScanBatch(ops, n, out_counts); });
  }
  std::string_view name() const override { return inner_->name(); }
  bool supports_concurrency() const override {
    return inner_->supports_concurrency();
  }
  std::size_t CountEntries() const override { return inner_->CountEntries(); }
  std::unique_ptr<fastfair::ScanIterator> NewScanIterator(
      Key min_key) const override {
    return inner_->NewScanIterator(min_key);
  }

 private:
  static constexpr std::size_t kDurCap = std::size_t{2} << 20;
  static constexpr std::size_t kSpanCap = std::size_t{512} << 10;

  PerThread* Mine() const {
    thread_local const TracingIndex* owner = nullptr;
    thread_local PerThread* mine = nullptr;
    if (owner != this) {
      owner = this;
      const int id = next_thread_.fetch_add(1);
      mine = nullptr;
      if (id < kMaxThreads) {
        // Reserved once: push_back below never reallocates, so recording
        // costs no allocation on the measured path.
        auto t = std::make_unique<PerThread>();
        for (auto& d : t->dur_ns) d.reserve(kDurCap);
        t->spans.reserve(kSpanCap);
        t->links.reserve(kSpanCap);
        mine = t.get();
        per_[id] = std::move(t);
      }
    }
    return mine;
  }

  template <class KeyAt, class Fn>
  void Traced(Call c, std::size_t n, KeyAt&& key_at, Fn&& fn) const {
    const int mode = mode_.load(std::memory_order_relaxed);
    if (mode == kOff) {
      fn();
      return;
    }
    const std::uint64_t entry = pm::NowNs();
    PerThread* t = Mine();
    if (t == nullptr) {
      fn();
      return;
    }
    const auto span = static_cast<std::uint32_t>(t->spans.size());
    bool carried = false;
    if (mode == kCallsAndKeys && t->spans.size() < t->spans.capacity()) {
      for (std::size_t i = 0; i < n; ++i) {
        const Key k = key_at(i);
        if (!Sampled(k)) continue;
        if (t->links.size() < t->links.capacity()) {
          t->links.push_back({k, span});
          carried = true;
        } else {
          ++t->dropped;
        }
      }
    }
    const pm::ThreadStats before = pm::Stats();
    const std::uint64_t start = pm::NowNs();
    fn();
    const std::uint64_t end = pm::NowNs();
    const pm::ThreadStats d = pm::Stats() - before;
    const int ci = static_cast<int>(c);
    t->calls[ci] += 1;
    t->ops[ci] += n;
    t->ns[ci] += end - start;
    t->pm[ci] += d;
    std::vector<std::uint32_t>& dur = t->dur_ns[ci];
    if (dur.size() < dur.capacity()) {
      dur.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(end - start, UINT32_MAX)));
    } else {
      ++t->dropped;
    }
    if (carried) {
      t->spans.push_back({entry, start, end, static_cast<std::uint32_t>(n),
                          static_cast<std::uint32_t>(d.read_stalls),
                          static_cast<std::uint32_t>(d.flush_lines), c});
    }
  }

  fastfair::Index* inner_;
  mutable std::unique_ptr<PerThread> per_[kMaxThreads];
  mutable std::atomic<int> next_thread_{0};
  std::atomic<int> mode_{kOff};
};

/// Times every quantum of the wrapped task; the scheduler accounts quanta
/// and useful work on this object (MaintenanceTask::stats()).
class TimedTask final : public fastfair::maint::MaintenanceTask {
 public:
  explicit TimedTask(std::unique_ptr<MaintenanceTask> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  fastfair::maint::QuantumResult RunQuantum() override {
    const std::uint64_t t0 = pm::NowNs();
    const fastfair::maint::QuantumResult r = inner_->RunQuantum();
    busy_ns_.fetch_add(pm::NowNs() - t0, std::memory_order_relaxed);
    return r;
  }
  void OnPassBegin() override { inner_->OnPassBegin(); }

  std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<MaintenanceTask> inner_;
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// A request whose key was Sampled(), timed by the load generator.
struct SampledRequest {
  Key key;
  Op op;
  std::uint64_t submit_ns, complete_ns;
};

struct SpanRef {
  int thread = -1;  // -1 = not linked
  std::uint32_t span = 0;
};

/// Links each request to the index span of the matching call that carried
/// its key inside the request's [submit, complete] interval.
inline std::vector<SpanRef> LinkRequests(
    const TracingIndex& ti, const std::vector<SampledRequest>& reqs) {
  struct Entry {
    Key key;
    int thread;
    std::uint32_t span;
  };
  std::vector<Entry> all;
  for (int t = 0; t < ti.threads(); ++t) {
    for (const KeyLink& l : ti.thread(t).links) {
      all.push_back({l.key, t, l.span});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  std::vector<SpanRef> out(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const SampledRequest& r = reqs[i];
    auto it = std::lower_bound(
        all.begin(), all.end(), r.key,
        [](const Entry& e, Key k) { return e.key < k; });
    for (; it != all.end() && it->key == r.key; ++it) {
      const Span& s = ti.thread(it->thread).spans[it->span];
      if (s.call == CallFor(r.op) && s.start_ns >= r.submit_ns &&
          s.end_ns <= r.complete_ns) {
        out[i] = {it->thread, it->span};
        break;
      }
    }
  }
  return out;
}

/// Writes the first `max_requests` sampled requests and the index spans
/// they link to as Chrome trace-event JSON (chrome://tracing, Perfetto).
inline bool WriteChromeTrace(const std::string& path, const TracingIndex& ti,
                             const std::vector<SampledRequest>& reqs,
                             const std::vector<SpanRef>& links,
                             std::size_t max_requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(max_requests, reqs.size());
  const std::uint64_t base = n == 0 ? 0 : reqs[0].submit_ns;
  auto us = [base](std::uint64_t ns) {
    return static_cast<double>(static_cast<std::int64_t>(ns - base)) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"load generator\"}}");
  for (int t = 0; t < ti.threads(); ++t) {
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"service worker %d\"}}",
                 t + 1, t);
  }
  std::set<std::pair<int, std::uint32_t>> spans;
  for (std::size_t i = 0; i < n; ++i) {
    const SampledRequest& r = reqs[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"key\":\"%llu\"",
                 OpName(r.op), us(r.submit_ns),
                 us(r.complete_ns) - us(r.submit_ns),
                 static_cast<unsigned long long>(r.key));
    if (links[i].thread >= 0) {
      std::fprintf(f, ",\"index_span\":\"%d/%u\"", links[i].thread,
                   links[i].span);
      spans.insert({links[i].thread, links[i].span});
    }
    std::fprintf(f, "}}");
  }
  for (const auto& [t, idx] : spans) {
    const Span& s = ti.thread(t).spans[idx];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"index\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":\"%d/%u\",\"ops\":%u,\"entry_us\":%.3f,"
                 "\"read_stalls\":%u,\"flush_lines\":%u}}",
                 CallName(s.call), t + 1, us(s.start_ns),
                 us(s.end_ns) - us(s.start_ns), t, idx, s.ops,
                 us(s.entry_ns), s.read_stalls, s.flush_lines);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
