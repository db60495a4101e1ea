// bench_e2e: the end-to-end KV-service benchmark (README.md beside this
// file explains every workload and metric).
//
//   bench_e2e --workload=<name> --seed=<u64> [--seconds=<n>] [--trace=<file>]
//
// One process, at most four threads, each pinned to its own CPU: this load
// generator, two KvService workers, and one maintenance thread
// (write-churn only). Emulated PM is 300 ns per flushed line and per
// serial node read, under the default strict persistency. Phases, all on
// one loaded index:
//
//   setup      LoadIndex(batch=256) of the preload at DRAM speed, then
//              service start; repeated three times (the last build serves
//              the run) and reported as the median
//   warm-up    1 s closed loop, untimed: fills the probe cache and arenas
//   rounds     eight, each running one slice of every phase below, so
//              each phase samples the whole run:
//     closed   256 sessions, 256 requests in flight, fixed op count sized
//              to 35 % of the round -> throughput
//     light    open loop, Poisson arrivals at 20 Kops/s for 40 % of the
//              round: the worker idle/wake-up path, groups of ~1 op
//     heavy    open loop, Poisson arrivals at the workload's fixed rate
//              (~40 % of closed-loop capacity) for 25 % of the round:
//              where groups form
//
// Open-loop latency runs from each request's scheduled arrival, so a
// stalled service is charged for the requests queued behind the stall; the
// generator's own lateness is reported beside it. Percentiles are exact
// per slice; every phase metric is the median over its eight slices.
// Every reply is checked (workload.h Check) and the index is verified by
// a full scan at the end; a wrong result exits 1.
//
// --trace=<file> is the traced run: the service serves through the
// TracingIndex decorator (trace.h), and each round's closed slice is split
// into a half with recording off and a half with it on, whose difference
// is trace_overhead_frac; the per-layer metrics come from the decorator,
// the service counters, the timed maintenance tasks and the rung pass
// (rungs.h); sampled requests and their index spans are written to <file>
// as Chrome trace-event JSON.
//
// Output: one "name value unit" line per metric, then one JSON object.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/types.h>

#include "bench/runner.h"
#include "bench/workload.h"
#include "common/simd.h"
#include "index/hash_sharded.h"
#include "index/index.h"
#include "maint/maintenance.h"
#include "maint/tasks.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "rungs.h"
#include "server/service.h"
#include "trace.h"
#include "workload.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;
namespace server = fastfair::server;
namespace maint = fastfair::maint;

constexpr std::size_t kSessions = 256;  // = closed-loop requests in flight
constexpr std::size_t kRing = 8192;     // open-loop in-flight bound
constexpr double kLightKops = 20;
constexpr int kRounds = 8;
constexpr int kSetupReps = 3;
constexpr std::size_t kTraceRequests = 20000;  // written to the trace file
// CPU slots of the thread layout: generator, two workers, maintenance.
constexpr std::size_t kWorkerCpu = 1;
constexpr std::size_t kMaintCpu = 3;

inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

// ---------------------------------------------------------------------------
// Host layout. Each thread runs on its own CPU so cross-core traffic takes
// the same path in every run; without it the scheduler's placement moved
// closed-loop throughput by up to 8 % between runs of one seed.

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

/// Pins thread `tid` (0 = the caller) to CPU slot `slot` of AllowedCpus().
void Pin(pid_t tid, std::size_t slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
    }
    closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// Pins the threads started since the `before` snapshot to consecutive
/// CPU slots from `slot` on, in thread-id (creation) order.
void PinNewThreads(const std::vector<pid_t>& before, std::size_t slot) {
  for (const pid_t tid : ThreadIds()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      Pin(tid, slot++);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    std::printf("%s %.6g %s\n", name.c_str(), value, unit);
    metrics_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string s = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics_[i].name.c_str(), metrics_[i].value,
                    metrics_[i].unit);
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

/// Exact nearest-rank percentile; reorders `v`.
double Percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The served stack

/// Members are declared in dependency order, so destruction (reverse
/// order) stops the service and maintenance before the index and pool go.
struct Stack {
  std::unique_ptr<fastfair::pm::Pool> pool;
  std::unique_ptr<fastfair::Index> index;
  std::unique_ptr<TracingIndex> tracer;
  std::unique_ptr<maint::MaintenanceThread> maint;
  std::vector<TimedTask*> tasks;  // owned by `maint`
  std::unique_ptr<server::KvService> svc;
  std::vector<server::Session*> sessions;

  void Reset() {
    sessions.clear();
    svc.reset();
    tasks.clear();
    maint.reset();
    tracer.reset();
    index.reset();
    pool.reset();
  }

  void StartService(fastfair::Index* served) {
    server::ServiceOptions so;
    so.workers = 2;
    so.queue_depth = 128;
    so.max_sessions = kSessions;
    svc = std::make_unique<server::KvService>(served, so);
    sessions.clear();
    for (std::size_t i = 0; i < kSessions; ++i) {
      sessions.push_back(svc->OpenSession(i));
    }
    const std::vector<pid_t> before = ThreadIds();
    svc->Start();
    PinNewThreads(before, kWorkerCpu);
  }

  void StartMaintenance() {
    maint = std::make_unique<maint::MaintenanceThread>();
    std::vector<std::unique_ptr<maint::MaintenanceTask>> all;
    all.push_back(std::make_unique<maint::PoolDrainTask>(pool.get()));
    index->CollectMaintenanceTasks(maint::TaskOptions{}, &all);
    for (auto& t : all) {
      auto timed = std::make_unique<TimedTask>(std::move(t));
      tasks.push_back(timed.get());
      maint->AddTask(std::move(timed));
    }
    const std::vector<pid_t> before = ThreadIds();
    maint->Start();
    PinNewThreads(before, kMaintCpu);
  }
};

// ---------------------------------------------------------------------------
// Load generation

struct Counts {
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
};

Outcome Tally(const Workload& w, const Slot& s, Counts* c) {
  const Outcome o = Check(w, s);
  ++c->attempted;
  if (o == Outcome::kFailed) ++c->failed;
  if (o == Outcome::kWrong) {
    if (c->wrong == 0) {
      std::fprintf(stderr, "bench_e2e: wrong %s result for key %llu\n",
                   OpName(s.req.op),
                   static_cast<unsigned long long>(s.req.key));
    }
    ++c->wrong;
  }
  return o;
}

std::vector<Slot> MakeSlots(const Workload& w, std::size_t n) {
  std::vector<Slot> slots(n);
  if (w.mix[static_cast<int>(Op::kScan)] != 0) {
    for (Slot& s : slots) {
      s.scan_out = std::make_unique<fastfair::core::Record[]>(kScanLen);
    }
  }
  return slots;
}

/// Closed loop: slot i % 256 rides session i % 256, and its next request
/// is sent only once its previous one completed. Stops after `max_ops`
/// or `max_ns`, whichever comes first; returns the rate in Kops/s.
double RunClosed(const Workload& w, Stack& st, std::vector<Slot>& win,
                 OpStream& ops, std::size_t max_ops, std::uint64_t max_ns,
                 Counts* c) {
  const std::size_t n = win.size();
  const std::uint64_t t0 = fastfair::pm::NowNs();
  const std::uint64_t deadline = max_ns == 0 ? UINT64_MAX : t0 + max_ns;
  std::size_t i = 0;
  for (; i < max_ops; ++i) {
    if ((i & 1023) == 0 && fastfair::pm::NowNs() >= deadline) break;
    Slot& s = win[i % n];
    if (i >= n) {
      s.done.Wait();
      Tally(w, s, c);
      s.done.Reset();
    }
    s.req = ops.Next();
    Submit(st.sessions[i % n], &s);
  }
  for (std::size_t j = i > n ? i - n : 0; j < i; ++j) {
    Slot& s = win[j % n];
    s.done.Wait();
    Tally(w, s, c);
    s.done.Reset();
  }
  return Ratio(static_cast<double>(i) * 1e6,
               static_cast<double>(fastfair::pm::NowNs() - t0));
}

/// Latency series of one open-loop phase: per op class (write = Put or
/// Del), all ops, and the generator's lateness. Each slice appends its
/// p50 and p99; the phase reports the median over slices.
struct Open {
  enum Series { kGet, kWrite, kScan, kAll, kLate, kSeries };
  static constexpr const char* kNames[] = {"get", "write", "scan", "",
                                           "lateness"};
  std::vector<double> p50[kSeries], p99[kSeries];
  std::size_t samples[kSeries] = {};
  std::size_t issued = 0;
  double seconds = 0;
  std::vector<std::uint32_t> buf[kSeries];  // the running slice, in ns

  void Reserve(double kops, double slice_seconds) {
    const auto n = static_cast<std::size_t>(kops * 1e3 * slice_seconds * 1.3);
    for (auto& b : buf) b.reserve(n + 1024);
  }

  void EndSlice() {
    for (int s = kGet; s <= kScan; ++s) {
      buf[kAll].insert(buf[kAll].end(), buf[s].begin(), buf[s].end());
    }
    for (int s = 0; s < kSeries; ++s) {
      if (buf[s].empty()) continue;
      samples[s] += buf[s].size();
      p50[s].push_back(Percentile(buf[s], 0.50) / 1e3);
      p99[s].push_back(Percentile(buf[s], 0.99) / 1e3);
      buf[s].clear();
    }
  }
};

Open::Series SeriesOf(Op op) {
  switch (op) {
    case Op::kGet: return Open::kGet;
    case Op::kPut:
    case Op::kDel: return Open::kWrite;
    case Op::kScan: return Open::kScan;
  }
  return Open::kGet;
}

/// One open-loop slice: Poisson arrivals at `kops` for `seconds`, latency
/// from each scheduled arrival to Completion::complete_ns. Completions are
/// harvested in submission order while the generator waits for the next
/// arrival; the slice ends when every request it sent has completed.
void RunOpen(const Workload& w, Stack& st, std::vector<Slot>& ring,
             OpStream& ops, double kops, double seconds, Counts* c,
             Open* out, std::vector<SampledRequest>* sampled) {
  namespace pm = fastfair::pm;
  const double mean_gap_ns = 1e6 / kops;
  const std::size_t r = ring.size();
  std::size_t issued = 0, harvested = 0;
  const std::uint64_t t0 = pm::NowNs();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);

  auto harvest = [&](Slot& s) {
    if (Tally(w, s, c) == Outcome::kOk) {
      const std::uint64_t lat = s.done.complete_ns() - s.due_ns;
      out->buf[SeriesOf(s.req.op)].push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(lat, UINT32_MAX)));
      if (sampled != nullptr && Sampled(s.req.key)) {
        sampled->push_back({s.req.key, s.req.op, s.submit_ns,
                            s.done.complete_ns()});
      }
    }
    s.done.Reset();
  };

  double next = static_cast<double>(t0);
  for (;;) {
    const auto due = static_cast<std::uint64_t>(next);
    if (due >= end) break;
    for (;;) {
      while (harvested < issued && ring[harvested % r].done.done()) {
        harvest(ring[harvested++ % r]);
      }
      if (pm::NowNs() >= due) break;
      CpuRelax();
    }
    if (issued - harvested == r) {  // ring full: the service fell behind
      ring[harvested % r].done.Wait();
      harvest(ring[harvested++ % r]);
    }
    Slot& s = ring[issued % r];
    s.req = ops.Next();
    s.due_ns = due;
    s.submit_ns = pm::NowNs();
    out->buf[Open::kLate].push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.submit_ns - due, UINT32_MAX)));
    Submit(st.sessions[issued % st.sessions.size()], &s);
    ++issued;
    next += -std::log(1.0 - ops.rng().NextDouble()) * mean_gap_ns;
  }
  while (harvested < issued) {
    ring[harvested % r].done.Wait();
    harvest(ring[harvested++ % r]);
  }
  out->issued += issued;
  out->seconds += seconds;
  out->EndSlice();
}

void ReportOpen(const std::string& phase, const Open& o, Report* rep) {
  for (int s = 0; s < Open::kSeries; ++s) {
    if (o.samples[s] == 0) continue;
    std::string base = phase + ".";
    if (s != Open::kAll) {
      base += Open::kNames[s];
      base += '_';
    }
    rep->Add(base + "p50_us", Median(o.p50[s]), "us");
    rep->Add(base + "p99_us", Median(o.p99[s]), "us");
    if (s != Open::kLate) {
      rep->Add(base + "samples", static_cast<double>(o.samples[s]), "count");
    }
  }
  rep->Add(phase + ".offered_kops",
           static_cast<double>(o.issued) / o.seconds / 1e3, "Kops/s");
}

// ---------------------------------------------------------------------------
// Checks and per-layer reporting

/// Full-index scan at quiescence: ascending, every key one this run
/// generated, every value ValueFor(key), and the count CountEntries()
/// reports, which must be `expected` when that is known (SIZE_MAX if not).
bool FinalCheck(const KeySpace& ks, const fastfair::Index& idx,
                std::size_t expected, std::size_t* entries) {
  auto it = idx.NewScanIterator(0);
  fastfair::core::Record rec{};
  Key prev = 0;
  std::size_t n = 0;
  bool ok = true;
  while (it->Next(&rec)) {
    ok &= (n == 0 || rec.key > prev) && rec.ptr == ValueFor(rec.key) &&
          ks.Contains(rec.key);
    prev = rec.key;
    ++n;
  }
  it.reset();
  *entries = idx.CountEntries();
  ok &= *entries == n;
  if (expected != SIZE_MAX) ok &= n == expected;
  return ok;
}

struct ProbeCounts {
  double hits = 0, misses = 0, installs = 0, stale_aborts = 0;
};

/// Probe-tier counters of a hashed index (zeros for other kinds). Resolved
/// through a template so the benchmark still builds if the tier is removed.
template <class Hashed = fastfair::HashShardedIndex>
ProbeCounts ProbeCountsOf(const fastfair::Index* idx) {
  ProbeCounts p;
  if constexpr (requires(const Hashed& h) { h.ProbeCacheStats(); }) {
    if (const auto* h = dynamic_cast<const Hashed*>(idx)) {
      const auto s = h->ProbeCacheStats();
      p = {static_cast<double>(s.hits), static_cast<double>(s.misses),
           static_cast<double>(s.installs),
           static_cast<double>(s.stale_aborts)};
    }
  }
  return p;
}

void ReportIndexLayer(const TracingIndex& ti, Report* rep) {
  std::vector<std::uint32_t> all;
  double ops[kNumCalls] = {}, ns[kNumCalls] = {};
  fastfair::pm::ThreadStats pm[kNumCalls];
  std::uint64_t dropped = 0;
  for (int c = 0; c < kNumCalls; ++c) {
    std::vector<std::uint32_t> dur;
    for (int t = 0; t < ti.threads(); ++t) {
      const TracingIndex::PerThread& pt = ti.thread(t);
      dur.insert(dur.end(), pt.dur_ns[c].begin(), pt.dur_ns[c].end());
      ops[c] += static_cast<double>(pt.ops[c]);
      ns[c] += static_cast<double>(pt.ns[c]);
      pm[c] += pt.pm[c];
    }
    all.insert(all.end(), dur.begin(), dur.end());
    if (dur.empty()) continue;
    const std::string base =
        std::string("index.") + CallName(static_cast<Call>(c)) + "_us";
    rep->Add(base + ".p50", Percentile(dur, 0.50) / 1e3, "us");
    rep->Add(base + ".p99", Percentile(dur, 0.99) / 1e3, "us");
  }
  for (int t = 0; t < ti.threads(); ++t) dropped += ti.thread(t).dropped;
  rep->Add("index.call_us.p50", Percentile(all, 0.50) / 1e3, "us");
  rep->Add("index.call_us.p99", Percentile(all, 0.99) / 1e3, "us");

  const int kS = static_cast<int>(Call::kSearchBatch);
  const int kI = static_cast<int>(Call::kInsertBatch);
  const int kR = static_cast<int>(Call::kRemove);
  const int kC = static_cast<int>(Call::kScanBatch);
  const char* per_op[] = {"get", "put", "del", "scan"};
  const int call_of[] = {kS, kI, kR, kC};
  double total_ops = 0, total_ns = 0, total_stalls = 0, total_nodes = 0;
  for (int i = 0; i < kNumCalls; ++i) {
    const int c = call_of[i];
    total_ops += ops[c];
    total_ns += ns[c];
    total_stalls += static_cast<double>(pm[c].read_stalls);
    total_nodes += static_cast<double>(pm[c].read_annotations);
    if (ops[c] == 0) continue;
    rep->Add(std::string("index.ns_per_") + per_op[i], ns[c] / ops[c], "ns");
  }
  rep->Add("index.ns_per_op", Ratio(total_ns, total_ops), "ns");
  rep->Add("pm.read_stalls_per_op", Ratio(total_stalls, total_ops), "count");
  rep->Add("pm.nodes_read_per_op", Ratio(total_nodes, total_ops), "count");
  for (const int c : {kS, kC}) {
    if (ops[c] == 0) continue;
    const char* op = c == kS ? "get" : "scan";
    rep->Add(std::string("pm.read_stalls_per_") + op,
             static_cast<double>(pm[c].read_stalls) / ops[c], "count");
    rep->Add(std::string("pm.nodes_read_per_") + op,
             static_cast<double>(pm[c].read_annotations) / ops[c], "count");
  }
  const double writes = ops[kI] + ops[kR];
  if (writes != 0) {
    const fastfair::pm::ThreadStats wr = pm[kI] + pm[kR];
    const double lines = static_cast<double>(wr.flush_lines);
    rep->Add("pm.flush_lines_per_write", lines / writes, "count");
    rep->Add("pm.fences_per_write", static_cast<double>(wr.fences) / writes,
             "count");
    rep->Add("pm.flush_us_per_write",
             static_cast<double>(wr.flush_ns) / 1e3 / writes, "us");
    rep->Add("pm.flushed_bytes_per_user_byte",
             lines * static_cast<double>(fastfair::kCacheLineSize) /
                 (writes * 16),
             "ratio");
    rep->Add("pm.allocs_per_write", static_cast<double>(wr.allocs) / writes,
             "count");
    rep->Add("pm.recycle_frac",
             Ratio(static_cast<double>(wr.recycles),
                   static_cast<double>(wr.allocs)),
             "ratio");
    rep->Add("pm.arena_refills", static_cast<double>(wr.arena_refills),
             "count");
  }
  rep->Add("trace.dropped", static_cast<double>(dropped), "count");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16;
  std::string trace;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) return false;
    const std::string key(arg, eq);
    const char* val = eq + 1;
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 0);
      if (*val == '\0' || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      // 60 s at most: the write-churn window's universe is sized for it.
      if (*val == '\0' || *end != '\0' || !(a->seconds >= 1) ||
          a->seconds > 60) {
        return false;
      }
    } else if (key == "--trace") {
      a->trace = val;
      if (a->trace.empty()) return false;
    } else {
      return false;
    }
  }
  return have_seed && FindWorkload(a->workload) != nullptr;
}

int Run(const Args& a) {
  namespace pm = fastfair::pm;
  const Workload& w = *FindWorkload(a.workload);
  const bool trace = !a.trace.empty();
  const KeySpace ks(w, a.seed);
  Window window{0, w.live};
  std::unique_ptr<fastfair::bench::ZipfianGenerator> zipf;
  if (w.theta > 0) {
    zipf = std::make_unique<fastfair::bench::ZipfianGenerator>(w.live,
                                                               w.theta);
  }
  const std::vector<Key> preload = PreloadKeys(w, ks, a.seed);
  // Each round runs one slice of every phase, so every phase samples the
  // whole run and a stretch of host interference hits one slice of each
  // instead of all of one phase.
  const double round_s = a.seconds / kRounds;
  const double light_s = 0.4 * round_s;
  const double heavy_s = 0.25 * round_s;
  const auto closed_ops =
      static_cast<std::size_t>(w.closed_kops * 1e3 * 0.35 * round_s);
  // Threads created from here on (service workers, maintenance) inherit a
  // 1 ns timer slack. The kernel's default 50 us slack stretches the
  // workers' 20 us idle sleep to 20-70 us with a phase that drifts, which
  // flipped the light-phase p50 between ~9 and ~18 us from window to
  // window; without it the idle path itself is what gets measured.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Pin(0, 0);
  std::printf("# bench_e2e workload=%s kind=%s seed=%llu seconds=%g%s\n",
              w.name, w.kind, static_cast<unsigned long long>(a.seed),
              a.seconds, trace ? " trace" : "");
  Report rep;

  // Setup: the untraced run builds the stack kSetupReps times and keeps
  // the last build; the traced run needs it once.
  Stack st;
  std::vector<double> setup_s;
  for (int rep_i = 0; rep_i < (trace ? 1 : kSetupReps); ++rep_i) {
    st.Reset();
    pm::SetConfig(pm::Config{});
    const std::uint64_t t0 = pm::NowNs();
    st.pool = std::make_unique<pm::Pool>(std::size_t{4} << 30);
    st.index = fastfair::MakeIndex(w.kind, st.pool.get());
    fastfair::bench::LoadIndex(st.index.get(), preload, /*batch=*/256);
    if (trace) st.tracer = std::make_unique<TracingIndex>(st.index.get());
    st.StartService(trace ? st.tracer.get() : st.index.get());
    setup_s.push_back(static_cast<double>(pm::NowNs() - t0) / 1e9);
  }
  rep.Add("setup_s", Median(setup_s), "s");

  pm::Config cfg;
  cfg.write_latency_ns = 300;
  cfg.read_latency_ns = 300;
  pm::SetConfig(cfg);
  if (w.maintenance) st.StartMaintenance();

  std::vector<Slot> closed_slots = MakeSlots(w, kSessions);
  std::vector<Slot> open_slots = MakeSlots(w, kRing);
  Counts warm, counts;
  {
    OpStream ops(w, ks, zipf.get(), &window, a.seed ^ 0xa1ull);
    RunClosed(w, st, closed_slots, ops, SIZE_MAX, 1'000'000'000, &warm);
  }
  const ProbeCounts probe0 = ProbeCountsOf(st.index.get());

  OpStream closed_stream(w, ks, zipf.get(), &window, a.seed ^ 0xc2ull);
  OpStream light_stream(w, ks, zipf.get(), &window, a.seed ^ 0x11ull);
  OpStream heavy_stream(w, ks, zipf.get(), &window, a.seed ^ 0x44ull);
  std::vector<double> closed_kops, untraced_kops;
  Open light, heavy;
  light.Reserve(kLightKops, light_s);
  heavy.Reserve(w.heavy_kops, heavy_s);
  std::vector<SampledRequest> sampled;
  if (trace) {
    sampled.reserve(static_cast<std::size_t>(
        (kLightKops * light_s + w.heavy_kops * heavy_s) * kRounds * 1e3 / 16 *
        1.3));
  }
  for (int round = 0; round < kRounds; ++round) {
    if (trace) {
      // Half a closed slice with recording off and half with it on, in
      // alternating order, give trace_overhead_frac.
      for (int k = 0; k < 2; ++k) {
        const bool on = (k == 0) == (round % 2 == 0);
        st.tracer->SetMode(on ? TracingIndex::kCalls : TracingIndex::kOff);
        (on ? closed_kops : untraced_kops)
            .push_back(RunClosed(w, st, closed_slots, closed_stream,
                                 closed_ops / 2, 0, &counts));
      }
      st.tracer->SetMode(TracingIndex::kCallsAndKeys);
    } else {
      closed_kops.push_back(RunClosed(w, st, closed_slots, closed_stream,
                                      closed_ops, 0, &counts));
    }
    RunOpen(w, st, open_slots, light_stream, kLightKops, light_s, &counts,
            &light, trace ? &sampled : nullptr);
    RunOpen(w, st, open_slots, heavy_stream, w.heavy_kops, heavy_s, &counts,
            &heavy, trace ? &sampled : nullptr);
  }
  st.svc->Stop();
  if (st.maint != nullptr) st.maint->Stop();
  // Worker counters are plain fields, exact only once the service has
  // stopped; they cover its whole life, warm-up included.
  const server::ServiceStats svc = st.svc->Stats();
  const ProbeCounts probe1 = ProbeCountsOf(st.index.get());

  if (!trace) {
    rep.Add("throughput_kops", Median(closed_kops), "Kops/s");
    ReportOpen("light", light, &rep);
    ReportOpen("heavy", heavy, &rep);
    // Emulated PM device time per served request: serial read stalls and
    // flushed lines priced at the configured latencies. Exact counts, so
    // it does not move with the host's speed, unlike the wall times.
    rep.Add("pm_ns_per_op",
            Ratio(static_cast<double>(svc.pm.read_stalls *
                                          cfg.read_latency_ns +
                                      svc.pm.flush_lines *
                                          cfg.write_latency_ns),
                  static_cast<double>(svc.executed)),
            "ns");
  } else {
    const double traced = Median(closed_kops);
    const double untraced = Median(untraced_kops);
    rep.Add("trace.untraced_kops", untraced, "Kops/s");
    rep.Add("trace.traced_kops", traced, "Kops/s");
    rep.Add("trace_overhead_frac", 1 - Ratio(traced, untraced), "ratio");
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double groups = d(svc.groups);
    const double rejected =
        d(svc.rejected_queue_full + svc.rejected_quota +
          svc.rejected_capacity + svc.deadline_exceeded);
    const double g = Ratio(d(svc.executed), groups);
    rep.Add("server.group_ops", g, "count");
    rep.Add("server.flush_full_frac", Ratio(d(svc.full_flushes), groups),
            "ratio");
    rep.Add("server.flush_timeout_frac",
            Ratio(d(svc.timeout_flushes), groups), "ratio");
    rep.Add("server.flush_idle_frac", Ratio(d(svc.idle_flushes), groups),
            "ratio");
    rep.Add("server.rejected_frac",
            Ratio(rejected, d(svc.executed) + rejected), "ratio");

    const std::vector<SpanRef> links = LinkRequests(*st.tracer, sampled);
    std::vector<std::uint32_t> wait;
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      if (links[i].thread < 0) continue;
      const Span& s = st.tracer->thread(links[i].thread).spans[links[i].span];
      const std::uint64_t total = sampled[i].complete_ns - sampled[i].submit_ns;
      const std::uint64_t exec = s.end_ns - s.start_ns;
      wait.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(total - exec, UINT32_MAX)));
    }
    rep.Add("trace.sampled_requests", static_cast<double>(sampled.size()),
            "count");
    rep.Add("trace.linked_frac",
            Ratio(static_cast<double>(wait.size()),
                  static_cast<double>(sampled.size())),
            "ratio");
    rep.Add("server.wait_us.p50", Percentile(wait, 0.50) / 1e3, "us");
    rep.Add("server.wait_us.p99", Percentile(wait, 0.99) / 1e3, "us");

    ReportIndexLayer(*st.tracer, &rep);
    const double lookups = (probe1.hits - probe0.hits) +
                           (probe1.misses - probe0.misses);
    if (lookups != 0) {
      rep.Add("index.probe_hit_rate", (probe1.hits - probe0.hits) / lookups,
              "ratio");
      const double fills = (probe1.installs - probe0.installs) +
                           (probe1.stale_aborts - probe0.stale_aborts);
      rep.Add("index.probe_stale_abort_frac",
              Ratio(probe1.stale_aborts - probe0.stale_aborts, fills),
              "ratio");
    }

    if (st.maint != nullptr) {
      for (const char* cls : {"pool-drain", "rebalance", "sweep"}) {
        double busy = 0, quanta = 0, useful = 0, bytes = 0;
        for (const TimedTask* t : st.tasks) {
          if (t->name().rfind(cls, 0) != 0) continue;
          const maint::TaskStats ts = t->stats();
          busy += static_cast<double>(t->busy_ns());
          quanta += static_cast<double>(ts.quanta);
          useful += static_cast<double>(ts.useful_quanta);
          bytes += static_cast<double>(ts.bytes);
        }
        const std::string base = std::string("maint.") + cls;
        rep.Add(base + ".busy_ms", busy / 1e6, "ms");
        rep.Add(base + ".useful_frac", Ratio(useful, quanta), "ratio");
        rep.Add(base + ".bytes_reclaimed", bytes, "bytes");
      }
    }

    const Rungs rg =
        RunRungs(w, ks, zipf.get(), &window, preload, st.index.get(),
                 static_cast<std::size_t>(std::lround(g)), a.seed);
    rep.Add("core.search_ns", rg.core_search_ns, "ns");
    rep.Add("core.search_batch_ns_per_op", rg.core_search_batch_ns_per_op,
            "ns");
    rep.Add("core.insert_ns", rg.core_insert_ns, "ns");
    rep.Add("core.scan100_ns", rg.core_scan100_ns, "ns");
    rep.Add("core.scan_batch_ns_per_op", rg.core_scan_batch_ns_per_op, "ns");
    rep.Add("pm.persist_line_ns", rg.pm_persist_line_ns, "ns");
    rep.Add("pm.alloc_ns", rg.pm_alloc_ns, "ns");
    rep.Add("index.rung_ns_per_op", rg.index_ns_per_op, "ns");
    if (!rg.ok) {
      std::fprintf(stderr, "bench_e2e: wrong result in the rung pass\n");
      ++counts.wrong;
    }
    if (!WriteChromeTrace(a.trace, *st.tracer, sampled, links,
                          kTraceRequests)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", a.trace.c_str());
      return 1;
    }
  }

  pm::SetConfig(pm::Config{});
  std::size_t entries = 0;
  // Without deletes every preloaded key is still there; a window holds
  // exactly its live ranks.
  const std::size_t expected = w.window          ? window.head - window.tail
                               : w.gets_must_hit ? w.live
                                                 : SIZE_MAX;
  if (!FinalCheck(ks, *st.index, expected, &entries)) {
    std::fprintf(stderr, "bench_e2e: final index check failed\n");
    ++counts.wrong;
  }
  rep.Add("index.entries", static_cast<double>(entries), "count");
  rep.Add("failed_frac",
          Ratio(static_cast<double>(counts.failed + counts.wrong),
                static_cast<double>(counts.attempted)),
          "ratio");
  rep.Add("bytes_per_user_byte",
          Ratio(static_cast<double>(st.pool->used()),
                16.0 * static_cast<double>(entries)),
          "ratio");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");

  const bool correct = counts.wrong == 0 && warm.wrong == 0;
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"host\": {\"nproc\": %u, \"isa\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}, \"metrics\": %s}\n",
      w.name, static_cast<unsigned long long>(a.seed),
      trace ? "true" : "false", correct ? "true" : "false",
      static_cast<unsigned long long>(counts.attempted),
      static_cast<unsigned long long>(counts.failed + counts.wrong),
      std::thread::hardware_concurrency(),
      fastfair::simd::IsaName(fastfair::simd::ActiveIsa()), __VERSION__,
      E2E_BUILD_TYPE, rep.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<name> --seed=<u64> "
                 "[--seconds=<n>] [--trace=<file>]\nworkloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return Run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
