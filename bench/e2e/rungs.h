// Rung pass of the traced run: the public pm, core::BTree and Index entry
// points timed directly on the workload's own keys, with no service in
// between. Each rung is the ceiling the layer above it can reach; batched
// rungs use the batch size the service actually formed (server.group_ops).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "index/index.h"
#include "pm/persist.h"
#include "pm/pool.h"
#include "pm/reclaim.h"
#include "workload.h"

namespace e2e {

struct Rungs {
  double core_search_ns = 0, core_search_batch_ns_per_op = 0;
  double core_insert_ns = 0;
  double core_scan100_ns = 0, core_scan_batch_ns_per_op = 0;
  double pm_persist_line_ns = 0, pm_alloc_ns = 0;
  double index_ns_per_op = 0;
  bool ok = true;  // every rung result checked out
};

namespace detail {

template <class Fn>
double NsPerOp(std::size_t ops, Fn&& fn) {
  const std::uint64_t t0 = fastfair::pm::NowNs();
  fn();
  return static_cast<double>(fastfair::pm::NowNs() - t0) /
         static_cast<double>(ops);
}

}  // namespace detail

/// `preload` is the workload's shuffled preload list, `idx` its loaded
/// index (quiesced: the service has stopped). PM latency must already be
/// configured; the core tree is loaded at DRAM speed like the index.
inline Rungs RunRungs(const Workload& w, const KeySpace& ks,
                      fastfair::bench::ZipfianGenerator* zipf, Window* window,
                      const std::vector<Key>& preload, fastfair::Index* idx,
                      std::size_t batch, std::uint64_t seed) {
  namespace pm = fastfair::pm;
  using fastfair::core::Record;
  constexpr std::size_t kOps = 100'000;
  constexpr std::size_t kScans = 20'000;
  Rungs r;
  batch = std::clamp<std::size_t>(batch, 1, 256);

  // One shard's worth of the workload's keys (the indexes run 8 shards):
  // even positions of the shuffled preload prefix are loaded, odd ones
  // are the fresh keys the insert rung adds.
  const std::size_t m = std::min(preload.size() / 2, kKeys / 8);
  pm::Pool pool(std::size_t{1} << 30);
  fastfair::core::BTree tree(&pool);
  {
    const pm::Config cfg = pm::GetConfig();
    pm::SetConfig(pm::Config{});
    for (std::size_t i = 0; i < m; ++i) {
      tree.Insert(preload[2 * i], ValueFor(preload[2 * i]));
    }
    pm::SetConfig(cfg);
  }
  Rng rng(seed ^ 0x7a11ull);
  std::vector<Key> probes(kOps);
  for (Key& k : probes) k = preload[2 * rng.NextBounded(m)];

  r.core_search_ns = detail::NsPerOp(kOps, [&] {
    for (const Key k : probes) r.ok &= tree.Search(k) == ValueFor(k);
  });
  std::vector<Value> vals(batch);
  r.core_search_batch_ns_per_op = detail::NsPerOp(kOps, [&] {
    for (std::size_t i = 0; i < kOps; i += batch) {
      const std::size_t n = std::min(batch, kOps - i);
      tree.SearchBatch(probes.data() + i, n, vals.data());
      for (std::size_t j = 0; j < n; ++j) {
        r.ok &= vals[j] == ValueFor(probes[i + j]);
      }
    }
  });
  const std::size_t fresh = std::min(kOps, m);
  r.core_insert_ns = detail::NsPerOp(fresh, [&] {
    for (std::size_t i = 0; i < fresh; ++i) {
      const Key k = preload[2 * i + 1];
      tree.Insert(k, ValueFor(k));
    }
  });
  std::vector<Record> out(batch * kScanLen);
  std::vector<std::size_t> counts(batch);
  auto scan_ok = [](const Record* recs, std::size_t n, Key from) {
    return n <= kScanLen && ScanValid(recs, n, from);
  };
  r.core_scan100_ns = detail::NsPerOp(kScans, [&] {
    for (std::size_t i = 0; i < kScans; ++i) {
      const std::size_t n = tree.Scan(probes[i], kScanLen, out.data());
      r.ok &= scan_ok(out.data(), n, probes[i]);
    }
  });
  std::vector<fastfair::ScanOp> scan_ops(batch);
  r.core_scan_batch_ns_per_op = detail::NsPerOp(kScans, [&] {
    for (std::size_t i = 0; i < kScans; i += batch) {
      const std::size_t n = std::min(batch, kScans - i);
      for (std::size_t j = 0; j < n; ++j) {
        scan_ops[j] = {probes[i + j], kScanLen, out.data() + j * kScanLen};
      }
      tree.ScanBatch(scan_ops.data(), n, counts.data());
      for (std::size_t j = 0; j < n; ++j) {
        r.ok &= scan_ok(scan_ops[j].out, counts[j], probes[i + j]);
      }
    }
  });

  constexpr std::size_t kLine = fastfair::kCacheLineSize;
  constexpr std::size_t kLines = 1024;
  auto* lines = static_cast<char*>(pool.Alloc(kLines * kLine));
  r.pm_persist_line_ns = detail::NsPerOp(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      char* line = lines + (i % kLines) * kLine;
      line[0] = static_cast<char>(i);
      pm::Persist(line, kLine);
    }
  });
  r.pm_alloc_ns = detail::NsPerOp(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      r.ok &= pool.Alloc(fastfair::core::BTree::kPageSize) != nullptr;
    }
  });

  // The workload's own op mix through the Index batch entry points, in
  // service group order (writes, deletes, reads, scans) and group size.
  OpStream ops(w, ks, zipf, window, seed ^ 0x1dd0ull);
  std::vector<Request> group(batch);
  std::vector<Record> puts;
  std::vector<fastfair::InsertStatus> put_st(batch);
  std::vector<Key> gets;
  r.index_ns_per_op = detail::NsPerOp(kOps, [&] {
    for (std::size_t i = 0; i < kOps; i += batch) {
      const std::size_t n = std::min(batch, kOps - i);
      puts.clear();
      gets.clear();
      std::size_t scans = 0;
      pm::EpochGuard guard;
      for (std::size_t j = 0; j < n; ++j) {
        group[j] = ops.Next();
        if (group[j].op == Op::kPut) {
          puts.push_back({group[j].key, ValueFor(group[j].key)});
        }
      }
      if (!puts.empty()) {
        idx->InsertBatch(puts.data(), puts.size(), put_st.data());
        for (std::size_t j = 0; j < puts.size(); ++j) {
          r.ok &= put_st[j] != fastfair::InsertStatus::kNoSpace;
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (group[j].op == Op::kDel) idx->Remove(group[j].key);
        if (group[j].op == Op::kGet) gets.push_back(group[j].key);
        if (group[j].op == Op::kScan) {
          scan_ops[scans] = {group[j].key, kScanLen,
                             out.data() + scans * kScanLen};
          ++scans;
        }
      }
      if (!gets.empty()) {
        idx->SearchBatch(gets.data(), gets.size(), vals.data());
        for (std::size_t j = 0; j < gets.size(); ++j) {
          r.ok &= vals[j] == ValueFor(gets[j]) ||
                  (vals[j] == fastfair::kNoValue && !w.gets_must_hit);
        }
      }
      if (scans != 0) {
        idx->ScanBatch(scan_ops.data(), scans, counts.data());
        for (std::size_t j = 0; j < scans; ++j) {
          r.ok &= scan_ok(scan_ops[j].out, counts[j], scan_ops[j].min_key);
        }
      }
    }
  });
  return r;
}

}  // namespace e2e
