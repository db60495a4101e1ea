// Figure 3: linear vs. binary search as a function of B+-tree node size.
//
// Paper setup: 1 M random 8-byte KV pairs, PM latency = DRAM, node sizes
// 256 B - 4 KB. Reports (a) per-insert time and (b) per-search time for the
// FAST+FAIR tree with linear and with binary in-node search.
//
// Expected shape: insertion degrades with node size (more FAST shifting);
// binary search only wins at >= 4 KB nodes; linear wins at 512 B / 1 KB.
//
// The search_simd column replays the linear-mode run with the vectorized
// in-node protocol (DESIGN.md §9) on the active ISA, which FASTFAIR_SIMD
// pins; the linear and binary columns pin the scalar kernels so they
// reproduce the paper's setup regardless of the host CPU.

#include <cstdio>

#include "bench/options.h"
#include "bench/stats.h"
#include "bench/table.h"
#include "bench/workload.h"
#include "common/simd.h"
#include "core/btree.h"

namespace {

using namespace fastfair;

struct Result {
  double insert_us;
  double search_us;
};

template <std::size_t PageSize>
Result RunOne(const std::vector<Key>& keys, core::SearchMode sm,
              simd::Isa isa) {
  // Dispatch is resolved at tree construction, so the force must precede it.
  simd::ForceIsa(isa);
  pm::Pool pool(std::size_t{3} << 30);
  core::Options opts;
  opts.search = sm;
  core::BTreeT<PageSize> tree(&pool, opts);
  bench::Timer t;
  for (const Key k : keys) tree.Insert(k, 2 * k + 1);
  const double insert_us =
      t.ElapsedUs() / static_cast<double>(keys.size());
  t.Reset();
  for (const Key k : keys) {
    if (tree.Search(k) != (2 * k + 1)) {
      std::fprintf(stderr, "lost key!\n");
      std::exit(1);
    }
  }
  const double search_us =
      t.ElapsedUs() / static_cast<double>(keys.size());
  return {insert_us, search_us};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::ParseOptions(argc, argv);
  const std::size_t n = opt.ScaledN(1000000);  // paper: 1 M keys
  const auto keys = bench::UniformKeys(n, opt.seed);
  pm::SetConfig(pm::Config{});  // PM latency == DRAM, per the paper

  // The ISA FASTFAIR_SIMD resolves to (best supported when unset) is what
  // the simd column runs.
  const simd::Isa vec_isa = simd::ActiveIsa();
  std::printf("Figure 3: linear vs binary vs simd(%s) search, %zu keys\n",
              simd::IsaName(vec_isa), n);
  bench::Table table({"node_size", "insert_linear_us", "insert_binary_us",
                      "search_linear_us", "search_binary_us",
                      "search_simd_us"});
  auto row = [&](const char* label, Result lin, Result bin, Result vec) {
    table.AddRow({label, bench::Table::Num(lin.insert_us),
                  bench::Table::Num(bin.insert_us),
                  bench::Table::Num(lin.search_us),
                  bench::Table::Num(bin.search_us),
                  bench::Table::Num(vec.search_us)});
  };
  using core::SearchMode;
  using simd::Isa;
  row("256B", RunOne<256>(keys, SearchMode::kLinear, Isa::kScalar),
      RunOne<256>(keys, SearchMode::kBinary, Isa::kScalar),
      RunOne<256>(keys, SearchMode::kLinear, vec_isa));
  row("512B", RunOne<512>(keys, SearchMode::kLinear, Isa::kScalar),
      RunOne<512>(keys, SearchMode::kBinary, Isa::kScalar),
      RunOne<512>(keys, SearchMode::kLinear, vec_isa));
  row("1KB", RunOne<1024>(keys, SearchMode::kLinear, Isa::kScalar),
      RunOne<1024>(keys, SearchMode::kBinary, Isa::kScalar),
      RunOne<1024>(keys, SearchMode::kLinear, vec_isa));
  row("2KB", RunOne<2048>(keys, SearchMode::kLinear, Isa::kScalar),
      RunOne<2048>(keys, SearchMode::kBinary, Isa::kScalar),
      RunOne<2048>(keys, SearchMode::kLinear, vec_isa));
  row("4KB", RunOne<4096>(keys, SearchMode::kLinear, Isa::kScalar),
      RunOne<4096>(keys, SearchMode::kBinary, Isa::kScalar),
      RunOne<4096>(keys, SearchMode::kLinear, vec_isa));
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
  return 0;
}
