#include "bench/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "index/sharded.h"  // kMaxShards

namespace fastfair::bench {

std::size_t Options::ScaledN(std::size_t paper_n) const {
  if (n_override != 0) return n_override;
  if (scale == "paper") return paper_n;
  if (scale == "small") return paper_n / 20;  // e.g. 10 M -> 500 K
  if (scale == "ci") return paper_n / 200;    // e.g. 10 M -> 50 K
  throw std::invalid_argument("unknown --scale: " + scale);
}

std::string Options::ShardedKind() const {
  return (sharding == "hash" ? "hashed-fastfair:" : "sharded-fastfair:") +
         std::to_string(shards);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--scale=")) {
      o.scale = v;
    } else if (const char* v = val("--n=")) {
      o.n_override = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed=")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--shards=")) {
      o.shards = std::strtoull(v, nullptr, 10);
      if (o.shards == 0 || o.shards > kMaxShards) {
        std::fprintf(stderr, "--shards must be in [1, %zu]\n", kMaxShards);
        std::exit(2);
      }
    } else if (const char* v = val("--threads=")) {
      o.threads.clear();
      o.threads_set = true;
      const char* p = v;
      while (*p != '\0') {
        o.threads.push_back(static_cast<int>(std::strtol(p, nullptr, 10)));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (const char* v = val("--sharding=")) {
      o.sharding = v;
      if (o.sharding != "range" && o.sharding != "hash" &&
          o.sharding != "adaptive") {
        std::fprintf(stderr, "--sharding must be range|hash|adaptive\n");
        std::exit(2);
      }
    } else if (const char* v = val("--skew=")) {
      char* end = nullptr;
      o.skew = std::strtod(v, &end);
      o.skew_set = true;
      if (end == v || *end != '\0' || !(o.skew >= 0.0 && o.skew < 1.0)) {
        std::fprintf(stderr,
                     "--skew must be in [0, 1) (zipfian theta; 0=uniform)\n");
        std::exit(2);
      }
    } else if (const char* v = val("--churn=")) {
      o.churn_rounds = std::strtoull(v, nullptr, 10);
    } else if (a == "--maintenance") {
      o.maintenance = true;
    } else if (const char* v = val("--rebalance-threshold=")) {
      char* end = nullptr;
      o.rebalance_threshold = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.rebalance_threshold > 1.0)) {
        std::fprintf(stderr, "--rebalance-threshold must be > 1.0\n");
        std::exit(2);
      }
    } else if (const char* v = val("--maint-interval-us=")) {
      char* end = nullptr;
      o.maint_interval_us = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || o.maint_interval_us == 0) {
        // 0 would turn the idle sleep into a busy spin — the opposite of
        // the flag's purpose.
        std::fprintf(stderr, "--maint-interval-us must be a positive int\n");
        std::exit(2);
      }
    } else if (const char* v = val("--batch=")) {
      char* end = nullptr;
      o.batch = std::strtoull(v, &end, 10);
      // strtoull silently wraps a leading '-'; reject it explicitly.
      if (end == v || *end != '\0' || *v == '-') {
        std::fprintf(stderr, "--batch must be a non-negative int\n");
        std::exit(2);
      }
    } else if (const char* v = val("--service-workers=")) {
      char* end = nullptr;
      o.service_workers = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || o.service_workers == 0) {
        std::fprintf(stderr, "--service-workers must be a positive int\n");
        std::exit(2);
      }
    } else if (const char* v = val("--batch-timeout-us=")) {
      char* end = nullptr;
      o.batch_timeout_us = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "--batch-timeout-us must be a non-negative int\n");
        std::exit(2);
      }
    } else if (const char* v = val("--quota=")) {
      char* end = nullptr;
      o.quota = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "--quota must be a non-negative int\n");
        std::exit(2);
      }
    } else if (const char* v = val("--scan-frac=")) {
      char* end = nullptr;
      o.scan_frac = std::strtod(v, &end);
      if (end == v || *end != '\0' ||
          !(o.scan_frac >= 0.0 && o.scan_frac < 1.0)) {
        std::fprintf(stderr, "--scan-frac must be in [0, 1)\n");
        std::exit(2);
      }
    } else if (a == "--latency") {
      o.latency = true;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "options: --scale=ci|small|paper --n=N --threads=1,2,4 "
          "--shards=S --sharding=range|hash|adaptive --skew=THETA "
          "--churn=R --maintenance --rebalance-threshold=R "
          "--maint-interval-us=N --batch=N --service-workers=N "
          "--batch-timeout-us=N --quota=OPS --scan-frac=F --latency "
          "--csv --seed=S\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      std::exit(2);
    }
  }
  if (o.threads.empty()) o.threads = {1, 2, 4, 8, 16, 32};
  return o;
}

}  // namespace fastfair::bench
