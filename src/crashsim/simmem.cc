#include "crashsim/simmem.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <stdexcept>

#include "pm/fault.h"
#include "pm/pool.h"

namespace fastfair::crashsim {

void SimMem::Adopt(const void* base, std::size_t len) {
  auto a = reinterpret_cast<std::uintptr_t>(base);
  if (a % 8 != 0 || len % 8 != 0) {
    throw std::invalid_argument("SimMem::Adopt requires 8-byte alignment");
  }
  const auto* words = static_cast<const std::uint64_t*>(base);
  for (std::size_t i = 0; i < len / 8; ++i) {
    initial_[a + i * 8] = words[i];
    cache_[a + i * 8] = words[i];
  }
}

void SimMem::Release(const void* base, std::size_t len) {
  auto a = reinterpret_cast<std::uintptr_t>(base);
  if (a % 8 != 0 || len % 8 != 0) {
    throw std::invalid_argument("SimMem::Release requires 8-byte alignment");
  }
  for (std::size_t i = 0; i < len / 8; ++i) {
    initial_.erase(a + i * 8);
    cache_.erase(a + i * 8);
  }
}

void SimMem::InterceptPool(pm::Pool& pool) {
  pool.SetAllocHook(
      [](void* ctx, void* p, std::size_t size) {
        static_cast<SimMem*>(ctx)->Adopt(p, AlignUp(size, 8));
      },
      this);
  pool.SetFreeHook(
      [](void* ctx, void* p, std::size_t size) {
        static_cast<SimMem*>(ctx)->Release(p, AlignUp(size, 8));
      },
      this);
}

void SimMem::Store64(void* addr, std::uint64_t value) {
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  assert(a % 8 == 0);
  auto it = cache_.find(a);
  if (it == cache_.end()) {
    throw std::out_of_range("SimMem: store outside adopted ranges");
  }
  // Fault injection (pm/fault.h): the chosen store persists as a torn
  // hybrid of old and new content while the program-order (cache) view
  // still sees the intended value — the write completed, half of it
  // reached the medium.
  std::uint64_t logged = value;
  if (pm::FaultInjector::Armed()) {
    logged = pm::FaultInjector::Instance().OnStore(value, it->second);
  }
  it->second = value;
  events_.push_back({Event::Kind::kStore, a, logged});
}

std::uint64_t SimMem::Load64(const void* addr) const {
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = cache_.find(a);
  if (it == cache_.end()) {
    throw std::out_of_range("SimMem: load outside adopted ranges");
  }
  return it->second;
}

void SimMem::Flush(const void* addr) {
  const Event e{Event::Kind::kFlush, reinterpret_cast<std::uintptr_t>(addr),
                0};
  if (pm::FaultInjector::Armed()) {
    using Action = pm::FaultInjector::FlushAction;
    switch (pm::FaultInjector::Instance().OnFlush()) {
      case Action::kDrop:
        return;  // the line never reaches its fence
      case Action::kDeferPastFence:
        // Models the reordering an elided barrier would allow: the flush
        // lands after the next fence, so that fence no longer covers it.
        deferred_flushes_.push_back(e);
        return;
      case Action::kKeep:
        break;
    }
  }
  events_.push_back(e);
}

void SimMem::Fence() {
  events_.push_back({Event::Kind::kFence, 0, 0});
  if (!deferred_flushes_.empty()) {
    for (const Event& e : deferred_flushes_) events_.push_back(e);
    deferred_flushes_.clear();
  }
}

std::size_t SimMem::store_count() const {
  std::size_t n = 0;
  for (const auto& e : events_) n += e.kind == Event::Kind::kStore;
  return n;
}

std::uint64_t SimMem::Image::Read64(const void* addr) const {
  auto it = words.find(reinterpret_cast<std::uintptr_t>(addr));
  if (it == words.end()) {
    throw std::out_of_range("SimMem::Image: read outside adopted ranges");
  }
  return it->second;
}

// Stores grouped by cache line in program order, and for every crash point
// i (after the first i events) each line's floor, the stores a flush
// followed by a fence made durable, and its upto, the stores issued so far.
// A cut vector with floor <= cut <= upto per line names one crash image.
// Both vectors are kept per point: O(events x lines) words, which the
// node-level logs the suites record afford.
struct SimMem::CrashModel {
  explicit CrashModel(const SimMem& sim) : sim(sim) {
    std::unordered_map<std::uintptr_t, std::size_t> line_index;
    for (std::uint32_t i = 0; i < sim.events_.size(); ++i) {
      const Event& e = sim.events_[i];
      if (e.kind != Event::Kind::kStore) continue;
      auto [it, inserted] =
          line_index.try_emplace(LineOf(e.addr), lines.size());
      if (inserted) lines.emplace_back();
      lines[it->second].push_back(i);
    }
    const std::size_t L = lines.size();
    std::vector<std::uint32_t> floor(L, 0), pending(L, 0), upto(L, 0);
    std::vector<bool> has_pending(L, false);
    floors.push_back(floor);
    uptos.push_back(upto);
    for (const Event& e : sim.events_) {
      if (e.kind == Event::Kind::kStore) {
        upto[line_index.at(LineOf(e.addr))] += 1;
      } else if (e.kind == Event::Kind::kFlush) {
        auto it = line_index.find(LineOf(e.addr));
        if (it != line_index.end()) {
          // Content as of this flush = all stores to the line so far.
          pending[it->second] = upto[it->second];
          has_pending[it->second] = true;
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          if (has_pending[l]) {
            floor[l] = std::max(floor[l], pending[l]);
            has_pending[l] = false;
          }
        }
      }
      floors.push_back(floor);
      uptos.push_back(upto);
    }
    // Two cuts of a line name the same content when the stores between
    // them rewrite values the words already hold; every cut maps to the
    // smallest cut with its content, so one cut vector names each image.
    canon.resize(L);
    for (std::size_t l = 0; l < L; ++l) {
      std::vector<std::uintptr_t> addrs;
      for (const std::uint32_t e : lines[l]) {
        addrs.push_back(sim.events_[e].addr);
      }
      std::sort(addrs.begin(), addrs.end());
      addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
      // (adopted, value) per stored word: a released word has no initial
      // content, which no store value equals.
      std::vector<std::uint64_t> content(2 * addrs.size(), 0);
      for (std::size_t w = 0; w < addrs.size(); ++w) {
        const auto it = sim.initial_.find(addrs[w]);
        if (it != sim.initial_.end()) {
          content[2 * w] = 1;
          content[2 * w + 1] = it->second;
        }
      }
      std::map<std::vector<std::uint64_t>, std::uint32_t> first_cut;
      for (std::uint32_t c = 0;; ++c) {
        canon[l].push_back(first_cut.try_emplace(content, c).first->second);
        if (c == lines[l].size()) break;
        const Event& e = sim.events_[lines[l][c]];
        const std::size_t w = static_cast<std::size_t>(
            std::lower_bound(addrs.begin(), addrs.end(), e.addr) -
            addrs.begin());
        content[2 * w] = 1;
        content[2 * w + 1] = e.value;
      }
    }
  }

  // The initial content with the first cuts[l] stores of each line l.
  Image Materialize(const std::vector<std::uint32_t>& cuts) const {
    Image img;
    img.words = sim.initial_;
    for (std::size_t l = 0; l < lines.size(); ++l) {
      for (std::uint32_t k = 0; k < cuts[l]; ++k) {
        const Event& e = sim.events_[lines[l][k]];
        img.words[e.addr] = e.value;
      }
    }
    return img;
  }

  const SimMem& sim;
  std::vector<std::vector<std::uint32_t>> lines;  // store event indices
  std::vector<std::vector<std::uint32_t>> floors, uptos;  // [point][line]
  std::vector<std::vector<std::uint32_t>> canon;  // [line][cut]: first cut
                                                  // with the same content
};

SimMem::Image SimMem::FinalImage() const {
  const CrashModel model(*this);
  return model.Materialize(model.uptos.back());
}

bool SimMem::EnumerateCrashStates(const std::function<void(const Image&)>& fn,
                                  std::size_t max_states) const {
  const CrashModel model(*this);
  const std::size_t L = model.lines.size();
  // Canonical cut vectors seen, one per image, across crash points.
  std::set<std::vector<std::uint32_t>> visited;
  std::vector<std::uint32_t> image(L);
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < model.floors.size(); ++i) {
    const std::vector<std::uint32_t>& lo = model.floors[i];
    const std::vector<std::uint32_t>& hi = model.uptos[i];
    // Every cut vector in [lo, hi], the last line varying fastest.
    std::vector<std::uint32_t> cuts = lo;
    while (true) {
      for (std::size_t l = 0; l < L; ++l) image[l] = model.canon[l][cuts[l]];
      if (visited.insert(image).second) {
        if (++emitted > max_states) return false;
        fn(model.Materialize(image));
      }
      std::size_t l = L;
      while (l > 0 && cuts[l - 1] == hi[l - 1]) {
        cuts[l - 1] = lo[l - 1];
        --l;
      }
      if (l == 0) break;
      ++cuts[l - 1];
    }
  }
  return true;
}

void SimMem::SampleCrashStates(
    std::size_t samples, std::uint64_t seed,
    const std::function<void(const Image&)>& fn) const {
  const CrashModel model(*this);
  Rng rng(seed);
  std::vector<std::uint32_t> cuts(model.lines.size());
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i = rng.NextBounded(model.floors.size());
    for (std::size_t l = 0; l < cuts.size(); ++l) {
      const std::uint32_t lo = model.floors[i][l], hi = model.uptos[i][l];
      cuts[l] = lo + static_cast<std::uint32_t>(rng.NextBounded(hi - lo + 1));
    }
    fn(model.Materialize(cuts));
  }
}

}  // namespace fastfair::crashsim
