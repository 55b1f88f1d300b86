// Per-worker load advertisement: a cacheline-striped board of "how much
// work do I have right now" hints that once fed victim selection.
//
// Retired: the runtime steals from uniformly random victims and neither
// builds nor writes a load_board, and src/CMakeLists.txt does not compile
// this pair. It stays only because loopbench/CMakeLists.txt lists
// load_board.cpp among its sources; delete both files when loopbench next
// changes.
//
// Each worker owns one padded entry and publishes two numbers with plain
// relaxed stores at its work boundaries: its deque depth (after push /
// pop / a thief-visible batch steal is *not* republished — see below) and
// the width of its innermost open range-slot span (at open; at close the
// enclosing open span's width, or 0). Idle workers picking a steal victim
// scan with relaxed loads.
//
// Ordering contract (the full table lives in docs/runtime.md): the board
// is *strictly advisory*. No acquire/release edge pairs with its stores;
// a reader acting on an entry always follows up with the authoritative
// protocol op (deque steal CAS, range-slot steal transaction), whose own
// ordering decides the race. Stale entries therefore cost at most a
// wasted probe — exactly what a random probe costs — and owner-only
// publication keeps each entry's cacheline in its owner's cache except
// when scanned. Thieves do not write back a victim's entry
// after stealing from it (cross-thread stores would bounce the line);
// the owner's next boundary refreshes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/cacheline.h"

namespace hls::rt {

class load_board {
 public:
  explicit load_board(std::uint32_t num_workers);

  load_board(const load_board&) = delete;
  load_board& operator=(const load_board&) = delete;

  std::uint32_t size() const noexcept { return n_; }

  // Owner-side publication (relaxed; advisory — see header comment).
  void publish_deque(std::uint32_t w, std::uint64_t depth) noexcept {
    e_[w].deque_depth.store(depth, std::memory_order_relaxed);
  }
  void publish_span(std::uint32_t w, std::uint64_t width) noexcept {
    e_[w].span_width.store(width, std::memory_order_relaxed);
  }

  // Reader-side hints.
  std::uint64_t deque_depth(std::uint32_t w) const noexcept {
    return e_[w].deque_depth.load(std::memory_order_relaxed);
  }
  std::uint64_t span_width(std::uint32_t w) const noexcept {
    return e_[w].span_width.load(std::memory_order_relaxed);
  }

  // Advertised load score of worker w: weighs queued tasks (each a whole
  // chunk of work, worth migrating individually) above span width (one
  // steal halves it no matter how wide, so extra width adds only
  // logarithmic value).
  std::uint64_t score(std::uint32_t w) const noexcept;

  // The most-loaded advertised worker other than `self`, or size() when
  // every entry reads empty. One relaxed load pair per worker; callers
  // fall back to random probing on a miss.
  std::uint32_t busiest(std::uint32_t self) const noexcept;

 private:
  struct alignas(kCacheLine) entry {
    std::atomic<std::uint64_t> deque_depth{0};
    std::atomic<std::uint64_t> span_width{0};
  };

  std::uint32_t n_;
  std::unique_ptr<entry[]> e_;
};

}  // namespace hls::rt
