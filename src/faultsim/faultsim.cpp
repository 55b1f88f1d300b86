#include "faultsim/faultsim.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace hls::faultsim {

const char* hook_name(hook h) noexcept {
  switch (h) {
    case hook::claim_peek: return "claim_peek";
    case hook::claim_fail: return "claim_fail";
    case hook::steal_probe: return "steal_fail";
    case hook::deque_pop: return "pop_skip";
    case hook::board_post: return "post_fail";
    case hook::body_throw: return "body_throw";
    case hook::delay: return "delay";
    case hook::range_steal: return "range_fail";
    case hook::delay_chunk: return "delay_chunk";
    case hook::delay_park: return "delay_park";
    case hook::thread_spawn: return "thread_spawn";
    case hook::count_: break;
  }
  return "?";
}

injected_fault::injected_fault(std::uint32_t worker, std::int64_t lo,
                               std::int64_t hi)
    : std::runtime_error("hls: injected fault in chunk [" +
                         std::to_string(lo) + ", " + std::to_string(hi) +
                         ") on worker " + std::to_string(worker)),
      worker_(worker),
      lo_(lo),
      hi_(hi) {}

bool config::any() const noexcept {
  if (!throw_at.empty()) return true;
  for (double r : rate) {
    if (r > 0) return true;
  }
  return false;
}

void config::normalize() noexcept {
  for (unsigned h = 0; h < kNumHooks; ++h) {
    double& r = rate[h];
    r = std::clamp(r, 0.0, 1.0);
    // body_throw may be certain (the loop still terminates, carrying the
    // exception), and thread_spawn gates a one-shot fallback path that
    // stays live at rate 1.0; every other scheduler hook must keep a
    // success path open.
    const auto hk = static_cast<hook>(h);
    if (hk != hook::body_throw && hk != hook::thread_spawn) {
      r = std::min(r, kMaxSchedulerRate);
    }
  }
}

config config::default_mix(std::uint64_t seed) {
  config c;
  c.seed = seed;
  c.of(hook::claim_peek) = 0.20;
  c.of(hook::claim_fail) = 0.30;
  c.of(hook::steal_probe) = 0.30;
  c.of(hook::deque_pop) = 0.10;
  c.of(hook::board_post) = 0.20;
  c.of(hook::range_steal) = 0.20;
  c.of(hook::delay) = 0.02;
  c.of(hook::delay_chunk) = 0.02;
  c.of(hook::delay_park) = 0.01;
  c.delay_us = 20;
  return c;
}

namespace {

// Strict non-negative integer parse; false on garbage or overflow.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_rate(std::string_view s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string buf(s);
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!(v >= 0.0) || v > 1.0) return false;
  out = v;
  return true;
}

// One throw_at entry: "<worker>@<iteration>" with '*' as any-worker.
bool parse_site(std::string_view s, config::site& out) {
  const auto at = s.find('@');
  if (at == std::string_view::npos) return false;
  const std::string_view ws = s.substr(0, at);
  const std::string_view is = s.substr(at + 1);
  std::uint64_t iter = 0;
  if (!parse_u64(is, iter) ||
      iter > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
    return false;
  }
  if (ws == "*") {
    out.worker = config::kAnyWorker;
  } else {
    std::uint64_t w = 0;
    if (!parse_u64(ws, w) || w >= config::kAnyWorker) return false;
    out.worker = static_cast<std::uint32_t>(w);
  }
  out.iteration = static_cast<std::int64_t>(iter);
  return true;
}

}  // namespace

std::optional<config> config::parse(std::string_view spec) {
  // Bare integer: a seed for the default chaos mix.
  if (std::uint64_t bare = 0; parse_u64(spec, bare)) {
    return default_mix(bare);
  }

  config c;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);

    if (key == "seed") {
      if (!parse_u64(val, c.seed)) return std::nullopt;
    } else if (key == "delay_us") {
      std::uint64_t us = 0;
      if (!parse_u64(val, us) || us > 1'000'000) return std::nullopt;
      c.delay_us = static_cast<std::uint32_t>(us);
    } else if (key == "throw_at") {
      // Semicolon-separated sites within one value.
      std::size_t sp = 0;
      while (sp <= val.size()) {
        auto semi = val.find(';', sp);
        if (semi == std::string_view::npos) semi = val.size();
        const std::string_view one = val.substr(sp, semi - sp);
        sp = semi + 1;
        if (one.empty()) continue;
        site st;
        if (!parse_site(one, st)) return std::nullopt;
        c.throw_at.push_back(st);
      }
    } else {
      bool matched = false;
      for (unsigned h = 0; h < kNumHooks; ++h) {
        if (key == hook_name(static_cast<hook>(h))) {
          if (!parse_rate(val, c.rate[h])) return std::nullopt;
          matched = true;
          break;
        }
      }
      if (!matched) return std::nullopt;
    }
  }
  c.normalize();
  return c;
}

std::optional<config> config::from_env() {
  const char* env = std::getenv("HLS_CHAOS");
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  auto c = parse(env);
  if (!c.has_value()) {
    std::fprintf(stderr,
                 "hls: ignoring malformed HLS_CHAOS spec \"%s\" (expected "
                 "a bare seed or key=value pairs, e.g. "
                 "\"seed=7,claim_fail=0.3,steal_fail=0.2\")\n",
                 env);
  }
  return c;
}

injector::injector(const config& cfg, std::uint32_t num_workers)
    : cfg_(cfg), num_workers_(num_workers == 0 ? 1 : num_workers) {
  cfg_.normalize();
  lanes_.resize(static_cast<std::size_t>(num_workers_) * kNumHooks);
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    for (unsigned h = 0; h < kNumHooks; ++h) {
      // Independent stream per (worker, hook): a worker's decisions at one
      // hook do not depend on how often it reached the others.
      std::uint64_t sm = cfg_.seed ^ (0x9e3779b97f4a7c15ull * (w + 1)) ^
                         (0xbf58476d1ce4e5b9ull * (h + 1));
      lanes_[static_cast<std::size_t>(w) * kNumHooks + h].rng =
          xoshiro256ss(splitmix64(sm));
    }
  }
}

bool injector::fire(hook h, std::uint32_t w) noexcept {
  const double r = cfg_.of(h);
  if (r <= 0 || w >= num_workers_) return false;
  lane& ln =
      lanes_[static_cast<std::size_t>(w) * kNumHooks + static_cast<unsigned>(h)];
  if (ln.rng.next_double() >= r) return false;
  fired_[static_cast<unsigned>(h)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool injector::should_throw(std::uint32_t w, std::int64_t lo,
                            std::int64_t hi) noexcept {
  for (const config::site& st : cfg_.throw_at) {
    if ((st.worker == config::kAnyWorker || st.worker == w) &&
        st.iteration >= lo && st.iteration < hi) {
      fired_[static_cast<unsigned>(hook::body_throw)].fetch_add(
          1, std::memory_order_relaxed);
      return true;
    }
  }
  return fire(hook::body_throw, w);
}

bool injector::maybe_delay(std::uint32_t w) noexcept {
  return maybe_delay(hook::delay, w);
}

bool injector::maybe_delay(hook h, std::uint32_t w) noexcept {
  if (cfg_.delay_us > 0 && is_delay_hook(h) && fire(h, w)) {
    std::this_thread::sleep_for(std::chrono::microseconds(cfg_.delay_us));
    return true;
  }
  return false;
}

std::uint64_t injector::fired_total() const noexcept {
  std::uint64_t t = 0;
  for (const auto& f : fired_) t += f.load(std::memory_order_relaxed);
  return t;
}

std::shared_ptr<injector> make_injector(const std::string& spec,
                                        std::uint32_t num_workers) {
  auto cfg = config::parse(spec);
  if (!cfg.has_value()) {
    throw std::invalid_argument(
        "hls: malformed chaos spec \"" + spec +
        "\" (expected a bare seed or key=value pairs, e.g. "
        "\"seed=7,claim_fail=0.3,steal_fail=0.2,throw_at=*@42\")");
  }
  return std::make_shared<injector>(*cfg, num_workers);
}

}  // namespace hls::faultsim
