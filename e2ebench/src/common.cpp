#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/metrics.hpp"
#include "trace.hpp"

namespace e2e {

void Result::mismatch(std::string what) {
  if (mismatches.size() < 20) mismatches.push_back(std::move(what));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

namespace {

constexpr std::size_t kMaxWindows = 10;

/// window_value(begin, end) for each of `windows` consecutive equal
/// windows of n ops.
template <typename Fn>
std::vector<double> per_window(std::size_t n, std::size_t windows, Fn window_value) {
  windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(n, 1));
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    values.push_back(window_value(w * n / windows, (w + 1) * n / windows));
  }
  return values;
}

}  // namespace

double windowed_rate(const std::vector<double>& op_seconds) {
  const std::vector<double> rates =
      per_window(op_seconds.size(), kMaxWindows, [&](std::size_t begin, std::size_t end) {
        double seconds = 0;
        for (std::size_t i = begin; i < end; ++i) seconds += op_seconds[i];
        return static_cast<double>(end - begin) / seconds;
      });
  return percentile(rates, 0.5);
}

double windowed_p99(const std::vector<double>& values) {
  const std::size_t windows = std::min(kMaxWindows, values.size() / 1000);
  const std::vector<double> p99s =
      per_window(values.size(), windows, [&](std::size_t begin, std::size_t end) {
        return percentile(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                                              values.begin() + static_cast<std::ptrdiff_t>(end)),
                          0.99);
      });
  return *std::min_element(p99s.begin(), p99s.end());
}

Digest& Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator, so ("ab","c") and ("a","bc") differ
  h_ *= 0x100000001b3ULL;
  return *this;
}

Digest& Digest::add(std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  return add(std::string_view(bytes, sizeof bytes));
}

Digest& Digest::add(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_rss_mb_children() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void require(bool ok, const std::string& message) {
  if (!ok) throw std::runtime_error(message);
}

const char* const kCacheNames[9] = {
    "ltl.to_nba",       "buchi.safety_closure", "buchi.det_safety",
    "buchi.complement", "buchi.inclusion",      "quant.value",
    "quant.closure",    "quant.state_ranks",    "quant.closure_automaton",
};

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"ltl.parse_ms", "ms"},
        {"ltl.parse.failed", "count"},
        {"ltl.translate_ms", "ms"},
        {"ltl.translate.failed", "count"},
        {"ltl.nba_states", "count"},
        {"buchi.is_liveness_ms", "ms"},
        {"buchi.is_liveness.failed", "count"},
        {"buchi.det_states", "count"},
        {"buchi.is_safety_ms", "ms"},
        {"buchi.is_safety.failed", "count"},
        {"buchi.complement_states", "count"},
        {"buchi.decompose_ms", "ms"},
        {"buchi.decompose.failed", "count"},
        {"buchi.witness_ms", "ms"},
        {"buchi.witness.failed", "count"},
        {"buchi.inclusion.stem_nodes", "count"},
        {"buchi.inclusion.period_nodes", "count"},
        {"buchi.inclusion.pruned_share", "share"},
        {"buchi.det_safety_ms", "ms"},
        {"finite.good_prefix_dfa_ms", "ms"},
        {"finite.dfa_states", "count"},
        {"monitor.compile_ms", "ms"},
        {"monitor.open_session_ms", "ms"},
        {"monitor.ingest_ms", "ms"},
        {"monitor.ingest_ns_per_event", "ns"},
        {"monitor.latched_event_share", "share"},
        {"monitor.violated_sessions", "count"},
        {"monitor.oob_events", "count"},
        {"monitor.queue_wait_p99_ms", "ms"},
        {"monitor.open_loop_p50_ms", "ms"},
        {"monitor.open_loop_p99_ms", "ms"},
        {"quant.decompose_at_ms", "ms"},
        {"quant.state_ranks_ms", "ms"},
    };
    for (const char* call : {"quant.value_ms", "quant.closure_value_ms"}) {
      c.emplace_back(call, "ms");
      for (const char* fn : {"sup", "inf", "limsup", "liminf", "limavg", "discsum"}) {
        c.emplace_back(std::string(call) + "." + fn, "ms");
      }
    }
    for (const char* cache : kCacheNames) {
      const std::string base = std::string("core.cache.") + cache;
      c.emplace_back(base + ".hit_ratio", "ratio");
      c.emplace_back(base + ".evictions", "count");
      c.emplace_back(base + ".miss_compute_ms", "ms");
    }
    c.emplace_back("core.pool.threads", "count");
    for (const char* module : {"ltl", "buchi", "finite", "monitor", "quant"}) {
      c.emplace_back(std::string(module) + ".self_ms", "ms");
    }
    c.emplace_back("bench.trace_overhead_share", "share");
    return c;
  }();
  return catalog;
}

void report_self_times(Result& result) {
  std::map<std::string, double> self_ns;
  for (const auto& [name, totals] : Tracer::get().totals()) {
    self_ns[name.substr(0, name.find('.'))] += totals.self_ns;
  }
  for (const char* module : {"ltl", "buchi", "finite", "monitor", "quant"}) {
    result.layer(std::string(module) + ".self_ms", ns_to_ms(self_ns[module]), "ms");
  }
}

std::map<std::string, CacheCounters> read_caches() {
  auto& registry = slat::core::metrics();
  std::map<std::string, CacheCounters> out;
  for (const char* cache : kCacheNames) {
    const std::string base = std::string("cache.") + cache;
    CacheCounters& c = out[cache];
    c.hits = static_cast<double>(registry.counter(base + ".hits").value());
    c.misses = static_cast<double>(registry.counter(base + ".misses").value());
    c.evictions = static_cast<double>(registry.counter(base + ".evictions").value());
    c.miss_compute_ns = static_cast<double>(registry.timer(base + ".miss_compute").total_ns());
  }
  return out;
}

std::map<std::string, CacheCounters> cache_delta(const std::map<std::string, CacheCounters>& before,
                                                 const std::map<std::string, CacheCounters>& after) {
  std::map<std::string, CacheCounters> out;
  for (const auto& [name, a] : after) {
    const CacheCounters& b = before.at(name);
    out[name] = {a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
                 a.miss_compute_ns - b.miss_compute_ns};
  }
  return out;
}

void report_caches(Result& result, const std::map<std::string, CacheCounters>& delta) {
  for (const auto& [cache, c] : delta) {
    const std::string base = "core.cache." + cache;
    const double lookups = c.hits + c.misses;
    result.layer(base + ".hit_ratio", lookups > 0 ? c.hits / lookups : 0.0, "ratio");
    result.layer(base + ".evictions", c.evictions, "count");
    result.layer(base + ".miss_compute_ms", ns_to_ms(c.miss_compute_ns), "ms");
  }
}

}  // namespace e2e
