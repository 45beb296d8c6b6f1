// Shared plumbing of the end-to-end benchmark: options, the result record
// every workload fills, order statistics, a content digest for inputs and
// outputs, and peak-RSS probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(double ns) { return ns / 1e6; }

/// Fewest ops a run measures, however short `--seconds` is: the p99 of 1000
/// ops still has ten samples beyond it.
constexpr std::size_t kMinOps = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its raw span list ("" = nowhere).
  std::string span_file;
};

/// One workload's outcome. `metrics` are the end-to-end numbers, `layers`
/// the per-layer numbers (filled only by a traced run), `info` free-form
/// labels (input digest, verdict digest, failed-set digest, shares).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> layers;
  std::map<std::string, std::string> info;
  /// Output-check mismatches. Any entry makes the process exit non-zero
  /// without printing a result.
  std::vector<std::string> mismatches;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  void mismatch(std::string what);
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double q);

/// Robust per-run summaries for a noisy host: the ops (in run order) are
/// split into up to 10 consecutive equal windows, so a stall moves one
/// window, not the result.
/// Median over windows of ops per second of summed op time.
double windowed_rate(const std::vector<double>& op_seconds);
/// Lowest over windows of the window's 99th percentile; windows hold at
/// least 1000 ops, so each window's p99 has ten samples beyond it. Host
/// stalls only ever add latency, and they land in the tail first, so the
/// quietest window is the steadiest estimate of the program's own tail; a
/// tail the program makes shows in every window.
double windowed_p99(const std::vector<double>& values);

/// FNV-1a 64-bit running digest, rendered as 16 hex digits. Used for the
/// input, verdict and failed-set digests that must repeat between runs.
class Digest {
 public:
  Digest& add(std::string_view bytes);
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process / of the largest waited-for child, MiB.
double peak_rss_mb_self();
double peak_rss_mb_children();

/// Throws std::runtime_error with `message` unless `ok`.
void require(bool ok, const std::string& message);

/// Every per-layer metric a traced run reports, with its unit, in report
/// order. A workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// Adds `<layer>.self_ms` for each library module: the summed self time of
/// the module's spans in the traced run.
void report_self_times(Result& result);

/// The memo caches whose hit ratio, evictions and miss compute time the
/// traced run reports, and the registry reads behind those numbers.
extern const char* const kCacheNames[9];
struct CacheCounters {
  double hits = 0, misses = 0, evictions = 0, miss_compute_ns = 0;
};
std::map<std::string, CacheCounters> read_caches();
/// after − before, per cache.
std::map<std::string, CacheCounters> cache_delta(const std::map<std::string, CacheCounters>& before,
                                                 const std::map<std::string, CacheCounters>& after);
void report_caches(Result& result, const std::map<std::string, CacheCounters>& delta);

Result run_spec_verdict(const Options& options);
Result run_fleet_stream(const Options& options);
Result run_quant_query(const Options& options);

}  // namespace e2e
