// End-to-end benchmark harness: runs one workload through the library's
// public API and prints one JSON line with its metrics.
//
//   e2ebench --workload <spec-verdict|fleet-stream|quant-query>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Output checks run outside the timed code; a mismatch prints the problem
// on stderr and exits with code 2, never a result. run.py builds this
// binary, adds provenance and prints the contract's result line.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/thread_pool.hpp"
#include "trace.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(value.first) +
           ", \"unit\": " + json_string(value.second) + "}";
    first = false;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <spec-verdict|fleet-stream|quant-query> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--spans") {
      options.span_file = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return usage();

  e2e::Result result;
  try {
    if (options.workload == "spec-verdict") {
      result = e2e::run_spec_verdict(options);
    } else if (options.workload == "fleet-stream") {
      result = e2e::run_fleet_stream(options);
    } else if (options.workload == "quant-query") {
      result = e2e::run_quant_query(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  if (!result.mismatches.empty()) {
    for (const std::string& m : result.mismatches) {
      std::fprintf(stderr, "e2ebench: output check failed: %s\n", m.c_str());
    }
    return 2;
  }
  if (options.trace) {
    e2e::report_self_times(result);
    result.layer("core.pool.threads", slat::core::ThreadPool::global().num_threads(), "count");
    // Layers this workload does not exercise read 0; a name outside the
    // catalog is a harness bug.
    for (const auto& [name, unit] : e2e::layer_catalog()) {
      if (name != "bench.trace_overhead_share" && !result.layers.count(name)) {
        result.layer(name, 0.0, unit);
      }
    }
    for (const auto& [name, value] : result.layers) {
      bool known = false;
      for (const auto& entry : e2e::layer_catalog()) known = known || entry.first == name;
      if (!known) {
        std::fprintf(stderr, "e2ebench: unknown layer metric %s\n", name.c_str());
        return 1;
      }
    }
    if (!options.span_file.empty() && !e2e::Tracer::get().write(options.span_file)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", options.span_file.c_str());
      return 1;
    }
  }

  // Provenance of the process that did (or drove) the work. The pool is
  // queried only now: the spec-verdict client must stay single-threaded
  // while it forks workers.
  result.info["build_type"] = SLAT_BENCH_BUILD_TYPE;
  result.info["compiler"] = SLAT_BENCH_COMPILER;
  result.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.info["pool_threads"] = std::to_string(slat::core::ThreadPool::global().num_threads());

  std::string info = "{";
  bool first = true;
  for (const auto& [k, v] : result.info) {
    info += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  info += "}";
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, \"layers\": %s, \"info\": %s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json_metrics(result.metrics).c_str(),
              json_metrics(result.layers).c_str(), info.c_str());
  return 0;
}
