// Workload `quant-query`: weighted automaton → Φ / Φ* / Φ_live.
//
// Setup builds a seeded pool of qc::arbitrary_weighted_nba automata (two
// letters, 10–40 states, dyadic weights, the six value functions in turn)
// plus quant::embed_buchi embeddings of seeded random NBAs. A closed loop
// with one client then runs quant::decompose_at over a seeded stream of
// (automaton, UP-word) queries; most keys are new, so the quant caches
// mostly insert and evict.
#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "buchi/safety.hpp"
#include "common.hpp"
#include "qc/gen.hpp"
#include "quant/closure.hpp"
#include "quant/decomposition.hpp"
#include "quant/embed.hpp"
#include "quant/eval.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using slat::quant::ValueFn;
using slat::quant::WeightedNba;
using slat::words::UpWord;

constexpr int kWeightedAutomata = 384;
constexpr int kEmbeddedAutomata = 128;
constexpr int kSetupRepeats = 9;
/// Queries per second of --seconds, so a run lasts about that long.
constexpr double kQueriesPerSecond = 12000;

struct PoolEntry {
  WeightedNba automaton;
  std::optional<slat::buchi::Nba> embedded_from;  ///< set for embed_buchi entries
};

/// Shape of the k-th of n pool automata. State counts (10–40) and
/// transition densities (0.6–1.4) are spread evenly over the pool, density
/// in a stride-37 order so that it does not follow the state count. The
/// slowest 1% of queries come mostly from a handful of large DiscSum and
/// Inf automata, so with sizes drawn at random the p99 varied by 1.6x from
/// seed to seed; the seed now decides only the transitions, weights and
/// accepting states.
slat::qc::NbaDomain pool_shape(int k, int n) {
  slat::qc::NbaDomain shape;
  shape.min_states = shape.max_states = 10 + k * 31 / n;
  shape.min_alphabet = shape.max_alphabet = 2;
  shape.min_density = shape.max_density = 0.6 + 0.8 * ((k * 37) % n) / (n - 1);
  return shape;
}

std::vector<PoolEntry> build_pool(std::uint64_t seed) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    0x9a7u};
  std::mt19937 rng(seq);
  std::vector<PoolEntry> pool;
  constexpr int kPerFn = kWeightedAutomata / 6;
  for (int i = 0; i < kWeightedAutomata; ++i) {
    const int k = i / 6;
    slat::qc::WeightedNbaDomain domain;
    domain.nba = pool_shape(k, kPerFn);
    domain.all_value_fns = false;
    domain.fixed_fn = slat::quant::kAllValueFns[i % 6];
    domain.random_discount = false;  // DiscSum: λ = 1/2 and 3/4 in turn
    domain.discount = k % 2 == 0 ? 0.5 : 0.75;
    pool.push_back({slat::qc::arbitrary_weighted_nba(domain)(rng), std::nullopt});
  }
  for (int i = 0; i < kEmbeddedAutomata; ++i) {
    slat::buchi::Nba nba = slat::qc::arbitrary_nba(pool_shape(i, kEmbeddedAutomata))(rng);
    pool.push_back({slat::quant::embed_buchi(nba), std::move(nba)});
  }
  return pool;
}

const char* fn_label(ValueFn fn) {
  switch (fn) {
    case ValueFn::kSup: return "sup";
    case ValueFn::kInf: return "inf";
    case ValueFn::kLimSup: return "limsup";
    case ValueFn::kLimInf: return "liminf";
    case ValueFn::kLimAvg: return "limavg";
    case ValueFn::kDiscSum: return "discsum";
  }
  return "unknown";
}

/// decompose_at; the traced run makes its part calls (value, then
/// closure_value) in the same order and composes the live part the same way.
slat::quant::QuantDecomposition query(const WeightedNba& aut, const UpWord& w) {
  if (!Tracer::get().enabled()) return slat::quant::decompose_at(aut, w);
  static std::uint32_t value_names[6];
  static std::uint32_t closure_names[6];
  static const bool named = [] {
    for (int i = 0; i < 6; ++i) {
      const std::string fn = fn_label(slat::quant::kAllValueFns[i]);
      value_names[i] = Tracer::get().name_id("quant.value." + fn);
      closure_names[i] = Tracer::get().name_id("quant.closure_value." + fn);
    }
    return true;
  }();
  (void)named;
  const int fn = static_cast<int>(aut.value_fn());
  Span span(E2E_NAME("quant.decompose_at"));
  slat::quant::QuantDecomposition d;
  {
    Span part(value_names[fn]);
    d.property = slat::quant::value(aut, w);
  }
  {
    Span part(closure_names[fn]);
    d.safety = slat::quant::closure_value(aut, w);
  }
  d.live = d.safety == d.property ? aut.top_value() : d.property;
  return d;
}

}  // namespace

Result run_quant_query(const Options& options) {
  Result result;

  // Setup: build the automaton pool (several times; the median counts).
  std::vector<double> setups;
  std::vector<PoolEntry> pool;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    pool = build_pool(options.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // References for the embed_buchi entries, outside the timed setup: Φ must
  // be acceptance by the source NBA, Φ* acceptance by its safety closure
  // lcl, and Φ_live acceptance by L ∪ ¬lcl(L) (quant/embed.hpp).
  std::vector<std::optional<slat::buchi::Nba>> closures;
  for (const PoolEntry& e : pool) {
    closures.push_back(e.embedded_from ? std::optional(slat::buchi::safety_closure(*e.embedded_from))
                                       : std::nullopt);
  }

  // The query stream is drawn one query at a time, outside the timed
  // path, so inputs do not inflate the process's resident memory.
  const std::size_t n =
      std::max(kMinOps, static_cast<std::size_t>(std::llround(kQueriesPerSecond * options.seconds)));
  std::seed_seq seq{static_cast<std::uint32_t>(options.seed),
                    static_cast<std::uint32_t>(options.seed >> 32), 0x9e71u};
  std::mt19937 rng(seq);
  slat::qc::UpWordDomain words;
  words.alphabet_size = 2;
  words.max_prefix = 8;
  words.max_period = 8;
  const auto word_gen = slat::qc::arbitrary_up_word(words);
  Digest input_digest;
  for (const PoolEntry& e : pool) {
    const auto fp = slat::quant::fingerprint(e.automaton);
    input_digest.add(fp.lo).add(fp.hi);
  }

  Tracer& tracer = Tracer::get();
  tracer.enable(options.trace);
  const auto caches_before = read_caches();
  Digest verdict_digest;
  std::vector<double> latencies_ms;
  std::vector<double> op_seconds;
  latencies_ms.reserve(n);
  op_seconds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<std::uint32_t>(rng() % pool.size());
    const PoolEntry& entry = pool[a];
    const UpWord w = word_gen(rng);
    input_digest.add(std::uint64_t(a)).add(w.to_string(entry.automaton.nba().alphabet()));
    tracer.set_op(static_cast<std::uint32_t>(i));
    const std::int64_t t0 = now_ns();
    const slat::quant::QuantDecomposition d = query(entry.automaton, w);
    const double ns = static_cast<double>(now_ns() - t0);
    op_seconds.push_back(ns / 1e9);
    latencies_ms.push_back(ns / 1e6);

    // Output checks (untimed).
    verdict_digest.add(d.property).add(d.safety).add(d.live);
    if (!(d.property <= d.safety) || std::min(d.safety, d.live) != d.property) {
      result.mismatch("query " + std::to_string(i) + ": Φ ≤ Φ* or Φ = min(Φ*, Φ_live) fails");
    }
    if (entry.embedded_from) {
      const bool in_l = entry.embedded_from->accepts(w);
      const bool in_lcl = closures[a]->accepts(w);
      if (d.property != (in_l ? 1.0 : 0.0) || d.safety != (in_lcl ? 1.0 : 0.0) ||
          d.live != (in_l || !in_lcl ? 1.0 : 0.0)) {
        result.mismatch("query " + std::to_string(i) +
                        ": embed_buchi disagrees with Nba::accepts on L, lcl(L) or L ∪ ¬lcl(L)");
      }
    }
  }

  result.attempted = n;
  result.failed = 0;
  result.metric("ops_per_s", windowed_rate(op_seconds), "1/s");
  result.metric("latency_p50_ms", percentile(latencies_ms, 0.50), "ms");
  result.metric("latency_p99_ms", windowed_p99(latencies_ms), "ms");
  result.metric("peak_rss_mb", peak_rss_mb_self(), "MB");
  result.metric("setup_s", percentile(setups, 0.5), "s");
  result.info["input_digest"] = input_digest.hex();
  result.info["verdict_digest"] = verdict_digest.hex();
  result.info["failed_set_digest"] = Digest().hex();
  result.info["latency_max_ms"] = std::to_string(percentile(latencies_ms, 1.0));

  if (options.trace) {
    const auto delta = cache_delta(caches_before, read_caches());
    double value_ms = 0;
    double closure_ms = 0;
    const auto totals = tracer.totals();
    for (const ValueFn fn : slat::quant::kAllValueFns) {
      const std::string label = fn_label(fn);
      const auto v = totals.find("quant.value." + label);
      const auto c = totals.find("quant.closure_value." + label);
      const double vm = v == totals.end() ? 0.0 : ns_to_ms(v->second.inclusive_ns);
      const double cm = c == totals.end() ? 0.0 : ns_to_ms(c->second.inclusive_ns);
      result.layer("quant.value_ms." + label, vm, "ms");
      result.layer("quant.closure_value_ms." + label, cm, "ms");
      value_ms += vm;
      closure_ms += cm;
    }
    result.layer("quant.value_ms", value_ms, "ms");
    result.layer("quant.closure_value_ms", closure_ms, "ms");
    const auto d = totals.find("quant.decompose_at");
    result.layer("quant.decompose_at_ms", d == totals.end() ? 0.0 : ns_to_ms(d->second.self_ns), "ms");
    result.layer("quant.state_ranks_ms", ns_to_ms(delta.at("quant.state_ranks").miss_compute_ns), "ms");
    report_caches(result, delta);
  }
  return result;
}

}  // namespace e2e
