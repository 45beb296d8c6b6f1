// Workload `spec-verdict`: the paper's §2 pipeline, one spec at a time.
//
// A single client (this process) feeds a seeded spec corpus to a long-lived
// worker process that keeps the library defaults (caches on). Per spec the
// worker runs LtlArena::parse → ltl::to_nba → buchi::classify →
// buchi::decompose → witness, replies with the verdict, and then checks its
// own outputs against references (outside the timed path). Each spec runs
// under a memory cap and a deadline; a spec that exhausts either counts as
// failed under the stage it died in, and the run continues in a fresh
// worker. The worker publishes its current stage in a shared page so the
// client can attribute a failure even after the worker is gone.
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "buchi/complement.hpp"
#include "buchi/inclusion.hpp"
#include "buchi/nba.hpp"
#include "buchi/safety.hpp"
#include "core/metrics.hpp"
#include "core/thread_pool.hpp"
#include "common.hpp"
#include "heap_cap.hpp"
#include "ltl/eval.hpp"
#include "ltl/formula.hpp"
#include "ltl/rem.hpp"
#include "ltl/syntactic.hpp"
#include "ltl/translate.hpp"
#include "qc/gen.hpp"
#include "trace.hpp"
#include "words/up_word.hpp"

namespace e2e {
namespace {

using slat::buchi::Nba;
using slat::buchi::SafetyClass;
using slat::ltl::FormulaId;
using slat::ltl::LtlArena;
using slat::words::Alphabet;
using slat::words::UpWord;

// --- Budgets ---------------------------------------------------------------
// A spec is decided, or it fails by exhausting one of these. Successful
// specs finish within ~50 ms; the blowups (rank complementation inside
// is_safety) run into the memory cap within a few tens of milliseconds, so
// the deadline, 20x the slowest success seen, only catches specs that grind
// without allocating. That margin, and a cap on live bytes rather than on
// pages, keep the failed set independent of timing.
constexpr double kDeadlineS = 1.0;
/// Memory cap: live heap bytes a spec may add to what the worker holds when
/// the spec arrives (heap_cap.hpp). Relative, so every spec gets the same
/// budget whatever the pool size, the client's footprint or the memo
/// caches' contents.
constexpr std::int64_t kHeapBudgetBytes = std::int64_t{16} << 20;
/// Kernel limit on the worker's data above its ready footprint. Only a
/// backstop for memory taken outside operator new: it sits far above what
/// the memo caches of a long-lived worker reach, so it never decides a spec.
constexpr rlim_t kDataBackstopBytes = rlim_t{256} << 20;
/// Budget for the post-verdict reference checks; exhausting it is a
/// harness fault, not a spec failure, and fails the run.
constexpr double kCheckDeadlineS = 30.0;
/// Corpus size per second of --seconds, so a run lasts about that long.
constexpr double kSpecsPerSecond = 100.0;

constexpr int kFormulaDepth = 3;

std::vector<Alphabet> corpus_alphabets() {
  const auto aps = [](int k) {
    std::vector<std::string> names;
    for (int i = 0; i < k; ++i) names.push_back("p" + std::to_string(i));
    return Alphabet::of_aps(names);
  };
  return {Alphabet::binary(), aps(2), aps(4), aps(8)};
}

const char* const kAlphabetLabels[] = {"binary", "ap2", "ap4", "ap8"};

struct SpecInput {
  int alphabet = 0;
  std::string text;
  int rem = -1;  ///< index into ltl::rem_examples(), or -1
  FormulaId generated = -1;  ///< id in the client's generation arena
};

// --- Stages ----------------------------------------------------------------
enum Stage : int {
  kIdle,
  kParse,
  kTranslate,
  kClassify,  // untraced run: classify as one call
  kIsLiveness,
  kIsSafety,
  kDecompose,
  kWitness,
  kCheck,
};

const char* stage_name(int stage) {
  switch (stage) {
    case kParse: return "ltl.parse";
    case kTranslate: return "ltl.translate";
    case kClassify: return "buchi.classify";
    case kIsLiveness: return "buchi.is_liveness";
    case kIsSafety: return "buchi.is_safety";
    case kDecompose: return "buchi.decompose";
    case kWitness: return "buchi.witness";
    case kCheck: return "check";
    default: return "idle";
  }
}

/// Shared between client and worker (MAP_SHARED, inherited over fork).
struct StagePage {
  std::atomic<int> stage;
  std::atomic<std::int64_t> stage_start_ns;
};

// --- Registry counters the traced worker reports per op ----------------------
const char* const kInclusionCounters[] = {"buchi.inclusion.stem_nodes",
                                          "buchi.inclusion.period_nodes",
                                          "buchi.inclusion.subsumption_prunings"};

struct RegistrySnapshot {
  std::map<std::string, CacheCounters> caches = read_caches();
  std::vector<std::uint64_t> inclusion = [] {
    std::vector<std::uint64_t> v;
    for (const char* name : kInclusionCounters) {
      v.push_back(slat::core::metrics().counter(name).value());
    }
    return v;
  }();
};

// --- Pipe I/O ---------------------------------------------------------------
void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; the reader side notices
    }
    done += static_cast<std::size_t>(n);
  }
}

class LineReader {
 public:
  enum Status { kLine, kEof, kTimeout };
  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads one '\n'-terminated line, waiting until `deadline_ns` at most.
  Status read_line(std::string& line, std::int64_t deadline_ns) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return kLine;
      }
      const std::int64_t left_ns = deadline_ns - now_ns();
      if (left_ns <= 0) return kTimeout;
      pollfd p{fd_, POLLIN, 0};
      const int timeout_ms = static_cast<int>(std::min<std::int64_t>(left_ns / 1000000 + 1, 1 << 30));
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;  // re-check the deadline
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return kEof;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', begin);
    out.push_back(line.substr(begin, tab == std::string::npos ? std::string::npos : tab - begin));
    if (tab == std::string::npos) return out;
    begin = tab + 1;
  }
}

// --- Worker -------------------------------------------------------------------
class Worker {
 public:
  Worker(StagePage* page, int out_fd, bool traced)
      : page_(page), out_fd_(out_fd), traced_(traced) {
    for (const Alphabet& a : corpus_alphabets()) arenas_.emplace_back(a);
    for (const Alphabet& a : corpus_alphabets()) {
      const int letters = std::min(a.size(), 3);
      check_words_.push_back(slat::words::enumerate_up_words(letters, 2, 2));
    }
    Tracer::get().enable(traced);
  }

  /// Serves specs until stdin closes.
  void serve(int in_fd) {
    LineReader in(in_fd);
    std::string line;
    while (in.read_line(line, std::numeric_limits<std::int64_t>::max()) == LineReader::kLine) {
      const std::vector<std::string> fields = split_tabs(line);
      if (fields.size() != 3) _exit(4);
      run_op(static_cast<std::uint32_t>(std::stoul(fields[0])), std::stoi(fields[1]), fields[2]);
    }
  }

 private:
  void enter(Stage stage) {
    page_->stage_start_ns.store(now_ns(), std::memory_order_relaxed);
    page_->stage.store(stage, std::memory_order_release);
  }

  void run_op(std::uint32_t op, int alphabet, const std::string& text) {
    cap_heap_growth(kHeapBudgetBytes);
    LtlArena& arena = arenas_[static_cast<std::size_t>(alphabet)];
    Tracer& tracer = Tracer::get();
    tracer.clear();
    tracer.set_op(op);
    std::optional<RegistrySnapshot> before;
    if (traced_) before.emplace();
    std::ostringstream sizes;

    enter(kParse);
    std::optional<FormulaId> parsed;
    {
      Span span(E2E_NAME("ltl.parse"));
      parsed = arena.parse(text);
    }
    if (!parsed) {
      const std::string message = "parse-back failed: " + text;
      write_all(out_fd_, "E\t" + std::to_string(op) + "\t" + message + "\nC\t" +
                             std::to_string(op) + "\t" + message + "\n");
      return;
    }
    const FormulaId f = *parsed;

    enter(kTranslate);
    Nba nba = [&] {
      Span span(E2E_NAME("ltl.translate"));
      return slat::ltl::to_nba(arena, f);
    }();
    if (traced_) sizes << "Z\tltl.nba_states\t" << nba.num_states() << "\n";

    bool live = false;
    bool safe = false;
    if (!traced_) {
      enter(kClassify);
      const SafetyClass c = slat::buchi::classify(nba);
      live = c == SafetyClass::kLiveness || c == SafetyClass::kSafetyAndLiveness;
      safe = c == SafetyClass::kSafety || c == SafetyClass::kSafetyAndLiveness;
    } else {
      // classify = is_liveness, then is_safety; each made of its public
      // parts so the traced run can report the automaton sizes.
      Span classify(E2E_NAME("buchi.classify"));
      enter(kIsLiveness);
      {
        Span span(E2E_NAME("buchi.is_liveness"));
        const slat::buchi::DetSafety det = [&] {
          Span part(E2E_NAME("buchi.det_safety"));
          return slat::buchi::DetSafety::from_nba(nba);
        }();
        sizes << "Z\tbuchi.det_states\t" << det.num_states() << "\n";
        Span part(E2E_NAME("buchi.is_universal"));
        live = det.is_universal();
      }
      enter(kIsSafety);
      {
        Span span(E2E_NAME("buchi.is_safety"));
        const Nba closure = [&] {
          Span part(E2E_NAME("buchi.safety_closure"));
          return slat::buchi::safety_closure(nba);
        }();
        const Nba not_l = [&] {
          Span part(E2E_NAME("buchi.complement"));
          return slat::buchi::complement(nba);
        }();
        sizes << "Z\tbuchi.complement_states\t" << not_l.num_states() << "\n";
        const Nba product = [&] {
          Span part(E2E_NAME("buchi.intersect"));
          return slat::buchi::intersect(closure, not_l);
        }();
        Span part(E2E_NAME("buchi.is_empty"));
        safe = product.is_empty();
      }
    }

    enter(kDecompose);
    const slat::buchi::BuchiDecomposition parts = [&] {
      Span span(E2E_NAME("buchi.decompose"));
      return slat::buchi::decompose(nba);
    }();

    enter(kWitness);
    std::optional<UpWord> safety_witness;
    std::optional<UpWord> liveness_witness;
    bool witness_found = true;
    if (!safe || !live) {
      Span span(E2E_NAME("buchi.witness"));
      const Nba closure = [&] {
        Span part(E2E_NAME("buchi.safety_closure"));
        return slat::buchi::safety_closure(nba);
      }();
      if (!safe) {
        Span part(E2E_NAME("buchi.check_inclusion"));
        safety_witness = slat::buchi::check_inclusion(closure, nba).counterexample;
        witness_found = witness_found && safety_witness.has_value();
      }
      if (!live) {
        Span part(E2E_NAME("buchi.check_universality"));
        liveness_witness = slat::buchi::check_universality(closure).counterexample;
        witness_found = witness_found && liveness_witness.has_value();
      }
    }
    enter(kIdle);

    // Reply: spans and registry deltas first (traced), then the verdict.
    std::ostringstream reply;
    if (traced_) {
      const RegistrySnapshot after;
      for (std::size_t i = 0; i < std::size(kInclusionCounters); ++i) {
        if (after.inclusion[i] != before->inclusion[i]) {
          reply << "M\t" << kInclusionCounters[i] << "\t"
                << after.inclusion[i] - before->inclusion[i] << "\n";
        }
      }
      for (const auto& [cache, d] : cache_delta(before->caches, after.caches)) {
        if (d.hits + d.misses + d.evictions + d.miss_compute_ns == 0) continue;
        reply << "K\t" << cache << "\t" << d.hits << "\t" << d.misses << "\t" << d.evictions
              << "\t" << d.miss_compute_ns << "\n";
      }
      reply << sizes.str();
      for (const SpanRecord& s : tracer.spans()) {
        reply << "S\t" << tracer.name(s.name) << "\t" << s.parent << "\t" << s.start_ns << "\t"
              << s.end_ns << "\n";
      }
    }
    const Alphabet& sigma = arena.alphabet();
    reply << "V\t" << op << "\t" << (safe ? 1 : 0) << (live ? 1 : 0) << "\t" << nba.num_states()
          << "\t" << (safety_witness ? safety_witness->to_string(sigma) : "-") << "\t"
          << (liveness_witness ? liveness_witness->to_string(sigma) : "-") << "\n";
    write_all(out_fd_, reply.str());

    // Reference checks, outside the timed path, on a budget of their own.
    enter(kCheck);
    cap_heap_growth(kHeapBudgetBytes);
    std::string problem;
    if (!witness_found) problem = "classify and the inclusion engine disagree (no witness)";
    for (const auto* w : {&safety_witness, &liveness_witness}) {
      if (problem.empty() && w->has_value() && slat::ltl::holds(arena, f, **w)) {
        problem = "ltl::holds accepts witness " + (*w)->to_string(sigma);
      }
    }
    if (problem.empty()) {
      for (const UpWord& w : check_words_[static_cast<std::size_t>(alphabet)]) {
        const bool truth = slat::ltl::holds(arena, f, w);
        if (truth != (parts.safety.accepts(w) && parts.liveness.accepts(w))) {
          problem = "decomposition identity fails at " + w.to_string(sigma);
          break;
        }
        if (truth != nba.accepts(w)) {
          problem = "translation disagrees with ltl::holds at " + w.to_string(sigma);
          break;
        }
      }
    }
    enter(kIdle);
    write_all(out_fd_, "C\t" + std::to_string(op) + "\t" + (problem.empty() ? "ok" : problem) + "\n");
  }

  StagePage* page_;
  int out_fd_;
  bool traced_;
  std::vector<LtlArena> arenas_;
  std::vector<std::vector<UpWord>> check_words_;
};

/// VmData of this process: its private writable memory, what RLIMIT_DATA
/// limits.
rlim_t data_footprint_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  require(f != nullptr, "cannot read /proc/self/status");
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmData: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  require(kib > 0, "VmData not found in /proc/self/status");
  return static_cast<rlim_t>(kib) << 10;
}

// --- Client -------------------------------------------------------------------
struct WorkerProcess {
  pid_t pid = -1;
  int to_worker = -1;
  int from_worker = -1;
  std::unique_ptr<LineReader> reader;
};

std::vector<SpecInput> make_corpus(std::uint64_t seed, std::size_t n,
                                   std::vector<LtlArena>& arenas) {
  std::vector<SpecInput> corpus;
  const auto& rem = slat::ltl::rem_examples();
  for (std::size_t i = 0; i < rem.size(); ++i) {
    SpecInput s;
    s.alphabet = 0;
    s.text = rem[i].formula;
    s.rem = static_cast<int>(i);
    s.generated = *arenas[0].parse(s.text);
    corpus.push_back(std::move(s));
  }
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    0x5eedu};
  std::mt19937 rng(seq);
  while (corpus.size() < n) {
    SpecInput s;
    s.alphabet = static_cast<int>(corpus.size() % arenas.size());
    LtlArena& arena = arenas[static_cast<std::size_t>(s.alphabet)];
    s.generated = slat::qc::random_formula(arena, kFormulaDepth, rng);
    s.text = arena.to_string(s.generated);
    corpus.push_back(std::move(s));
  }
  return corpus;
}

class Client {
 public:
  Client(const Options& options, Result& result) : options_(options), result_(result) {
    void* mem = mmap(nullptr, sizeof(StagePage), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    require(mem != MAP_FAILED, "mmap of the stage page failed");
    page_ = new (mem) StagePage{};
  }

  /// Forks a fresh worker and waits for its ready line; returns start time.
  double spawn() {
    const std::int64_t t0 = now_ns();
    int down[2];
    int up[2];
    require(pipe(down) == 0 && pipe(up) == 0, "pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    require(pid >= 0, "fork failed");
    if (pid == 0) {
      ::close(down[1]);
      ::close(up[0]);
      rlimit core{0, 0};
      setrlimit(RLIMIT_CORE, &core);
      try {
        page_->stage.store(kIdle);
        slat::core::ThreadPool::global();  // the library's default pool
        Worker worker(page_, up[1], options_.trace);
        const rlim_t backstop = data_footprint_bytes() + kDataBackstopBytes;
        rlimit limit{backstop, backstop};
        if (setrlimit(RLIMIT_DATA, &limit) != 0) _exit(5);
        write_all(up[1], "R\n");
        worker.serve(down[0]);
      } catch (const std::bad_alloc&) {
        _exit(3);
      }
      _exit(0);
    }
    ::close(down[0]);
    ::close(up[1]);
    worker_.pid = pid;
    worker_.to_worker = down[1];
    worker_.from_worker = up[0];
    worker_.reader = std::make_unique<LineReader>(up[0]);
    std::string line;
    const auto status = worker_.reader->read_line(line, now_ns() + 60'000'000'000LL);
    require(status == LineReader::kLine && line == "R", "worker failed to start");
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    start_times_.push_back(seconds);
    return seconds;
  }

  void stop(bool kill_it) {
    if (worker_.pid < 0) return;
    if (kill_it) ::kill(worker_.pid, SIGKILL);
    ::close(worker_.to_worker);
    ::close(worker_.from_worker);
    int status = 0;
    while (waitpid(worker_.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker_ = WorkerProcess{};
  }

  void run() {
    std::vector<LtlArena> arenas;
    for (const Alphabet& a : corpus_alphabets()) arenas.emplace_back(a);
    const std::size_t n = std::max(
        kMinOps, static_cast<std::size_t>(std::llround(kSpecsPerSecond * options_.seconds)));
    const std::vector<SpecInput> corpus = make_corpus(options_.seed, n, arenas);

    Digest input_digest;
    for (const SpecInput& s : corpus) input_digest.add(std::uint64_t(s.alphabet)).add(s.text);
    std::set<std::string> distinct;
    for (const SpecInput& s : corpus) distinct.insert(std::to_string(s.alphabet) + s.text);

    Tracer& tracer = Tracer::get();
    tracer.enable(options_.trace);
    ::signal(SIGPIPE, SIG_IGN);

    Digest verdict_digest;
    Digest failed_digest;
    std::map<std::string, double> failed_by_stage;
    std::map<std::string, double> counters;
    std::map<std::string, CacheCounters> caches;
    for (const char* cache : kCacheNames) caches[cache] = {};
    std::vector<double> latencies_ms;
    double busy_s = 0;  // op time + respawns: the wall time specs used
    std::uint64_t decided = 0;
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
    double failed_s = 0;
    std::uint64_t failures_per_alphabet[4] = {};
    std::uint64_t specs_per_alphabet[4] = {};

    spawn();
    const double deadline_ms = kDeadlineS * 1e3;
    std::string line;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const SpecInput& spec = corpus[i];
      ++specs_per_alphabet[spec.alphabet];
      page_->stage.store(kIdle);
      const std::string request =
          std::to_string(i) + "\t" + std::to_string(spec.alphabet) + "\t" + spec.text + "\n";
      const std::int64_t t0 = now_ns();
      write_all(worker_.to_worker, request);
      bool got_verdict = false;
      std::vector<SpanRecord> op_spans;
      LineReader::Status status = LineReader::kLine;
      while (!got_verdict) {
        status = worker_.reader->read_line(line, t0 + static_cast<std::int64_t>(kDeadlineS * 1e9));
        if (status != LineReader::kLine) break;
        const std::vector<std::string> f = split_tabs(line);
        if (f[0] == "V") {
          got_verdict = true;
          const double ms = static_cast<double>(now_ns() - t0) / 1e6;
          latencies_ms.push_back(ms);
          busy_s += ms / 1e3;
          ++decided;
          verdict_digest.add(std::uint64_t(i)).add(f[2]).add(f[4]).add(f[5]);
          check_class(spec, f[2], arenas);
        } else if (f[0] == "S") {
          const std::uint32_t name = tracer.name_id(f[1]);
          const int parent = std::stoi(f[2]);
          op_spans.push_back(SpanRecord{name, parent, static_cast<std::uint32_t>(i),
                                        std::stoll(f[3]), std::stoll(f[4])});
        } else if (f[0] == "M" || f[0] == "Z") {
          counters[f[1]] += std::stod(f[2]);
        } else if (f[0] == "K") {
          CacheCounters& c = caches[f[1]];
          c.hits += std::stod(f[2]);
          c.misses += std::stod(f[3]);
          c.evictions += std::stod(f[4]);
          c.miss_compute_ns += std::stod(f[5]);
        } else if (f[0] == "E") {
          result_.mismatch("spec " + std::to_string(i) + ": " + f[2]);
          got_verdict = true;
          ++decided;
          latencies_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        }
      }
      if (got_verdict) {
        const std::size_t base = tracer.spans().size();
        for (const SpanRecord& s : op_spans) {
          tracer.add(s.name, s.parent < 0 ? -1 : static_cast<std::int32_t>(base) + s.parent,
                     s.op, s.start_ns, s.end_ns);
        }
        // Wait for the worker's reference checks (untimed).
        const auto check = worker_.reader->read_line(
            line, now_ns() + static_cast<std::int64_t>(kCheckDeadlineS * 1e9));
        if (check != LineReader::kLine) {
          result_.mismatch("spec " + std::to_string(i) + " (" + spec.text +
                           "): reference check did not finish within its budget");
          stop(true);
          spawn();
        } else {
          const std::vector<std::string> f = split_tabs(line);
          if (f.size() < 3 || f[0] != "C" || f[2] != "ok") {
            result_.mismatch("spec " + std::to_string(i) + " (" + spec.text + "): " +
                             (f.size() >= 3 ? f[2] : line));
          }
        }
        continue;
      }
      // Failed: the worker died (memory cap) or overran the deadline.
      const std::int64_t t_fail = now_ns();
      const int stage = page_->stage.load(std::memory_order_acquire);
      const std::int64_t stage_start = page_->stage_start_ns.load(std::memory_order_relaxed);
      const double elapsed_ms = static_cast<double>(t_fail - t0) / 1e6;
      stop(status == LineReader::kTimeout);
      ++failures;
      ++failures_per_alphabet[spec.alphabet];
      failed_by_stage[stage_name(stage)] += 1;
      failed_digest.add(std::uint64_t(i)).add(spec.text);
      if (stage != kIdle && stage_start >= t0) {
        tracer.add(tracer.name_id(stage_name(stage)), -1, static_cast<std::uint32_t>(i),
                   stage_start, t_fail);
      }
      const double respawn_s = spawn();
      busy_s += elapsed_ms / 1e3 + respawn_s;
      failed_s += elapsed_ms / 1e3 + respawn_s;
      if (status == LineReader::kTimeout) ++timeouts;
      // A failure never reads better than a slow success: it enters the
      // distribution at the deadline (or later), plus the restart it forced.
      latencies_ms.push_back(std::max(deadline_ms, elapsed_ms) + respawn_s * 1e3);
    }
    stop(false);

    result_.attempted = corpus.size();
    result_.failed = failures;
    result_.metric("ops_per_s", static_cast<double>(decided) / busy_s, "1/s");
    result_.metric("latency_p50_ms", percentile(latencies_ms, 0.50), "ms");
    result_.metric("latency_p99_ms", percentile(latencies_ms, 0.99), "ms");
    result_.metric("peak_rss_mb", peak_rss_mb_children(), "MB");
    double setup = 0;
    for (const double s : start_times_) setup += s;
    result_.metric("setup_s", setup, "s");

    result_.info["input_digest"] = input_digest.hex();
    result_.info["verdict_digest"] = verdict_digest.hex();
    result_.info["failed_set_digest"] = failed_digest.hex();
    result_.info["repeat_share"] = std::to_string(
        1.0 - static_cast<double>(distinct.size()) / static_cast<double>(corpus.size()));
    result_.info["worker_starts"] = std::to_string(start_times_.size());
    result_.info["failed_by_deadline"] = std::to_string(timeouts);
    result_.info["failed_time_share"] = std::to_string(failed_s / busy_s);
    std::ostringstream by_alphabet;
    for (int a = 0; a < 4; ++a) {
      by_alphabet << (a ? " " : "") << kAlphabetLabels[a] << "=" << failures_per_alphabet[a] << "/"
                  << specs_per_alphabet[a];
    }
    result_.info["failed_per_alphabet"] = by_alphabet.str();
    std::ostringstream by_stage;
    for (const auto& [stage, count] : failed_by_stage) by_stage << stage << "=" << count << " ";
    result_.info["failed_per_stage"] = by_stage.str();

    if (options_.trace) {
      report_layers(counters, failed_by_stage);
      report_caches(result_, caches);
    }
  }

 private:
  void check_class(const SpecInput& spec, const std::string& bits,
                   std::vector<LtlArena>& arenas) {
    const bool safe = bits[0] == '1';
    const bool live = bits[1] == '1';
    if (spec.rem >= 0) {
      const SafetyClass expected = slat::ltl::rem_examples()[spec.rem].expected;
      const bool exp_safe =
          expected == SafetyClass::kSafety || expected == SafetyClass::kSafetyAndLiveness;
      const bool exp_live =
          expected == SafetyClass::kLiveness || expected == SafetyClass::kSafetyAndLiveness;
      if (safe != exp_safe || live != exp_live) {
        result_.mismatch("Rem " + slat::ltl::rem_examples()[spec.rem].name +
                         " classified against the paper");
      }
    }
    if (!safe && slat::ltl::in_syntactic_safety_fragment(
                     arenas[static_cast<std::size_t>(spec.alphabet)], spec.generated)) {
      result_.mismatch("syntactic-safety spec classed non-safety: " + spec.text);
    }
  }

  void report_layers(const std::map<std::string, double>& counters,
                     const std::map<std::string, double>& failed_by_stage);

  const Options& options_;
  Result& result_;
  StagePage* page_ = nullptr;
  WorkerProcess worker_;
  std::vector<double> start_times_;
};

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

void Client::report_layers(const std::map<std::string, double>& counters,
                           const std::map<std::string, double>& failed_by_stage) {
  const auto totals = Tracer::get().totals();
  const auto ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : ns_to_ms(it->second.inclusive_ns);
  };
  for (const char* call : {"ltl.parse", "ltl.translate", "buchi.is_safety", "buchi.is_liveness",
                           "buchi.decompose", "buchi.witness", "buchi.det_safety"}) {
    result_.layer(std::string(call) + "_ms", ms(call), "ms");
  }
  for (const char* stage : {"ltl.parse", "ltl.translate", "buchi.is_liveness", "buchi.is_safety",
                            "buchi.decompose", "buchi.witness"}) {
    result_.layer(std::string(stage) + ".failed", get(failed_by_stage, stage), "count");
  }
  for (const char* size : {"ltl.nba_states", "buchi.det_states", "buchi.complement_states"}) {
    result_.layer(size, get(counters, size), "count");
  }
  const double stem = get(counters, "buchi.inclusion.stem_nodes");
  const double period = get(counters, "buchi.inclusion.period_nodes");
  const double pruned = get(counters, "buchi.inclusion.subsumption_prunings");
  result_.layer("buchi.inclusion.stem_nodes", stem, "count");
  result_.layer("buchi.inclusion.period_nodes", period, "count");
  result_.layer("buchi.inclusion.pruned_share",
                stem + period + pruned > 0 ? pruned / (stem + period + pruned) : 0.0, "share");
}

}  // namespace

Result run_spec_verdict(const Options& options) {
  Result result;
  Client client(options, result);
  client.run();
  return result;
}

}  // namespace e2e
