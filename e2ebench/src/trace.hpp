// Span recorder for the traced run. A span brackets one call the benchmark
// makes into a public library function: name ("<layer>.<call>"), start,
// end, parent span and op id. Spans stay in memory and are aggregated (and
// optionally written out) at the end; a span's self time is its duration
// minus the durations of its direct children.
//
// The untraced run never enables the recorder, so a Span there costs one
// predictable branch and no clock read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::uint32_t name;   ///< index into Tracer::name()
  std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  std::uint32_t op;     ///< op the span belongs to
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::uint32_t name_id(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  void set_op(std::uint32_t op) { op_ = op; }

  /// Opens a span under the innermost open one; -1 when disabled.
  std::int32_t open(std::uint32_t name);
  void close(std::int32_t index);
  /// Records a finished span measured elsewhere (a worker process, or the
  /// part of a stage a failed op spent before it died).
  void add(std::uint32_t name, std::int32_t parent, std::uint32_t op, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  struct Totals {
    double inclusive_ns = 0;
    double self_ns = 0;
    std::uint64_t count = 0;
  };
  /// Per span name: summed duration, summed self time, span count.
  std::map<std::string, Totals> totals() const;
  /// Tab-separated dump, one span per line: op, name, parent, start, end.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> ids_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one public call.
class Span {
 public:
  explicit Span(std::uint32_t name) : index_(Tracer::get().open(name)) {}
  ~Span() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

/// Interns `name` once per call site.
#define E2E_NAME(name)                                                        \
  ([]() -> std::uint32_t {                                                    \
    static const std::uint32_t id = ::e2e::Tracer::get().name_id(name);       \
    return id;                                                                \
  }())

}  // namespace e2e
