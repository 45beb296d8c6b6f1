#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace e2e {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::name_id(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::int32_t Tracer::open(std::uint32_t name) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(SpanRecord{name, stack_.empty() ? -1 : stack_.back(), op_, 0, 0});
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping stays outside
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add(std::uint32_t name, std::int32_t parent, std::uint32_t op,
                 std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(SpanRecord{name, parent, op, start_ns, end_ns});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[names_[s.name]];
    t.inclusive_ns += duration;
    t.self_ns += duration - child_ns[i];
    ++t.count;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tname\tparent\tstart_ns\tend_ns\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%u\t%s\t%d\t%lld\t%lld\n", s.op, names_[s.name].c_str(), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
