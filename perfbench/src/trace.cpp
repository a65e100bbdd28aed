#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

namespace perfbench {
namespace {

// Spans still open on this thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::begin(std::string_view name, std::string_view detail,
                            std::uint64_t trace) {
  if (!enabled_) return 0;
  Span s;
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.trace = trace;
  s.name = name;
  s.detail = detail;
  s.thread = thread_ordinal();
  s.start_ns = now_ns();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    id = spans_.size();
    spans_.back().id = id;
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::add(std::string_view name, std::string_view detail,
                 std::uint64_t parent, std::uint64_t trace,
                 std::int64_t start_ns, std::int64_t end_ns, bool synthetic) {
  if (!enabled_) return;
  Span s;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.detail = detail;
  s.thread = thread_ordinal();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.synthetic = synthetic;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  spans_.back().id = spans_.size();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent's own interval.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.seconds += spans[i].seconds();
    t.self_seconds += self[i];
  }
  return out;
}

void write_jsonl(std::ostream& os, const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"trace\":" << s.trace << ",\"name\":";
    json_string(os, s.name);
    os << ",\"detail\":";
    json_string(os, s.detail);
    os << ",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns
       << ",\"self_ns\":" << static_cast<std::int64_t>(self[i] * 1e9)
       << ",\"synthetic\":" << (s.synthetic ? "true" : "false") << "}\n";
  }
}

}  // namespace perfbench
