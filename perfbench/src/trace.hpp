// In-memory spans around the benchmark's calls into the program.
//
// A span is one call into a layer (a module under src/): name, detail,
// start, end, the span that caused it, and a trace id shared by every
// span of one serving request. Spans are kept in memory and written out
// when the run ends. With tracing off, every call is one branch and
// nothing is recorded.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t trace = 0;   ///< request id for serving spans, else 0
  std::string name;
  std::string detail;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  /// Placed from a duration the program returned (the timed loop's
  /// per-iteration samples, an outcome's latency) rather than timed
  /// around a call.
  bool synthetic = false;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span on the calling thread. Its parent is the innermost span
  /// still open on this thread. Returns 0 when tracing is off.
  std::uint64_t begin(std::string_view name, std::string_view detail = {},
                      std::uint64_t trace = 0);
  /// Close a span opened by begin() on the same thread.
  void end(std::uint64_t id);
  /// Record a finished span with an explicit parent (0 = root).
  void add(std::string_view name, std::string_view detail,
           std::uint64_t parent, std::uint64_t trace, std::int64_t start_ns,
           std::int64_t end_ns, bool synthetic);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// RAII span: begin() in the constructor, end() in the destructor.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::string_view detail = {},
        std::uint64_t trace = 0)
      : tracer_(tracer), id_(tracer.begin(name, detail, trace)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

/// Per-span self time: its duration minus the part of its interval that
/// its child spans cover. Indexed like the input (span id - 1).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Totals per span name.
struct SpanTotals {
  double seconds = 0.0;       ///< sum of durations
  double self_seconds = 0.0;  ///< sum of self times
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// One JSON object per span, one per line.
void write_jsonl(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
