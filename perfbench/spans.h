// Span log for the benchmark's traced run: one record per call the
// benchmark makes into a layer (name, start, end, parent), kept in memory
// and written out when the run ends. Disarmed, a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;  // a string literal: spans never allocate
  double start = 0;  // seconds since the log's epoch
  double end = 0;
  int parent = -1;   // index of the enclosing span, -1 at the top
};

/// Self time per span name over one range of spans: a span's duration
/// minus the part its direct children cover (children never overlap: the
/// benchmark is single-threaded).
struct SelfTimes {
  std::map<std::string, double> seconds;
  std::map<std::string, long long> calls;
};

class SpanLog {
 public:
  void set_armed(bool on) noexcept { armed_ = on; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  int open(const char* name) {
    if (!armed_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self times of spans [first, size()); when `under` is given, only
  /// spans nested (at any depth) inside a span of that name count.
  [[nodiscard]] SelfTimes self_times(std::size_t first,
                                     const std::string& under = "") const {
    const std::size_t n = spans_.size();
    std::vector<double> child(n - first, 0.0);
    std::vector<char> inside(n - first, under.empty() ? 1 : 0);
    for (std::size_t i = first; i < n; ++i) {
      const SpanRecord& s = spans_[i];
      const bool parent_in_range =
          s.parent >= static_cast<int>(first);
      if (parent_in_range) {
        const std::size_t p = static_cast<std::size_t>(s.parent) - first;
        child[p] += s.end - s.start;
        if (inside[p] != 0 && under != s.name) {
          inside[i - first] = 1;
        }
      }
      if (!under.empty() && under == s.name) {
        inside[i - first] = 2;  // the enclosing span itself, not a layer
      }
    }
    SelfTimes out;
    for (std::size_t i = first; i < n; ++i) {
      if (inside[i - first] != 1) {
        continue;
      }
      const SpanRecord& s = spans_[i];
      out.seconds[s.name] += (s.end - s.start) - child[i - first];
      ++out.calls[s.name];
    }
    return out;
  }

  /// Every span as one JSON array (written at exit).
  void write_json(std::FILE* f) const {
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name, s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  bool armed_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

inline SpanLog& span_log() {
  static SpanLog log;
  return log;
}

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name) : id_(span_log().open(name)) {}
  ~Span() { span_log().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
