// In-memory span log for the traced benchmark run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's side: name, start, end (microseconds since the log was
// created), the span that was open on the same thread when it began
// (its parent), and the recording thread. Spans are appended under a
// mutex and written once, as JSON, when the run ends. A null SpanLog*
// turns every ScopedSpan into a no-op, which is how the untraced runs
// record nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    double start_us = 0;
    double end_us = -1;
    std::size_t thread = 0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its id. `name` must outlive the log.
  int open(const char* name, int parent) {
    const double t = now_us();
    const std::lock_guard<std::mutex> lock(m_);
    const std::size_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back({name, parent, t, -1, thread});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    const double t = now_us();
    const std::lock_guard<std::mutex> lock(m_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
  }

  /// Self time per span name, in seconds: each span's duration minus the
  /// part its children cover (children of one span do not overlap
  /// unless they run on other threads, which only mp rank spans do).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    const std::lock_guard<std::mutex> lock(m_);
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.thread == spans_[static_cast<std::size_t>(
                                           s.parent)].thread) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          (spans_[i].end_us - spans_[i].start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  [[nodiscard]] int parent_of(int id) const {
    const std::lock_guard<std::mutex> lock(m_);
    return spans_[static_cast<std::size_t>(id)].parent;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
  }

  /// Write every span as one JSON document; returns false on I/O error.
  bool write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(m_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_us\": " << s.start_us
          << ", \"end_us\": " << s.end_us << ", \"thread\": " << s.thread
          << "}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return out.good();
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// The innermost open span of the calling thread (-1 = none).
inline thread_local int current_span = -1;

/// RAII span: opens on construction under the thread's current span and
/// becomes the current span until destroyed. No-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ == nullptr) return;
    saved_ = current_span;
    id_ = log_->open(name, saved_);
    current_span = id_;
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->close(id_);
    current_span = saved_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
  int saved_ = -1;
};

}  // namespace perfbench
