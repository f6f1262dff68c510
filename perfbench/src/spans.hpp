// Benchmark-side span recorder. Spans wrap calls into the library's public
// entry points; each records its name ("<layer>.<call>", the layer being
// the library module the call belongs to), start, end, parent span and
// request id. Spans stay in memory and are written out once, at exit. A
// disabled recorder records nothing, so the untraced (--trace 0) run pays
// one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the benchmark's own clock.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = -1;   // -1 while open
  std::int32_t parent = -1;   // index into the recorder's spans, -1 = root
  std::int64_t request = -1;  // -1 outside any request
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Open a span as a child of the innermost open span. `request` = -1
  /// inherits the parent's request id. Returns the span id (-1 disabled).
  std::int32_t open(std::string_view name, std::int64_t request = -1);
  void close(std::int32_t id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }
  /// Write every span as one JSON array.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanRecorder& rec, std::string_view name, std::int64_t request = -1)
      : rec_(rec), id_(rec.open(name, request)) {}
  ~Span() { rec_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

/// "<layer>.<call>" -> "<layer>".
std::string layer_of(std::string_view span_name);

/// A span's self time: its duration minus the part of it covered by its
/// children. Returns seconds per span, indexed like `spans`.
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

/// Self time summed per layer (layer_of each span's name).
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans);

/// Duration of a closed span in seconds (0 while open).
double span_seconds(const SpanRecord& span);

}  // namespace perfbench
