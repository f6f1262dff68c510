#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

std::int32_t SpanRecorder::open(std::string_view name, std::int64_t request) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = std::string(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request >= 0 || s.parent < 0
                  ? request
                  : spans_[static_cast<std::size_t>(s.parent)].request;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  // Spans are RAII-scoped on one thread, so `id` is the innermost open one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::string layer_of(std::string_view span_name) {
  return std::string(span_name.substr(0, span_name.find('.')));
}

double span_seconds(const SpanRecord& span) {
  return span.end_ns < span.start_ns
             ? 0.0
             : static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ns < s.start_ns) continue;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = -1;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (b > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[layer_of(spans[i].name)] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
