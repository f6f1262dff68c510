// Benchmark self-tests: the tail-percentile rule, self-time folding with
// nested child spans, failed_frac with an injected wrong answer, and a
// smoke-size pass of each workload (untraced and traced).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/random_graphs.hpp"
#include "graph/graph.hpp"
#include "query/bfs.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_tail_rule() {
  using perfbench::tail_percentile;
  // 1..n: nearest-rank percentile values are exact sample values.
  auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  // 1000 samples: p99 leaves exactly 10 beyond.
  auto t = tail_percentile(ramp(1000));
  EXPECT(t.rule_met && t.percentile == 99 && t.beyond == 10 &&
         t.value == 990 && t.samples == 1000);
  // 200 samples: p95 leaves 10.
  t = tail_percentile(ramp(200));
  EXPECT(t.rule_met && t.percentile == 95 && t.beyond == 10 && t.value == 190);
  // 199 samples: the percentile follows the count (100 * 189 / 199), and
  // is the highest that leaves 10 beyond: any higher one leaves 9.
  t = tail_percentile(ramp(199));
  EXPECT(t.rule_met && near(t.percentile, 100.0 * 189 / 199) &&
         t.beyond == 10 && t.value == 189);
  EXPECT(perfbench::percentile(ramp(199), t.percentile) == t.value);
  EXPECT(perfbench::nearest_rank(199, t.percentile + 1e-6) == 190);
  // 11 samples: the smallest count that meets the rule.
  t = tail_percentile(ramp(11));
  EXPECT(t.rule_met && t.beyond == 10 && t.value == 1);
  // 10 samples: no percentile has 10 beyond; the median is reported,
  // flagged.
  t = tail_percentile(ramp(10));
  EXPECT(!t.rule_met && t.percentile == 50 && t.value == 5);
  t = tail_percentile({});
  EXPECT(!t.rule_met && t.samples == 0 && t.value == 0);

  // Request summaries take the tail over every request of the run: 200
  // requests of which the slowest 10 stall make the p95 the 190th.
  std::vector<double> wall, answered;
  for (int i = 1; i <= 200; ++i) {
    wall.push_back(i <= 190 ? 1.0 : 50.0 + i);
    answered.push_back(2);
  }
  const auto s = perfbench::summarize_requests(wall, answered);
  EXPECT(s.tail.rule_met && s.tail.percentile == 95 && s.tail.beyond == 10 &&
         s.tail.samples == 200 && s.tail.value == 1.0);
  wall[189] = 7.0;  // the 11th slowest request sets the tail
  EXPECT(perfbench::summarize_requests(wall, answered).tail.value == 7.0);
  EXPECT(near(s.p50, 1.0));
  EXPECT(near(s.served_qps, 400.0 / (190.0 + 2455.0)));  // 241+...+250
  const auto few = perfbench::summarize_requests({2, 4, 6}, {1, 1, 1});
  EXPECT(!few.tail.rule_met && near(few.p50, 4) && near(few.served_qps, 0.25));
  EXPECT(perfbench::median({3, 1, 2}) == 2);
  EXPECT(perfbench::median({4, 1, 3, 2}) == 2.5);
}

perfbench::SpanRecord span(const char* name, std::int64_t b, std::int64_t e,
                           std::int32_t parent) {
  perfbench::SpanRecord s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

void test_self_time_fold() {
  // bench.loop [0,100): query.a [10,40) with child net.b [20,30) and
  // grandchild net.c [22,25); graph.d [50,90) with overlapping children
  // query.e [55,70) and query.f [60,80).
  std::vector<perfbench::SpanRecord> s = {
      span("bench.loop", 0, 100, -1), span("query.a", 10, 40, 0),
      span("net.b", 20, 30, 1),       span("net.c", 22, 25, 2),
      span("graph.d", 50, 90, 0),     span("query.e", 55, 70, 4),
      span("query.f", 60, 80, 4),
  };
  const std::vector<double> self = perfbench::self_seconds(s);
  EXPECT(near(self[0], 30e-9));  // 100 - 30 - 40
  EXPECT(near(self[1], 20e-9));  // 30 - 10
  EXPECT(near(self[2], 7e-9));   // 10 - 3
  EXPECT(near(self[3], 3e-9));
  EXPECT(near(self[4], 15e-9));  // 40 - union(55..80) = 40 - 25
  const auto by_layer = perfbench::self_seconds_by_layer(s);
  EXPECT(near(by_layer.at("bench"), 30e-9));
  EXPECT(near(by_layer.at("query"), 20e-9 + 15e-9 + 20e-9));
  EXPECT(near(by_layer.at("net"), 10e-9));
  EXPECT(near(by_layer.at("graph"), 15e-9));
  // Without overlapping siblings the self times partition the root.
  s.resize(5);
  double total = 0;
  for (const auto& [layer, sec] : perfbench::self_seconds_by_layer(s)) {
    total += sec;
  }
  EXPECT(near(total, 100e-9));

  // The recorder nests spans and inherits request ids.
  perfbench::SpanRecorder rec(true);
  {
    perfbench::Span outer(rec, "bench.request", 7);
    perfbench::Span inner(rec, "query.call");
  }
  EXPECT(rec.spans().size() == 2);
  EXPECT(rec.spans()[1].parent == 0 && rec.spans()[1].request == 7);
  EXPECT(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
  perfbench::SpanRecorder off(false);
  { perfbench::Span x(off, "bench.x"); }
  EXPECT(off.spans().empty());
  EXPECT(perfbench::layer_of("graph.build_shards") == "graph");
}

void test_failed_frac_injected() {
  cgraph::Graph g = cgraph::Graph::build(
      cgraph::generate_uniform(256, 2048, 3), 256);
  std::vector<perfbench::KhopAnswer> answers;
  for (cgraph::VertexId s = 0; s < 8; ++s) {
    answers.push_back({s, 2, cgraph::khop_reach_count(g, s, 2)});
  }
  std::vector<std::string> failures;
  EXPECT(perfbench::check_khop_answers(g, answers, failures) == 0);
  answers[3].visited += 1;  // inject a wrong answer
  const std::size_t wrong = perfbench::check_khop_answers(g, answers, failures);
  EXPECT(wrong == 1 && failures.size() == 1);
  perfbench::OpTally tally{answers.size(), wrong};
  EXPECT(near(tally.failed_frac(), 1.0 / 8.0));

  const std::vector<cgraph::Depth> lv = cgraph::bfs_levels(g, 0);
  std::vector<perfbench::PointAnswer> points;
  for (cgraph::VertexId t = 1; t < 6; ++t) {
    points.push_back({0, t, lv[t] != cgraph::kUnvisitedDepth ? std::int8_t{1}
                                                             : std::int8_t{0}});
  }
  failures.clear();
  EXPECT(perfbench::check_point_answers(g, points, failures) == 0);
  points[0].reachable = static_cast<std::int8_t>(1 - points[0].reachable);
  points[1].reachable = -1;  // unresolved counts as wrong
  EXPECT(perfbench::check_point_answers(g, points, failures) == 2);
}

bool has_metric(const perfbench::RunResult& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return std::isfinite(m.value);
  }
  return false;
}

void test_smoke_workloads() {
  for (auto w : {perfbench::Workload::kKhopClosed,
                 perfbench::Workload::kPointServe,
                 perfbench::Workload::kKhopUnderWrites}) {
    for (bool trace : {false, true}) {
      const perfbench::RunResult r =
          perfbench::run_workload(perfbench::Config::smoke(w, trace));
      for (const auto& f : r.failures) {
        std::fprintf(stderr, "%s: %s\n", perfbench::to_string(w), f.c_str());
      }
      EXPECT(r.correct());
      EXPECT(r.ops.attempted > 0 && r.ops.failed == 0);
      if (!trace) {
        EXPECT(r.metrics.size() == 5);
        for (const char* m : {"setup_s", "queries_per_cpu_s",
                              "request_cpu_p50_ms", "request_cpu_tail_ms",
                              "peak_rss_mb"}) {
          EXPECT(has_metric(r, m));
        }
        for (const auto& m : r.metrics) EXPECT(m.value > 0);
      } else {
        EXPECT(has_metric(r, "query.ns_per_edge"));
        EXPECT(has_metric(r, "query.request_tail_ms"));
        EXPECT(has_metric(r, "trace.loop_coverage"));
        for (const auto& m : r.metrics) {
          if (m.name == "trace.loop_coverage") {
            EXPECT(m.value > 0.9 && m.value <= 1.0);
          }
        }
      }
    }
  }
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time_fold();
  test_failed_frac_injected();
  test_smoke_workloads();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
