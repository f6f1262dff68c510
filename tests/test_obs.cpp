// Tests for the observability subsystem: registry concurrency, exposition
// formats, one publisher per record, and reconciliation of scheduler
// telemetry against ConcurrentRunResult aggregates.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "query/bfs.hpp"
#include "query/scheduler.hpp"

namespace cgraph {
namespace {

TEST(MetricsRegistry, ConcurrentCounterBumpsAreExact) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("bumps_total", "concurrent increments");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(c.value(), double(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ConcurrentHandleCreationIsSafe) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Everyone races to create the same families and their own series.
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared_total").inc();
        reg.counter("labeled_total", "",
                    {{"thread", std::to_string(t)}})
            .inc();
        reg.histogram("shared_seconds").observe(0.001 * i);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(reg.counter("shared_total").value(), kThreads * 200.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        reg.counter("labeled_total", "", {{"thread", std::to_string(t)}})
            .value(),
        200.0);
  }
  EXPECT_EQ(reg.histogram("shared_seconds").count(),
            std::uint64_t{kThreads} * 200);
}

TEST(MetricsRegistry, PrometheusGoldenOutput) {
  obs::MetricsRegistry reg;
  reg.counter("requests_total", "Requests served").inc(15);
  reg.counter("requests_total", "Requests served", {{"code", "500"}}).inc(3);
  reg.gauge("queue_depth", "Items queued").set(7);
  obs::HistogramSpec spec;
  spec.lo = 0.5;
  spec.growth = 2.0;
  spec.nbins = 3;
  obs::LogHistogram& h =
      reg.histogram("latency_seconds", "Request latency", {}, spec);
  h.observe(0.4);  // bucket le=0.5
  h.observe(0.9);  // bucket le=1
  h.observe(100);  // +Inf

  const std::string expected =
      "# HELP latency_seconds Request latency\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{le=\"0.5\"} 1\n"
      "latency_seconds_bucket{le=\"1\"} 2\n"
      "latency_seconds_bucket{le=\"2\"} 2\n"
      "latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "latency_seconds_sum 101.3\n"
      "latency_seconds_count 3\n"
      "# HELP queue_depth Items queued\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 7\n"
      "# HELP requests_total Requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total 15\n"
      "requests_total{code=\"500\"} 3\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
}

TEST(MetricsRegistry, JsonExpositionSmoke) {
  obs::MetricsRegistry reg;
  reg.counter("a_total", "with \"quotes\"").inc(2);
  reg.histogram("b_seconds").observe(0.01);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"help\":\"with \\\"quotes\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy).
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(LogHistogram, BucketsAndPercentiles) {
  obs::HistogramSpec spec;
  spec.lo = 1.0;
  spec.growth = 2.0;
  spec.nbins = 8;  // bounds 1, 2, 4, ..., 128
  obs::LogHistogram h(spec);
  for (int i = 1; i <= 100; ++i) h.observe(double(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5050.0, 1e-9);
  // Percentile must be monotone and within bucket resolution of the truth.
  double prev = 0;
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
    EXPECT_LE(v, 128.0);
  }
  // p50 of 1..100 is ~50, inside the (32, 64] bucket.
  EXPECT_GT(h.percentile(50), 32.0);
  EXPECT_LE(h.percentile(50), 64.0);
}

struct Fixture {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;
  Cluster cluster;

  explicit Fixture(PartitionId machines, unsigned scale = 9,
                   std::uint64_t seed = 61)
      : graph([&] {
          RmatParams p;
          p.scale = scale;
          p.edge_factor = 6;
          p.seed = seed;
          return Graph::build(generate_rmat(p), VertexId{1} << scale);
        }()),
        partition(RangePartition::balanced_by_edges(graph, machines)),
        shards(build_shards(graph, partition)),
        cluster(machines) {}
};

void check_run_telemetry(const ConcurrentRunResult& run,
                         const obs::MetricsRegistry& reg, std::size_t nqueries,
                         PartitionId machines) {
  // Per-level edge counts across batches reconcile with the aggregate.
  EXPECT_EQ(run.telemetry.total_edges_scanned(), run.total_edges_scanned);
  EXPECT_EQ(run.telemetry.batches.size(), run.batches);
  ASSERT_EQ(run.telemetry.queries.size(), nqueries);

  double straggler_min = 1e18;
  for (const auto& bt : run.telemetry.batches) {
    EXPECT_FALSE(bt.levels.empty());
    ASSERT_EQ(bt.machines.size(), machines);
    std::uint64_t staged_bytes = 0;
    for (const auto& mt : bt.machines) {
      EXPECT_GT(mt.supersteps, 0u);
      staged_bytes += mt.staged_bytes;
    }
    if (machines > 1) {
      EXPECT_GT(staged_bytes, 0u);
    }
    straggler_min = std::min(straggler_min, bt.straggler_ratio);
  }
  EXPECT_GE(straggler_min, 1.0);  // max/mean per superstep is >= 1

  // Each query's wait + execute equals its reported response time.
  for (const auto& qt : run.telemetry.queries) {
    bool found = false;
    for (const auto& qr : run.queries) {
      if (qr.id != qt.id) continue;
      found = true;
      EXPECT_NEAR(qt.wait_sim_seconds + qt.execute_sim_seconds,
                  qr.sim_seconds, 1e-9);
      EXPECT_EQ(qt.visited, qr.visited);
    }
    EXPECT_TRUE(found);
  }

  const std::string text = reg.to_prometheus();
  std::ostringstream want_queries;
  want_queries << "cgraph_service_completed_total " << nqueries << "\n";
  EXPECT_NE(text.find(want_queries.str()), std::string::npos);
  EXPECT_NE(text.find("cgraph_query_response_sim_seconds_count "),
            std::string::npos);
  EXPECT_NE(text.find("cgraph_superstep_edges_total{level=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cgraph_superstep_barrier_wait_sim_seconds_total"),
            std::string::npos);
  EXPECT_NE(text.find("cgraph_machine_supersteps_total{machine=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cgraph_fabric_staged_bytes_total{machine=\"0\"}"),
            std::string::npos);
}

TEST(SchedulerTelemetry, BitParallelReconcilesWithAggregates) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 96, 3, 9);
  obs::MetricsRegistry reg;
  SchedulerOptions opts;
  opts.batch_width = 32;  // 3 batches
  opts.metrics = &reg;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  check_run_telemetry(run, reg, queries.size(), 2);

  // The response histogram saw every query.
  const std::string text = reg.to_prometheus();
  std::ostringstream want;
  want << "cgraph_query_response_sim_seconds_count " << queries.size() << "\n";
  EXPECT_NE(text.find(want.str()), std::string::npos);
}

TEST(SchedulerTelemetry, QueueEngineReconcilesToo) {
  Fixture f(3);
  const auto queries = make_random_queries(f.graph, 40, 3, 11);
  obs::MetricsRegistry reg;
  SchedulerOptions opts;
  opts.batch_width = 20;
  opts.use_bit_parallel = false;
  opts.metrics = &reg;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  check_run_telemetry(run, reg, queries.size(), 3);
}

TEST(SchedulerTelemetry, FaultPlanCountersReconcileExactly) {
  Fixture f(3);
  const auto queries = make_random_queries(f.graph, 48, 3, 13);

  auto plan = std::make_shared<FaultPlan>(1337);
  LinkFaultSpec mix;
  mix.drop = 0.15;
  mix.duplicate = 0.10;
  plan->set_default_link(mix);
  f.cluster.fabric().install_fault_plan(plan);

  obs::MetricsRegistry reg;
  SchedulerOptions opts;
  opts.batch_width = 24;
  opts.metrics = &reg;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);

  // Results stay exact under the fault plan (the reliability protocols do
  // the work); each query's visited count matches the serial reference.
  for (const auto& qr : run.queries) {
    for (const auto& q : queries) {
      if (q.id != qr.id) continue;
      EXPECT_EQ(qr.visited, khop_reach_count(f.graph, q.source, q.k))
          << "query " << q.id;
    }
  }

  // Exact per-attempt accounting: every transmission attempt a machine
  // made in a batch landed in delivered or dropped, with duplicates
  // counted as an extra deposit.
  std::uint64_t dropped_total = 0;
  std::uint64_t suppressed_total = 0;
  for (const auto& bt : run.telemetry.batches) {
    ASSERT_EQ(bt.machines.size(), 3u);
    for (const auto& mt : bt.machines) {
      const std::uint64_t attempts = mt.staged_packets + mt.async_packets +
                                     mt.ack_packets + mt.retried_packets;
      EXPECT_EQ(mt.delivered_packets,
                attempts - mt.dropped_packets + mt.duplicated_packets)
          << "batch " << bt.index << " machine " << mt.machine;
      EXPECT_EQ(mt.delivery_failed_packets, 0u);
      dropped_total += mt.dropped_packets;
      suppressed_total += mt.dedup_suppressed_packets;
    }
  }
  // Non-vacuous: at 15% drop / 10% duplicate the fault layer must have
  // actually fired, and duplicates must have hit the dedup filters.
  EXPECT_GT(dropped_total, 0u);
  EXPECT_GT(suppressed_total, 0u);

  // The new counters reach the exposition endpoint with machine labels.
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("cgraph_fabric_dropped_packets_total{machine=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cgraph_fabric_delivered_packets_total{machine=\"0\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("cgraph_fabric_dedup_suppressed_packets_total{machine=\"0\"}"),
      std::string::npos);

  f.cluster.fabric().install_fault_plan(nullptr);
}

TEST(SchedulerTelemetry, SummaryMentionsEveryLevel) {
  Fixture f(2, /*scale=*/8);
  const auto queries = make_random_queries(f.graph, 8, 3, 5);
  obs::MetricsRegistry reg;
  SchedulerOptions opts;
  opts.metrics = &reg;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  const std::string s = run.telemetry.summary();
  for (const auto& bt : run.telemetry.batches) {
    for (const auto& lt : bt.levels) {
      EXPECT_NE(s.find("level " + std::to_string(lt.level)),
                std::string::npos);
    }
  }
}

// Sample lines of the cgraph_machine_* and cgraph_fabric_* series, in
// exposition order.
std::vector<std::string> machine_series_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("cgraph_machine_", 0) == 0 ||
        line.rfind("cgraph_fabric_", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

// The service publishing a batch and the cluster publishing the same run
// go through one publisher, so they export the same per-machine series —
// the fault layer's reordered and delayed counts included.
TEST(SchedulerTelemetry, ClusterAndServicePublishOneMachineSeries) {
  Fixture f(2);
  auto plan = std::make_shared<FaultPlan>(7);
  plan->add_trigger({0, 1, 0, FaultAction::kReorder});
  plan->add_trigger({0, 1, 1, FaultAction::kDelay});
  f.cluster.fabric().install_fault_plan(plan);

  const auto queries = make_random_queries(f.graph, 32, 3, 17);
  obs::MetricsRegistry service_reg;
  SchedulerOptions opts;
  opts.metrics = &service_reg;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  ASSERT_EQ(run.batches, 1u);
  obs::MetricsRegistry cluster_reg;
  f.cluster.publish_metrics(cluster_reg);

  const auto service_lines =
      machine_series_lines(service_reg.to_prometheus());
  EXPECT_FALSE(service_lines.empty());
  EXPECT_EQ(service_lines, machine_series_lines(cluster_reg.to_prometheus()));

  const obs::MachineTrace& m0 = run.telemetry.batches[0].machines[0];
  EXPECT_EQ(m0.reordered_packets, 1u);
  EXPECT_EQ(m0.delayed_packets, 1u);
  const std::string text = service_reg.to_prometheus();
  EXPECT_NE(
      text.find("cgraph_fabric_reordered_packets_total{machine=\"0\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("cgraph_fabric_delayed_packets_total{machine=\"0\"} 1\n"),
      std::string::npos);

  f.cluster.fabric().install_fault_plan(nullptr);
}

// A run without an index exports no index counters, and a run on shards
// no mutation has reached exports no mutation gauges.
TEST(SchedulerTelemetry, NoIndexOrMutationSeriesWithoutThem) {
  Fixture f(2, /*scale=*/8);
  const auto queries = make_random_queries(f.graph, 16, 2, 3);
  SchedulerOptions opts;
  obs::MetricsRegistry frozen;
  opts.metrics = &frozen;
  (void)run_concurrent_queries(f.cluster, f.shards, f.partition, queries,
                               opts);
  const std::string text = frozen.to_prometheus();
  EXPECT_EQ(text.find("cgraph_index_"), std::string::npos);
  EXPECT_EQ(text.find("cgraph_mutation_"), std::string::npos);

  // Once a mutation lands, the gauges appear.
  const MutationOp op{MutationKind::kInsertEdge, 0, 1};
  apply_mutations(std::span<SubgraphShard>(f.shards),
                  std::span<const MutationOp>(&op, 1), 1);
  obs::MetricsRegistry mutated;
  opts.metrics = &mutated;
  (void)run_concurrent_queries(f.cluster, f.shards, f.partition, queries,
                               opts);
  EXPECT_NE(mutated.to_prometheus().find("cgraph_mutation_epoch 1\n"),
            std::string::npos);
}

TEST(Sink, WritesPrometheusAndJsonFiles) {
  obs::MetricsRegistry reg;
  reg.counter("file_total", "file sink test").inc(4);
  const auto dir = std::filesystem::temp_directory_path() /
                   "cgraph_obs_test" / "nested";
  const auto prom = dir / "metrics.prom";
  const auto json = dir / "metrics.json";
  std::filesystem::remove_all(dir.parent_path());

  ASSERT_TRUE(obs::write_metrics_file(prom.string(), reg));
  ASSERT_TRUE(obs::write_metrics_file(json.string(), reg));

  std::ifstream pin(prom);
  std::stringstream pbuf;
  pbuf << pin.rdbuf();
  EXPECT_EQ(pbuf.str(), reg.to_prometheus());

  std::ifstream jin(json);
  std::stringstream jbuf;
  jbuf << jin.rdbuf();
  EXPECT_EQ(jbuf.str(), reg.to_json());
  std::filesystem::remove_all(dir.parent_path());
}

// Prometheus exposition: label VALUES may contain quotes, backslashes, and
// newlines; the text format requires them escaped as \" \\ \n inside the
// quoted value (unescaped they corrupt every line that follows).
TEST(MetricsExposition, LabelValuesAreEscaped) {
  obs::MetricsRegistry reg;
  reg.counter("escaped_total", "label escaping",
              {{"path", "C:\\graphs\\\"prod\".bin"}})
      .inc();
  reg.counter("escaped_total", "label escaping", {{"path", "a\nb"}})
      .inc(2.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(
      text.find("escaped_total{path=\"C:\\\\graphs\\\\\\\"prod\\\".bin\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("escaped_total{path=\"a\\nb\"} 2"), std::string::npos);
  // No raw newline may survive inside a label value: every exposition line
  // must start with a comment, a metric name, or be empty.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || std::isalpha(line[0]) != 0)
        << "corrupt exposition line: " << line;
  }
  // JSON exposition escapes the same values.
  const std::string json = reg.to_json();
  EXPECT_EQ(json.find("\n\""), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
}

// Histogram buckets under concurrent writers: cumulative bucket counts in
// the exposition snapshot must be nondecreasing in `le` and capped by the
// series count, whatever interleaving the writer threads produce.
TEST(MetricsExposition, BucketsStayMonotoneUnderConcurrentWriters) {
  obs::MetricsRegistry reg;
  obs::LogHistogram& h = reg.histogram("concurrent_seconds", "monotone");
  std::atomic<bool> stop{false};
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &stop, t] {
      std::uint64_t x = 88172645463325252ull + static_cast<unsigned>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.observe(1e-6 * static_cast<double>(x % 1000000));
      }
    });
  }
  // Snapshot the exposition repeatedly while writers hammer the buckets.
  for (int round = 0; round < 50; ++round) {
    std::uint64_t cumulative = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i <= h.nbins(); ++i) {
      cumulative += h.bucket_count(i);
      EXPECT_GE(cumulative, prev);
      prev = cumulative;
    }
    const std::string text = reg.to_prometheus();
    EXPECT_NE(text.find("concurrent_seconds_bucket"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  // Quiesced: the cumulative +Inf bucket equals the total count exactly.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= h.nbins(); ++i) total += h.bucket_count(i);
  EXPECT_EQ(total, h.count());
}

}  // namespace
}  // namespace cgraph
