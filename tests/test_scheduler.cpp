// Tests for the concurrent query scheduler: batching, queue-wait stacking,
// per-query results, memory-pressure model, workload generation.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "query/bfs.hpp"
#include "query/scheduler.hpp"

namespace cgraph {
namespace {

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

TEST(Scheduler, ResultsMatchReferencePerQuery) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 20, 3, 7);
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries);
  ASSERT_EQ(run.queries.size(), 20u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].id, queries[i].id);
    EXPECT_EQ(run.queries[i].visited,
              khop_reach_count(f.graph, queries[i].source, queries[i].k));
  }
}

// Batch-width boundaries: a degenerate width of 1 (every query is its own
// batch, the bit planes are 1 bit wide), exactly one machine word (64 —
// the seam where a second word would start), and more queries than the
// graph has vertices. Each must agree with the serial reference per query.
TEST(Scheduler, BatchWidthOneMatchesReference) {
  Fixture f(2, /*scale=*/7);
  const auto queries = make_random_queries(f.graph, 5, 3, 17);
  SchedulerOptions opts;
  opts.batch_width = 1;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  EXPECT_EQ(run.batches, queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].visited,
              khop_reach_count(f.graph, queries[i].source, queries[i].k))
        << "query " << i;
  }
}

TEST(Scheduler, BatchWidthExactlyOneWordMatchesReference) {
  Fixture f(3, /*scale=*/8);
  const auto queries = make_random_queries(f.graph, 64, 3, 19);
  SchedulerOptions opts;
  opts.batch_width = 64;  // one full word per row, zero slack bits
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  EXPECT_EQ(run.batches, 1u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].visited,
              khop_reach_count(f.graph, queries[i].source, queries[i].k))
        << "query " << i;
  }
}

TEST(Scheduler, MoreQueriesThanVerticesMatchesReference) {
  // A tiny graph (2^5 vertex-id space) hammered by 3x more queries than
  // vertices: sources repeat, batches span the whole graph, and both the
  // bit-parallel and queue engines must still answer every query exactly.
  Fixture f(2, /*scale=*/5);
  ASSERT_LT(f.graph.num_vertices(), 96u);
  const auto queries = make_random_queries(f.graph, 96, 4, 23);
  for (const bool bit_parallel : {true, false}) {
    SchedulerOptions opts;
    opts.batch_width = 48;
    opts.use_bit_parallel = bit_parallel;
    const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                            queries, opts);
    ASSERT_EQ(run.queries.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(run.queries[i].visited,
                khop_reach_count(f.graph, queries[i].source, queries[i].k))
          << (bit_parallel ? "bit-parallel" : "queue") << " query " << i;
    }
  }
}

TEST(Scheduler, LaterBatchesWaitLonger) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 96, 3, 9);
  SchedulerOptions opts;
  opts.batch_width = 32;  // 3 batches
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  EXPECT_EQ(run.batches, 3u);
  // Min response within batch b+1 must exceed the max response achievable
  // at the start of batch b+1 (its queue wait), which itself is >= max
  // completion of batch b's first query.
  double batch0_min = 1e9, batch2_min = 1e9;
  for (std::size_t i = 0; i < 32; ++i) {
    batch0_min = std::min(batch0_min, run.queries[i].sim_seconds);
  }
  for (std::size_t i = 64; i < 96; ++i) {
    batch2_min = std::min(batch2_min, run.queries[i].sim_seconds);
  }
  EXPECT_GT(batch2_min, batch0_min);
}

TEST(Scheduler, SingleBatchNoQueueWait) {
  Fixture f(1);
  const auto queries = make_random_queries(f.graph, 8, 2, 11);
  SchedulerOptions opts;
  opts.batch_width = 64;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  EXPECT_EQ(run.batches, 1u);
  for (const auto& q : run.queries) {
    EXPECT_LE(q.sim_seconds, run.total_sim_seconds + 1e-12);
  }
}

TEST(Scheduler, QueueEngineProducesSameVisitedCounts) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 16, 3, 13);
  SchedulerOptions bits, queue;
  queue.use_bit_parallel = false;
  const auto r1 = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                         queries, bits);
  const auto r2 = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                         queries, queue);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r1.queries[i].visited, r2.queries[i].visited);
  }
}

TEST(Scheduler, MemoryPressureSlowsSimTime) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 64, 3, 17);
  SchedulerOptions unlimited;
  SchedulerOptions tight;
  tight.memory_budget_bytes = 1;  // everything overshoots
  tight.memory_penalty = 10.0;
  const auto fast = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                           queries, unlimited);
  const auto slow = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                           queries, tight);
  EXPECT_GT(slow.total_sim_seconds, fast.total_sim_seconds * 2);
  EXPECT_EQ(fast.queries[0].visited, slow.queries[0].visited);
}

TEST(Scheduler, PeakMemoryGrowsWithQueryCount) {
  Fixture f(1);
  SchedulerOptions opts;
  opts.batch_width = 16;
  const auto few = run_concurrent_queries(
      f.cluster, f.shards, f.partition,
      make_random_queries(f.graph, 16, 3, 19), opts);
  const auto many = run_concurrent_queries(
      f.cluster, f.shards, f.partition,
      make_random_queries(f.graph, 128, 3, 19), opts);
  EXPECT_GT(many.peak_memory_bytes, few.peak_memory_bytes);
}

TEST(MakeRandomQueries, RespectsMinDegreeAndDeterminism) {
  Fixture f(1);
  const auto a = make_random_queries(f.graph, 50, 3, 23, /*min_degree=*/1);
  const auto b = make_random_queries(f.graph, 50, 3, 23, /*min_degree=*/1);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_GE(f.graph.out_degree(a[i].source), 1u);
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].k, 3);
  }
}

TEST(Scheduler, DegreeSortedPolicyPreservesResults) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 48, 3, 31);
  SchedulerOptions fifo;
  SchedulerOptions sorted;
  sorted.policy = BatchPolicy::kDegreeSorted;
  sorted.degree_of = [&](VertexId v) { return f.graph.out_degree(v); };
  sorted.batch_width = 16;
  fifo.batch_width = 16;
  const auto a = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                        queries, fifo);
  const auto b = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                        queries, sorted);
  // Answers identical and reported in submission order either way.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].id, b.queries[i].id);
    EXPECT_EQ(a.queries[i].visited, b.queries[i].visited);
  }
}

TEST(Scheduler, DegreeSortedWithoutLookupFallsBackToFifo) {
  Fixture f(1);
  const auto queries = make_random_queries(f.graph, 8, 2, 33);
  SchedulerOptions opts;
  opts.policy = BatchPolicy::kDegreeSorted;  // degree_of left unset
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  EXPECT_EQ(run.queries.size(), 8u);
}

// Regression (silent-degradation bug): kDegreeSorted without a degree_of
// lookup used to run FIFO while the telemetry still claimed degree-sorted.
// The *effective* policy must be recorded in RunTelemetry and every
// BatchTrace so the fallback is observable.
TEST(Scheduler, EffectivePolicyReportedOnFallback) {
  Fixture f(1);
  const auto queries = make_random_queries(f.graph, 24, 2, 35);

  SchedulerOptions broken;
  broken.policy = BatchPolicy::kDegreeSorted;  // no degree_of: degrades
  broken.batch_width = 8;
  EXPECT_EQ(effective_batch_policy(broken), BatchPolicy::kFifo);
  const auto fallback = run_concurrent_queries(f.cluster, f.shards,
                                               f.partition, queries, broken);
  EXPECT_EQ(fallback.telemetry.effective_policy, "fifo");
  ASSERT_EQ(fallback.telemetry.batches.size(), 3u);
  for (const auto& bt : fallback.telemetry.batches) {
    EXPECT_EQ(bt.policy, "fifo");
  }

  SchedulerOptions sorted = broken;
  sorted.degree_of = [&](VertexId v) { return f.graph.out_degree(v); };
  EXPECT_EQ(effective_batch_policy(sorted), BatchPolicy::kDegreeSorted);
  const auto real = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                           queries, sorted);
  EXPECT_EQ(real.telemetry.effective_policy, "degree-sorted");
  for (const auto& bt : real.telemetry.batches) {
    EXPECT_EQ(bt.policy, "degree-sorted");
  }

  SchedulerOptions fifo;
  EXPECT_EQ(effective_batch_policy(fifo), BatchPolicy::kFifo);
  const auto plain = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                            queries, fifo);
  EXPECT_EQ(plain.telemetry.effective_policy, "fifo");
}

// Pins two ordering contracts of the degree-sorted path with a count that
// is NOT a multiple of batch_width (subspan boundaries exercise the
// order[] mapping) and many duplicate-degree roots (exercises the
// stable_sort tie rule):
//   (a) results come back in submission order via order[];
//   (b) within the sorted sequence, equal-degree queries keep submission
//       order (std::stable_sort), pinned through telemetry.queries.
TEST(Scheduler, DegreeSortedOrderMappingAndStableTies) {
  Fixture f(2, /*scale=*/6);
  // 21 queries, width 8 -> batches of 8/8/5. Duplicate roots guarantee
  // duplicate degrees.
  auto queries = make_random_queries(f.graph, 7, 3, 37);
  const std::size_t distinct = queries.size();
  for (std::size_t i = 0; i < 2 * distinct; ++i) {
    KHopQuery q = queries[i % distinct];
    q.id = static_cast<QueryId>(queries.size());
    queries.push_back(q);
  }
  ASSERT_EQ(queries.size(), 21u);

  SchedulerOptions opts;
  opts.policy = BatchPolicy::kDegreeSorted;
  opts.degree_of = [&](VertexId v) { return f.graph.out_degree(v); };
  opts.batch_width = 8;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);

  // (a) submission order out, exact answers regardless of execution order.
  ASSERT_EQ(run.queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run.queries[i].id, queries[i].id) << "slot " << i;
    EXPECT_EQ(run.queries[i].visited,
              khop_reach_count(f.graph, queries[i].source, queries[i].k))
        << "slot " << i;
  }

  // (b) telemetry.queries is appended in execution order; it must equal
  // the stable sort of submission indices by descending degree.
  std::vector<std::size_t> expect(queries.size());
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = i;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::size_t a, std::size_t b) {
                     return f.graph.out_degree(queries[a].source) >
                            f.graph.out_degree(queries[b].source);
                   });
  ASSERT_EQ(run.telemetry.queries.size(), queries.size());
  for (std::size_t slot = 0; slot < expect.size(); ++slot) {
    EXPECT_EQ(run.telemetry.queries[slot].id, queries[expect[slot]].id)
        << "execution slot " << slot;
    EXPECT_EQ(run.telemetry.queries[slot].batch_index, slot / 8)
        << "execution slot " << slot;
  }
}

// The closed stream stacks batches exactly: replaying the same degree-
// sorted batches through a fresh BatchExecutor, each query's sim time is
// the earlier batches' makespans plus its own completion x slowdown, to
// the bit, reported in submission order. The overshooting memory budget
// makes the slowdown > 1, and the measured walls are never scaled by it.
TEST(Scheduler, ClosedLoopStacksBatchesExactly) {
  Fixture f(3, /*scale=*/8);
  const auto queries = make_random_queries(f.graph, 50, 3, 41);
  SchedulerOptions opts;
  opts.policy = BatchPolicy::kDegreeSorted;
  opts.degree_of = [&](VertexId v) { return f.graph.out_degree(v); };
  opts.batch_width = 16;  // batches of 16/16/16/2
  opts.memory_budget_bytes = 4096;
  opts.memory_penalty = 2.0;
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries, opts);
  ASSERT_EQ(run.batches, 4u);
  ASSERT_EQ(run.queries.size(), queries.size());

  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return f.graph.out_degree(queries[a].source) >
                            f.graph.out_degree(queries[b].source);
                   });
  Cluster fresh(3);
  BatchExecutor ref(fresh, f.shards, f.partition, opts);
  double before = 0;
  double max_slowdown = 1;
  double wall_sum = 0;
  for (std::size_t begin = 0, b = 0; begin < order.size();
       begin += opts.batch_width, ++b) {
    const std::size_t end = std::min(begin + opts.batch_width, order.size());
    std::vector<KHopQuery> batch;
    for (std::size_t j = begin; j < end; ++j) {
      batch.push_back(queries[order[j]]);
    }
    const BatchExecutor::Outcome out = ref.execute(batch);
    max_slowdown = std::max(max_slowdown, out.slowdown);
    ASSERT_LT(b, run.telemetry.batches.size());
    EXPECT_EQ(run.telemetry.batches[b].execute_sim_seconds,
              out.result.sim_seconds * out.slowdown);
    for (std::size_t j = begin; j < end; ++j) {
      const QueryResult& qr = run.queries[order[j]];
      EXPECT_EQ(qr.id, queries[order[j]].id);
      EXPECT_EQ(qr.visited, out.result.visited[j - begin]);
      EXPECT_EQ(qr.levels, out.result.levels[j - begin]);
      EXPECT_EQ(qr.sim_seconds,
                before + out.result.completion_sim_seconds[j - begin] *
                             out.slowdown)
          << "submission slot " << order[j];
      EXPECT_GE(qr.wall_seconds, wall_sum);
      EXPECT_LE(qr.wall_seconds,
                wall_sum + run.telemetry.batches[b].execute_wall_seconds);
    }
    before += run.telemetry.batches[b].execute_sim_seconds;
    wall_sum += run.telemetry.batches[b].execute_wall_seconds;
  }
  EXPECT_GT(max_slowdown, 1.0);
  EXPECT_EQ(run.total_sim_seconds, before);
  EXPECT_EQ(run.total_wall_seconds, wall_sum);
}

TEST(Scheduler, TotalEdgeWorkReported) {
  Fixture f(2);
  const auto queries = make_random_queries(f.graph, 8, 3, 29);
  const auto run = run_concurrent_queries(f.cluster, f.shards, f.partition,
                                          queries);
  EXPECT_GT(run.total_edges_scanned, 0u);
}

}  // namespace
}  // namespace cgraph
