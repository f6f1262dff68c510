// Tests for path recording: parent-tree validity, shortest-hop property,
// reconstruction, and the result-footprint accounting behind Fig. 12.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>

#include "gen/rmat.hpp"
#include "graph/shard.hpp"
#include "net/fault.hpp"
#include "query/bfs.hpp"
#include "query/paths.hpp"

namespace cgraph {
namespace {

struct Deployment {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;
  Cluster cluster;
  Deployment(Graph g, PartitionId machines)
      : graph(std::move(g)),
        partition(RangePartition::balanced_by_edges(graph, machines)),
        shards(build_shards(graph, partition)),
        cluster(machines) {}
};

Graph rmat(unsigned scale, double ef, std::uint64_t seed) {
  return Graph::build(generate_rmat({.scale = scale, .edge_factor = ef,
                                     .seed = seed}),
                      VertexId{1} << scale);
}

TEST(Paths, VisitedCountsMatchPlainEngine) {
  Deployment d(rmat(9, 6, 17), 3);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 12; ++i) {
    queries.push_back({i, static_cast<VertexId>(i * 29), 3});
  }
  const auto r =
      run_distributed_khop_paths(d.cluster, d.shards, d.partition, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r.base.visited[i],
              khop_reach_count(d.graph, queries[i].source, queries[i].k));
    // One parent entry per visited vertex.
    EXPECT_EQ(r.parents[i].size(), r.base.visited[i]);
  }
}

TEST(Paths, ParentsAreRealEdges) {
  Deployment d(rmat(8, 5, 19), 2);
  const KHopQuery q{0, 1, 3};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  for (const auto& [v, p] : r.parents[0]) {
    EXPECT_TRUE(d.graph.out_csr().has_edge(p, v))
        << "claimed parent edge " << p << "->" << v << " does not exist";
  }
}

TEST(Paths, EveryVisitedVertexHasExactlyOneParent) {
  Deployment d(rmat(8, 6, 23), 3);
  const KHopQuery q{0, 0, 4};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  std::unordered_set<VertexId> seen;
  for (const auto& [v, p] : r.parents[0]) {
    EXPECT_TRUE(seen.insert(v).second) << "vertex " << v << " has 2 parents";
    EXPECT_NE(v, q.source);
  }
}

TEST(Paths, ReconstructedPathsAreShortest) {
  Deployment d(rmat(8, 5, 29), 2);
  const KHopQuery q{0, 2, 4};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  const auto depth = bfs_levels(d.graph, q.source, q.k);
  int checked = 0;
  for (const auto& [v, p] : r.parents[0]) {
    const auto path = reconstruct_path(r.parents[0], q.source, v);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), q.source);
    EXPECT_EQ(path.back(), v);
    // BFS parent trees give minimum-hop paths.
    EXPECT_EQ(path.size() - 1, depth[v]) << "vertex " << v;
    // Every hop must be a real edge.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(d.graph.out_csr().has_edge(path[i], path[i + 1]));
    }
    if (++checked >= 50) break;  // bounded verification
  }
  EXPECT_GT(checked, 0);
}

TEST(Paths, UnreachableTargetGivesEmptyPath) {
  EdgeList el;
  el.add(0, 1);
  Deployment d(Graph::build(std::move(el), 4), 2);
  const KHopQuery q{0, 0, 3};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  EXPECT_TRUE(reconstruct_path(r.parents[0], 0, 3).empty());
  EXPECT_EQ(reconstruct_path(r.parents[0], 0, 0),
            (std::vector<VertexId>{0}));
}

TEST(Paths, ResultBytesGrowLinearlyWithQueryCount) {
  // The Fig. 12 memory statement: retained found-path bytes scale with the
  // number of queries.
  Deployment d(rmat(9, 8, 31), 2);
  auto run_with = [&](std::size_t count) {
    std::vector<KHopQuery> queries;
    for (QueryId i = 0; i < count; ++i) {
      queries.push_back(
          {i, static_cast<VertexId>((i * 7) % d.graph.num_vertices()), 3});
    }
    return run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                      queries)
        .result_bytes();
  };
  const std::size_t b8 = run_with(8);
  const std::size_t b32 = run_with(32);
  EXPECT_GT(b32, b8 * 2);
}

TEST(Paths, CrossPartitionParentRecorded) {
  // Chain across partitions: parents must be recorded by the *owner* of
  // the discovered vertex even when the parent is remote.
  EdgeList el;
  for (VertexId v = 0; v + 1 < 6; ++v) el.add(v, v + 1);
  Deployment d(Graph::build(std::move(el), 6), 3);
  const KHopQuery q{0, 0, 5};
  const auto r = run_distributed_khop_paths(d.cluster, d.shards, d.partition,
                                            std::span(&q, 1));
  const auto path = reconstruct_path(r.parents[0], 0, 5);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

// Found paths run on the shared superstep runtime, so they inherit its
// chaos and recovery contracts: under a lossy, duplicating, reordering
// fabric and a machine crash at every superstep, at 1 and 4 compute
// threads, the recovered parent lists still reconstruct a shortest path to
// every visited vertex.
TEST(Paths, ParentsSurviveCrashesUnderLinkFaults) {
  Deployment d(rmat(8, 5, 37), 3);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 6; ++i) {
    queries.push_back({i, static_cast<VertexId>(i * 41 + 3), 4});
  }
  const auto clean =
      run_distributed_khop_paths(d.cluster, d.shards, d.partition, queries);
  const auto steps = d.cluster.telemetry().supersteps.size();
  ASSERT_GT(steps, 2u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::uint64_t s = 1; s <= steps; ++s) {
      SCOPED_TRACE("crash@" + std::to_string(s) + " threads=" +
                   std::to_string(threads));
      Cluster cluster(3);
      cluster.set_compute_threads(threads);
      auto plan = std::make_shared<FaultPlan>(s);
      LinkFaultSpec mix;
      mix.drop = 0.1;
      mix.duplicate = 0.1;
      mix.reorder = 0.1;
      plan->set_default_link(mix);
      plan->add_crash(static_cast<PartitionId>(s % 3), s);
      cluster.fabric().install_fault_plan(plan);
      cluster.set_recovery(RecoveryOptions{});
      const auto r =
          run_distributed_khop_paths(cluster, d.shards, d.partition, queries);
      EXPECT_EQ(cluster.recovery_stats().crashes, 1u);
      ASSERT_EQ(r.base.visited, clean.base.visited);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const VertexId source = queries[q].source;
        const auto depth = bfs_levels(d.graph, source, queries[q].k);
        ASSERT_EQ(r.parents[q].size(), r.base.visited[q]);
        for (const auto& [v, p] : r.parents[q]) {
          const auto path = reconstruct_path(r.parents[q], source, v);
          ASSERT_EQ(path.size() - 1, depth[v]) << "q=" << q << " v=" << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cgraph
