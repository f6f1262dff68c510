// Tests for the baselines: KvStore semantics, TitanLike correctness (same
// answers as the reference, just slower) and GeminiLike serialization.
#include <gtest/gtest.h>

#include "baseline/geminilike.hpp"
#include "baseline/kvstore.hpp"
#include "baseline/titanlike.hpp"
#include "gen/rmat.hpp"
#include "query/bfs.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

KvStoreOptions fast_store() {
  KvStoreOptions o;
  o.read_latency_us = 0;  // keep unit tests quick
  o.write_latency_us = 0;
  return o;
}

Graph make_graph(unsigned scale = 8, std::uint64_t seed = 71) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 6;
  p.seed = seed;
  return Graph::build(generate_rmat(p), VertexId{1} << scale);
}

TEST(KvStore, PutGetRoundTrip) {
  KvStore store(fast_store());
  store.put("a", {1, 2, 3});
  const auto v = store.get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(store.get("missing").has_value());
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStore, OverwriteReplaces) {
  KvStore store(fast_store());
  store.put("k", {1});
  store.put("k", {2});
  EXPECT_EQ(store.get("k")->at(0), 2);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStore, CountsReads) {
  KvStore store(fast_store());
  store.put("k", {1});
  (void)store.get("k");
  (void)store.get("k");
  (void)store.get("nope");
  EXPECT_EQ(store.reads_performed(), 3u);
}

TEST(KvStore, ReadLatencyIsCharged) {
  KvStoreOptions o;
  o.read_latency_us = 2000;  // 2 ms
  o.write_latency_us = 0;
  KvStore store(o);
  store.put("k", {1});
  WallTimer t;
  (void)store.get("k");
  EXPECT_GT(t.millis(), 1.0);
}

TitanLikeOptions fast_titan() {
  TitanLikeOptions o;
  o.storage = fast_store();
  o.per_query_overhead_ms = 0;
  o.session_threads = 4;
  return o;
}

TEST(TitanLike, KhopMatchesReference) {
  const Graph g = make_graph();
  TitanLikeDb db(fast_titan());
  db.load(g);
  for (VertexId src : {0u, 17u, 99u}) {
    for (Depth k : {1, 2, 3}) {
      const QueryResult r = db.khop({0, src, static_cast<Depth>(k)});
      EXPECT_EQ(r.visited, khop_reach_count(g, src, static_cast<Depth>(k)))
          << "src=" << src << " k=" << k;
    }
  }
}

TEST(TitanLike, ConcurrentQueriesAllAnswered) {
  const Graph g = make_graph();
  TitanLikeDb db(fast_titan());
  db.load(g);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 16; ++i) {
    queries.push_back({i, static_cast<VertexId>(i * 7), 2});
  }
  const auto results = db.run_concurrent(queries);
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].id, queries[i].id);
    EXPECT_EQ(results[i].visited,
              khop_reach_count(g, queries[i].source, queries[i].k));
    EXPECT_GE(results[i].wall_seconds, 0.0);
  }
}

// Deterministic form of "storage overhead makes it slower": both stacks
// issue the same backend reads for the same query, so the modelled I/O
// cost (reads x per-read latency) orders them without timing anything. The
// slow stack's wall time can only exceed its I/O floor, since every read
// sleeps at least its latency.
TEST(TitanLike, StorageOverheadMakesItSlower) {
  const Graph g = make_graph(8);
  TitanLikeOptions slow = fast_titan();
  slow.storage.read_latency_us = 20;
  TitanLikeDb fast_db(fast_titan()), slow_db(slow);
  fast_db.load(g);
  slow_db.load(g);
  const KHopQuery q{0, 0, 3};
  const auto fast_r = fast_db.khop(q);
  const auto slow_r = slow_db.khop(q);
  EXPECT_EQ(fast_r.visited, slow_r.visited);
  const std::uint64_t reads = slow_db.store().reads_performed();
  ASSERT_GT(reads, 0u);
  EXPECT_EQ(fast_db.store().reads_performed(), reads);
  const double fast_io_s = static_cast<double>(reads) *
                           fast_titan().storage.read_latency_us * 1e-6;
  const double slow_io_s =
      static_cast<double>(reads) * slow.storage.read_latency_us * 1e-6;
  EXPECT_GT(slow_io_s, fast_io_s);
  EXPECT_GE(slow_r.wall_seconds, slow_io_s);
}

TEST(TitanLike, PageRankIterationRuns) {
  const Graph g = make_graph(7);
  TitanLikeDb db(fast_titan());
  db.load(g);
  EXPECT_GT(db.pagerank_iteration_seconds(), 0.0);
}

TEST(GeminiLike, ExecMatchesReference) {
  const Graph g = make_graph();
  GeminiLikeEngine engine(g);
  for (VertexId src : {3u, 50u}) {
    const auto exec = engine.execute({0, src, 3});
    EXPECT_EQ(exec.visited, khop_reach_count(g, src, 3));
    EXPECT_GT(exec.sim_seconds, 0.0);
  }
}

TEST(GeminiLike, SerializedResponsesStack) {
  const Graph g = make_graph();
  GeminiLikeEngine engine(g);
  std::vector<KHopQuery> queries;
  for (QueryId i = 0; i < 10; ++i) {
    queries.push_back({i, static_cast<VertexId>(i * 11), 3});
  }
  const auto results = engine.run_serialized(queries);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].sim_seconds, results[i - 1].sim_seconds);
    EXPECT_GE(results[i].wall_seconds, results[i - 1].wall_seconds);
  }
  // Total time is linear-ish in query count (the Fig. 13 behaviour): the
  // last response dwarfs the first.
  EXPECT_GT(results.back().sim_seconds, results.front().sim_seconds * 5);
}

TEST(GeminiLike, DirectionOptimizationPreservesResults) {
  // A dense graph pushes the engine into bottom-up mode mid-traversal;
  // results must match the top-down-only reference exactly.
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 24;
  p.seed = 99;
  const Graph g = Graph::build(generate_rmat(p), VertexId{1} << p.scale);
  ASSERT_TRUE(g.has_in_edges());
  GeminiLikeEngine engine(g);
  for (VertexId src : {0u, 13u, 500u}) {
    for (Depth k : {2, 4, 8}) {
      EXPECT_EQ(engine.execute({0, src, static_cast<Depth>(k)}).visited,
                khop_reach_count(g, src, static_cast<Depth>(k)))
          << "src=" << src << " k=" << k;
    }
  }
}

TEST(GeminiLike, MoreMachinesReduceSimTime) {
  // Needs a graph big enough that per-level compute dwarfs the per-level
  // communication latency, otherwise extra machines rightly lose.
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 16;
  p.seed = 71;
  const Graph g = Graph::build(generate_rmat(p), VertexId{1} << p.scale);
  GeminiLikeOptions one, three;
  // Fix the traversal strategy so the machine count is the only variable:
  // bottom-up early exits shrink compute until fixed comm costs dominate.
  one.direction_optimizing = false;
  three.direction_optimizing = false;
  three.machines = 3;
  GeminiLikeEngine e1(g, one), e3(g, three);
  const KHopQuery q{0, 1, 4};
  EXPECT_EQ(e1.execute(q).visited, e3.execute(q).visited);
  EXPECT_LT(e3.execute(q).sim_seconds, e1.execute(q).sim_seconds);
}

}  // namespace
}  // namespace cgraph
