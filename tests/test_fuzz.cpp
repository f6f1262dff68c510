// Randomized differential tests: many random graphs (varied size, density,
// shape) pushed through every traversal engine and checked against the
// serial reference. Catches partition-boundary, termination, and frontier
// corner cases that targeted tests miss.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

struct FuzzCase {
  std::uint64_t seed;
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllEnginesMatchReference) {
  Xoshiro256 rng(GetParam());

  // Random graph shape: size, density, generator, self-loops kept or not.
  const VertexId n = 16 + static_cast<VertexId>(rng.next_bounded(600));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 6);
  EdgeList edges;
  switch (rng.next_bounded(3)) {
    case 0:
      edges = generate_uniform(n, m, rng.next());
      break;
    case 1: {
      RmatParams p;
      p.scale = 5 + static_cast<unsigned>(rng.next_bounded(5));
      p.edge_factor = 1.0 + static_cast<double>(rng.next_bounded(8));
      p.seed = rng.next();
      edges = generate_rmat(p);
      break;
    }
    default:
      edges = generate_watts_strogatz(
          std::max<VertexId>(n, 8), 4,
          0.3 * rng.next_double(), rng.next());
      break;
  }
  GraphBuildOptions gopts;
  gopts.remove_self_loops = rng.next_bounded(2) == 0;
  const Graph g = Graph::build(std::move(edges), gopts);
  if (g.num_vertices() == 0) return;

  const auto machines =
      static_cast<PartitionId>(1 + rng.next_bounded(7));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  std::vector<KHopQuery> queries;
  const std::size_t q_count = 1 + rng.next_bounded(12);
  for (QueryId i = 0; i < q_count; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())),
         static_cast<Depth>(rng.next_bounded(8))});
  }

  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  const auto bits = run_distributed_msbfs(cluster, shards, part, queries);
  EXPECT_EQ(bits.visited, expected) << "msbfs, seed " << GetParam();

  const auto queue = run_distributed_khop(cluster, shards, part, queries);
  EXPECT_EQ(queue.visited, expected) << "khop, seed " << GetParam();

  const auto async = run_async_khop(cluster, shards, part, queries);
  EXPECT_EQ(async.visited, expected) << "async, seed " << GetParam();

  const auto single = msbfs_batch(g, queries);
  EXPECT_EQ(single.visited, expected) << "single, seed " << GetParam();

  const auto paths =
      run_distributed_khop_paths(cluster, shards, part, queries);
  EXPECT_EQ(paths.base.visited, expected) << "paths, seed " << GetParam();

  GeminiLikeEngine gemini(g);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(gemini.execute(queries[i]).visited, expected[i])
        << "gemini, seed " << GetParam() << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

class PageRankFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageRankFuzz, DistributedMatchesSerial) {
  Xoshiro256 rng(GetParam() * 7919);
  const VertexId n = 32 + static_cast<VertexId>(rng.next_bounded(400));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 4);
  const Graph g = Graph::build(generate_uniform(n, m, rng.next()));
  if (g.num_vertices() == 0) return;
  const auto machines = static_cast<PartitionId>(1 + rng.next_bounded(5));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);
  const GasResult dist = run_pagerank(cluster, shards, part, 6);
  const auto serial = pagerank_serial(g, 6);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(dist.values[v], serial[v], 1e-9)
        << "seed " << GetParam() << " vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRankFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

class ChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Graph shape AND fault plan are randomized together: the reliability
// protocols must hold on any topology, not just the chaos suite's fixed
// shapes. Mirrors EngineFuzz with a seeded FaultPlan installed; the plan's
// describe() line lands in the failure output for replay.
TEST_P(ChaosFuzz, EnginesMatchReferenceUnderRandomFaults) {
  Xoshiro256 rng(GetParam() * 0x9e3779b97f4a7c15ULL);

  const VertexId n = 16 + static_cast<VertexId>(rng.next_bounded(300));
  const EdgeIndex m = 1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 5);
  EdgeList edges;
  switch (rng.next_bounded(3)) {
    case 0:
      edges = generate_uniform(n, m, rng.next());
      break;
    case 1: {
      RmatParams p;
      p.scale = 5 + static_cast<unsigned>(rng.next_bounded(4));
      p.edge_factor = 1.0 + static_cast<double>(rng.next_bounded(6));
      p.seed = rng.next();
      edges = generate_rmat(p);
      break;
    }
    default:
      edges = generate_watts_strogatz(
          std::max<VertexId>(n, 8), 4,
          0.3 * rng.next_double(), rng.next());
      break;
  }
  const Graph g = Graph::build(std::move(edges));
  if (g.num_vertices() == 0) return;

  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(5));
  const auto part = RangePartition::balanced_by_edges(g, machines);
  const auto shards = build_shards(g, part);
  Cluster cluster(machines);

  auto plan = std::make_shared<FaultPlan>(GetParam());
  LinkFaultSpec mix;
  mix.drop = 0.20 * rng.next_double();
  mix.duplicate = 0.10 * rng.next_double();
  mix.reorder = 0.10 * rng.next_double();
  mix.delay = 0.05 * rng.next_double();
  mix.delay_polls = 1 + static_cast<std::uint32_t>(rng.next_bounded(3));
  plan->set_default_link(mix);
  // A few links get a distinct (often harsher) override.
  for (int i = 0; i < 2; ++i) {
    LinkFaultSpec link = mix;
    link.drop = 0.35 * rng.next_double();
    plan->set_link(
        static_cast<PartitionId>(rng.next_bounded(machines)),
        static_cast<PartitionId>(rng.next_bounded(machines)), link);
  }
  SCOPED_TRACE(plan->describe());
  cluster.fabric().install_fault_plan(plan);

  std::vector<KHopQuery> queries;
  const std::size_t q_count = 1 + rng.next_bounded(8);
  for (QueryId i = 0; i < q_count; ++i) {
    queries.push_back(
        {i, static_cast<VertexId>(rng.next_bounded(g.num_vertices())),
         static_cast<Depth>(rng.next_bounded(7))});
  }
  std::vector<std::uint64_t> expected;
  for (const auto& q : queries) {
    expected.push_back(khop_reach_count(g, q.source, q.k));
  }

  // Direction policy is fuzzed along with the fault plan: a random forced
  // mode or the hybrid heuristic with randomized alpha/beta thresholds
  // (spanning always-push through eager-pull), all of which must answer
  // identically under any fault mix.
  DirectionOptions direction;
  switch (rng.next_bounded(4)) {
    case 0:
      direction.mode = TraversalDirection::kPush;
      break;
    case 1:
      direction.mode = TraversalDirection::kPull;
      break;
    default:
      direction.mode = TraversalDirection::kHybrid;
      direction.alpha = 0.25 * (1u << rng.next_bounded(16));
      direction.beta = 0.25 * (1u << rng.next_bounded(16));
      break;
  }
  SCOPED_TRACE(std::string("direction=") + to_string(direction.mode) +
               " alpha=" + std::to_string(direction.alpha) + " beta=" +
               std::to_string(direction.beta));

  const auto bits =
      run_distributed_msbfs(cluster, shards, part, queries, direction);
  EXPECT_EQ(bits.visited, expected) << "msbfs, seed " << GetParam();

  const auto queue = run_distributed_khop(cluster, shards, part, queries);
  EXPECT_EQ(queue.visited, expected) << "khop, seed " << GetParam();

  const auto async = run_async_khop(cluster, shards, part, queries);
  EXPECT_EQ(async.visited, expected) << "async, seed " << GetParam();

  EXPECT_EQ(cluster.fabric().total_delivery_failed(), 0u)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

class ChaosFuzzCombined : public ::testing::TestWithParam<std::uint64_t> {};

// Every cross-feature axis drawn at once in one service run: a mutation
// trace applied through the head epoch, a replica killed mid-run, an index
// mode (fresh at the head epoch, or superseded), a traversal direction and
// a machine-crash schedule on each replica. Every answered query must
// match the serial last-write-wins reference at the head epoch.
TEST_P(ChaosFuzzCombined, ServiceMatchesLastWriteWinsReference) {
  Xoshiro256 rng(GetParam() * 0x2545f4914f6cdd1dULL + 3);

  const VertexId n = 48 + static_cast<VertexId>(rng.next_bounded(200));
  const EdgeIndex m = n + rng.next_bounded(static_cast<std::uint64_t>(n) * 4);
  const Graph base = Graph::build(generate_uniform(n, m, rng.next()), n);
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(3));
  const auto part = RangePartition::balanced_by_edges(base, machines);
  auto shards = build_shards(base, part);

  MutationTraceOptions topt;
  topt.seed = rng.next();
  topt.num_epochs = 1 + rng.next_bounded(3);
  topt.ops_per_epoch = 8 + rng.next_bounded(32);
  topt.delete_fraction = 0.5 * rng.next_double();
  const MutationTrace trace = generate_mutation_trace(base, topt);
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    apply_trace_epoch(std::span(shards), trace, e);
  }
  const Graph ref = Graph::build(
      apply_mutation_trace(base, trace, trace.epochs.size()), n);

  const IndexMode kModes[] = {IndexMode::kOff, IndexMode::kGrail,
                              IndexMode::kGates, IndexMode::kFull};
  IndexOptions io;
  io.mode = kModes[rng.next_bounded(4)];
  const bool fresh_index = rng.next_bounded(2) == 0;
  ReachIndex index = ReachIndex::build(fresh_index ? ref : base, io);
  if (fresh_index) index.set_built_epoch(trace.epochs.size());

  DirectionOptions direction;
  switch (rng.next_bounded(3)) {
    case 0:
      direction.mode = TraversalDirection::kPush;
      break;
    case 1:
      direction.mode = TraversalDirection::kPull;
      break;
    default:
      direction.mode = TraversalDirection::kHybrid;
      direction.alpha = 0.25 * (1u << rng.next_bounded(16));
      direction.beta = 0.25 * (1u << rng.next_bounded(16));
      break;
  }

  std::vector<std::unique_ptr<Cluster>> storage;
  std::vector<Cluster*> replicas;
  std::string crashes;
  for (std::size_t r = 0; r < 2; ++r) {
    storage.push_back(std::make_unique<Cluster>(machines));
    Cluster& c = *storage.back();
    auto plan = std::make_shared<FaultPlan>(GetParam() * 2 + r);
    if (rng.next_bounded(2) == 0) {
      const auto machine = static_cast<PartitionId>(rng.next_bounded(machines));
      const std::uint64_t step = 1 + rng.next_bounded(8);
      plan->add_crash(machine, step);
      crashes += " crash r" + std::to_string(r) + ":m" +
                 std::to_string(machine) + "@" + std::to_string(step);
    }
    c.fabric().install_fault_plan(plan);
    c.set_recovery(RecoveryOptions{});
    replicas.push_back(&c);
  }
  const std::size_t victim = rng.next_bounded(2);
  HaltSpec halt;
  halt.at_superstep = 1 + rng.next_bounded(10);
  replicas[victim]->arm_halt(halt);

  SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " epochs=" +
               std::to_string(trace.epochs.size()) + " index=" +
               to_string(io.mode) + (fresh_index ? "/fresh" : "/superseded") +
               " direction=" + to_string(direction.mode) + " kill=r" +
               std::to_string(victim) + "@" +
               std::to_string(halt.at_superstep) + crashes);

  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 4 + rng.next_bounded(13);
  opts.scheduler.direction = direction;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 0;
  opts.linger_seconds = 5e-4;
  opts.index = &index;
  ReplicaRouterOptions ro;
  ro.route_seed = rng.next();
  ReplicaRouter router(replicas, shards, part, opts.scheduler, ro);
  opts.router = &router;

  PoissonArrivalParams ap;
  ap.rate_qps = 4000;
  ap.count = 24 + rng.next_bounded(24);
  ap.k = static_cast<Depth>(1 + rng.next_bounded(4));
  ap.seed = rng.next();
  ap.point_fraction = 0.5;
  const auto arrivals = make_poisson_arrivals(base, ap);
  const auto run =
      run_query_service(*replicas[0], shards, part, arrivals, opts);

  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.shed, 0u);
  EXPECT_EQ(run.stats.completed + run.stats.index_answered, arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const KHopQuery& q = arrivals[i].query;
    const ServiceQueryRecord& rec = run.queries[i];
    ASSERT_TRUE(rec.outcome == ServiceOutcome::kCompleted ||
                rec.outcome == ServiceOutcome::kIndexAnswered)
        << "query " << q.id << " ended " << to_string(rec.outcome);
    if (q.is_point()) {
      const bool truth =
          bfs_levels(ref, q.source, q.k)[q.target] != kUnvisitedDepth;
      EXPECT_EQ(rec.reachable, truth ? 1 : 0)
          << "point query " << q.id << ": " << q.source << " -> "
          << q.target << " (" << to_string(rec.outcome) << ")";
    } else {
      EXPECT_EQ(rec.visited, khop_reach_count(ref, q.source, q.k))
          << "query " << q.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFuzzCombined,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace cgraph
