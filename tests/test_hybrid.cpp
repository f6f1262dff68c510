// Differential suite for direction-optimizing traversal (DESIGN.md §12):
// forced-push, forced-pull, and the hybrid heuristic must produce
// bit-identical visited planes — against each other and against the serial
// BFS reference — for every thread count, batch width, fault plan, and
// crash schedule. Planes (via the engines' visited_out) are compared
// rather than just visited counts: a vertex double-counted in one mode and
// missed in another could cancel in an aggregate and hide a divergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/mutation_trace.hpp"
#include "gen/random_graphs.hpp"
#include "graph/shard.hpp"
#include "net/fault.hpp"
#include "query/bfs.hpp"
#include "query/msbfs.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

DirectionOptions dir(TraversalDirection mode) {
  DirectionOptions d;
  d.mode = mode;
  return d;
}

const TraversalDirection kAllModes[] = {TraversalDirection::kPush,
                                        TraversalDirection::kPull,
                                        TraversalDirection::kHybrid};

/// Queries with spread sources and mixed hop bounds (including k=0 when
/// width allows, the empty-traversal edge case).
std::vector<KHopQuery> make_queries(const Graph& g, std::size_t count) {
  std::vector<KHopQuery> qs;
  qs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    qs.push_back({static_cast<QueryId>(i),
                  static_cast<VertexId>((i * 37 + 5) % g.num_vertices()),
                  static_cast<Depth>(i % 6)});
  }
  return qs;
}

/// Serial reference plane: bit (v, q) set iff v is within k_q hops of
/// query q's source (the source itself included, matching seed()).
QueryBitRows reference_plane(const Graph& g,
                             std::span<const KHopQuery> queries) {
  QueryBitRows plane(g.num_vertices(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto depths = bfs_levels(g, queries[q].source, queries[q].k);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (depths[v] != kUnvisitedDepth) plane.set(v, q);
    }
  }
  return plane;
}

void expect_planes_equal(const QueryBitRows& got, const QueryBitRows& want,
                         const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.words_per_row(), want.words_per_row()) << what;
  for (std::size_t v = 0; v < got.rows(); ++v) {
    const Word* a = got.row(v);
    const Word* b = want.row(v);
    for (std::size_t w = 0; w < got.words_per_row(); ++w) {
      ASSERT_EQ(a[w], b[w]) << what << ": plane mismatch at row " << v
                            << " word " << w;
    }
  }
}

struct Bed {
  Graph g;
  PartitionId machines;
  RangePartition part;
  std::vector<SubgraphShard> shards;
};

Bed make_bed(VertexId n, EdgeIndex m, std::uint64_t seed,
             PartitionId machines) {
  Bed bed;
  bed.g = Graph::build(generate_uniform(n, m, seed));
  bed.machines = machines;
  bed.part = RangePartition::balanced_by_edges(bed.g, machines);
  bed.shards = build_shards(bed.g, bed.part);
  return bed;
}

/// Same probabilistic link-fault mix as the chaos suite (combined ~35%,
/// inside the retry budgets).
void add_link_mix(FaultPlan& plan, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.15 * rng.next_double();
  mix.duplicate = 0.10 * rng.next_double();
  mix.reorder = 0.10 * rng.next_double();
  mix.delay = 0.05 * rng.next_double();
  mix.delay_polls = 1 + static_cast<std::uint32_t>(rng.next_bounded(3));
  plan.set_default_link(mix);
}

// ---------------------------------------------------------------------------
// Single-machine engine: every mode x thread count x batch width.

TEST(HybridSingle, PlaneExactAcrossModesThreadsAndWidths) {
  const Graph g = Graph::build(generate_uniform(600, 3000, 11));
  // Widths straddling the 64-bit word boundary, plus singleton.
  for (const std::size_t width : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65}}) {
    const auto queries = make_queries(g, width);
    const QueryBitRows want = reference_plane(g, queries);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const TraversalDirection mode : kAllModes) {
        QueryBitRows got;
        const auto r = msbfs_batch(g, queries, threads, dir(mode), &got);
        expect_planes_equal(
            got, want,
            "width=" + std::to_string(width) + " threads=" +
                std::to_string(threads) + " mode=" + to_string(mode));
        ASSERT_EQ(r.visited.size(), width);
      }
    }
  }
}

TEST(HybridSingle, FullWidth512Batch) {
  const Graph g = Graph::build(generate_uniform(220, 1400, 29));
  const auto queries = make_queries(g, 512);
  const QueryBitRows want = reference_plane(g, queries);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const TraversalDirection mode : kAllModes) {
      QueryBitRows got;
      const auto r = msbfs_batch(g, queries, threads, dir(mode), &got);
      expect_planes_equal(got, want,
                          std::string("512-wide threads=") +
                              std::to_string(threads) + " mode=" +
                              to_string(mode));
      ASSERT_EQ(r.visited.size(), queries.size());
    }
  }
}

TEST(HybridSingle, VisitedCountsAgreeAcrossModes) {
  const Graph g = Graph::build(generate_uniform(500, 4000, 17));
  const auto queries = make_queries(g, 64);
  const auto push = msbfs_batch(g, queries, 1, dir(TraversalDirection::kPush));
  const auto pull = msbfs_batch(g, queries, 1, dir(TraversalDirection::kPull));
  const auto hyb =
      msbfs_batch(g, queries, 1, dir(TraversalDirection::kHybrid));
  EXPECT_EQ(push.visited, pull.visited);
  EXPECT_EQ(push.visited, hyb.visited);
  EXPECT_EQ(push.levels, pull.levels);
  EXPECT_EQ(push.levels, hyb.levels);
}

TEST(HybridSingle, HybridDegradesToPushWithoutInEdges) {
  GraphBuildOptions opts;
  opts.build_in_edges = false;
  const Graph g = Graph::build(generate_uniform(300, 2400, 7), opts);
  ASSERT_FALSE(g.has_in_edges());
  const auto queries = make_queries(g, 32);
  QueryBitRows got;
  const auto r = msbfs_batch(g, queries, 1,
                             dir(TraversalDirection::kHybrid), &got);
  // Correct answers, and every level recorded as push: the heuristic must
  // never pick pull without a CSC to pull from.
  const Graph g_in = Graph::build(generate_uniform(300, 2400, 7));
  expect_planes_equal(got, reference_plane(g_in, queries),
                      "hybrid without in-edges");
  for (const auto& lt : r.level_trace) {
    EXPECT_EQ(lt.pull_machines, 0u) << "level " << lt.level;
    EXPECT_EQ(lt.push_machines, 1u) << "level " << lt.level;
  }
}

TEST(HybridSingle, ForcedModesRecordedInLevelTrace) {
  const Graph g = Graph::build(generate_uniform(400, 3200, 23));
  const auto queries = make_queries(g, 64);
  const auto push = msbfs_batch(g, queries, 1, dir(TraversalDirection::kPush));
  for (const auto& lt : push.level_trace) {
    EXPECT_EQ(lt.push_machines, 1u);
    EXPECT_EQ(lt.pull_machines, 0u);
  }
  const auto pull = msbfs_batch(g, queries, 1, dir(TraversalDirection::kPull));
  for (const auto& lt : pull.level_trace) {
    EXPECT_EQ(lt.push_machines, 0u);
    EXPECT_EQ(lt.pull_machines, 1u);
  }
  // Scout counts are the heuristic's input and must be populated either way
  // (level 0 carries the seeds' out-degrees).
  ASSERT_FALSE(push.level_trace.empty());
  EXPECT_EQ(push.level_trace[0].scout_edges, pull.level_trace[0].scout_edges);
}

// ---------------------------------------------------------------------------
// Distributed engine: modes x machines x threads, clean links.

TEST(HybridDistributed, PlaneExactAcrossModesMachinesThreads) {
  for (const PartitionId machines : {PartitionId{1}, PartitionId{3}}) {
    const Bed bed = make_bed(240, 1600, 31, machines);
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{64}, std::size_t{65}}) {
      const auto queries = make_queries(bed.g, width);
      const QueryBitRows want = reference_plane(bed.g, queries);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const TraversalDirection mode : kAllModes) {
          Cluster cluster(machines);
          cluster.set_compute_threads(threads);
          QueryBitRows got;
          run_distributed_msbfs(cluster, bed.shards, bed.part, queries,
                                dir(mode), &got);
          expect_planes_equal(
              got, want,
              "machines=" + std::to_string(machines) + " width=" +
                  std::to_string(width) + " threads=" +
                  std::to_string(threads) + " mode=" + to_string(mode));
        }
      }
    }
  }
}

TEST(HybridDistributed, PerPartitionDecisionsRecorded) {
  const Bed bed = make_bed(300, 2400, 13, 3);
  const auto queries = make_queries(bed.g, 64);
  Cluster cluster(3);
  const auto r = run_distributed_msbfs(cluster, bed.shards, bed.part,
                                       queries,
                                       dir(TraversalDirection::kPull));
  for (const auto& lt : r.level_trace) {
    EXPECT_EQ(lt.pull_machines, 3u) << "level " << lt.level;
    EXPECT_EQ(lt.push_machines, 0u) << "level " << lt.level;
  }
}

/// Per machine, the staged packets and bytes one run sent.
struct ShippedTraffic {
  std::vector<std::uint64_t> packets;
  std::vector<std::uint64_t> bytes;
};

ShippedTraffic shipped_traffic(Cluster& cluster) {
  ShippedTraffic t;
  for (PartitionId m = 0; m < cluster.num_machines(); ++m) {
    const TrafficCounters& c = cluster.fabric().sent_counters(m);
    t.packets.push_back(c.staged_packets.load());
    t.bytes.push_back(c.staged_bytes.load());
  }
  return t;
}

// Pull levels keep the cross-partition push, so what a batch ships must not
// depend on the direction or the thread count: per machine, forced push,
// forced pull and hybrid at 1 and 4 threads send the same staged packets
// and bytes and end on the same visited plane. The mutated bed carries
// uncompacted inserts and tombstones, so delta extras ship through the
// same remote path.
TEST(HybridDistributed, ShippedTrafficIdenticalAcrossModesAndThreads) {
  std::vector<std::uint64_t> frozen_bytes;
  for (const bool mutated : {false, true}) {
    Bed bed = make_bed(300, 2400, 37, 3);
    if (mutated) {
      MutationTraceOptions topt;
      topt.seed = 5;
      topt.num_epochs = 2;
      topt.ops_per_epoch = 60;
      topt.delete_fraction = 0.25;
      const MutationTrace trace = generate_mutation_trace(bed.g, topt);
      for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
        apply_trace_epoch(std::span(bed.shards), trace, e);
      }
      for (const SubgraphShard& shard : bed.shards) {
        ASSERT_TRUE(shard.has_mutations());
      }
    }
    for (const std::size_t width : {std::size_t{48}, std::size_t{512}}) {
      const auto queries = make_queries(bed.g, width);
      bool have_ref = false;
      ShippedTraffic ref;
      QueryBitRows ref_plane;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const TraversalDirection mode : kAllModes) {
          const std::string what =
              std::string(mutated ? "mutated" : "frozen") + " width=" +
              std::to_string(width) + " threads=" + std::to_string(threads) +
              " mode=" + to_string(mode);
          Cluster cluster(bed.machines);
          cluster.set_compute_threads(threads);
          QueryBitRows got;
          run_distributed_msbfs(cluster, bed.shards, bed.part, queries,
                                dir(mode), &got);
          const ShippedTraffic t = shipped_traffic(cluster);
          if (!have_ref) {
            have_ref = true;
            ref = t;
            ref_plane = got;
            for (PartitionId m = 0; m < bed.machines; ++m) {
              ASSERT_GT(t.packets[m], 0u) << what << " machine " << m;
            }
            if (width == 512) {
              if (mutated) {
                EXPECT_NE(t.bytes, frozen_bytes) << what;
              } else {
                frozen_bytes = t.bytes;
              }
            }
            continue;
          }
          EXPECT_EQ(t.packets, ref.packets) << what;
          EXPECT_EQ(t.bytes, ref.bytes) << what;
          expect_planes_equal(got, ref_plane, what);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos: probabilistic link faults under every mode.

class HybridChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridChaos, PlaneExactUnderLinkFaults) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const auto n = static_cast<VertexId>(64 + rng.next_bounded(200));
  const auto m = static_cast<EdgeIndex>(
      1 + rng.next_bounded(static_cast<std::uint64_t>(n) * 5));
  const auto machines = static_cast<PartitionId>(2 + rng.next_bounded(3));
  const Bed bed = make_bed(n, m, rng.next(), machines);
  const auto queries = make_queries(bed.g, 1 + rng.next_bounded(64));
  const QueryBitRows want = reference_plane(bed.g, queries);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const TraversalDirection mode : kAllModes) {
      Cluster cluster(machines);
      cluster.set_compute_threads(threads);
      FaultPlan plan(seed);
      add_link_mix(plan, seed);
      cluster.fabric().install_fault_plan(
          std::make_shared<FaultPlan>(std::move(plan)));
      QueryBitRows got;
      run_distributed_msbfs(cluster, bed.shards, bed.part, queries,
                            dir(mode), &got);
      expect_planes_equal(got, want,
                          "chaos seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads) +
                              " mode=" + to_string(mode));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridChaos,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---------------------------------------------------------------------------
// Recovery: crash at every superstep of the run, every mode. The replay
// must reproduce the fault-free plane AND the fault-free simulated
// makespan exactly — in pull/hybrid mode that additionally pins the
// direction heuristic's hysteresis state across the checkpoint/restore
// cut (it is part of the checkpoint payload).

class HybridRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridRecovery, CrashAtEverySuperstepEveryMode) {
  const std::uint64_t seed = GetParam();
  const Bed bed = make_bed(150, 900, seed * 101 + 3, 3);
  const auto queries = make_queries(bed.g, 48);
  const QueryBitRows want = reference_plane(bed.g, queries);

  for (const TraversalDirection mode : kAllModes) {
    // Fault-free probe: reference sim time and the superstep count that
    // bounds the crash sweep.
    Cluster probe(bed.machines);
    QueryBitRows probe_plane;
    const auto clean = run_distributed_msbfs(probe, bed.shards, bed.part,
                                             queries, dir(mode),
                                             &probe_plane);
    expect_planes_equal(probe_plane, want,
                        std::string("probe mode=") + to_string(mode));
    const std::uint64_t steps = probe.telemetry().supersteps.size();
    ASSERT_GT(steps, 0u);

    for (std::uint64_t s = 1; s <= steps; ++s) {
      const auto victim =
          static_cast<PartitionId>((s + seed) % bed.machines);
      SCOPED_TRACE(std::string("mode=") + to_string(mode) + " crash " +
                   std::to_string(victim) + "@" + std::to_string(s));
      Cluster cluster(bed.machines);
      FaultPlan plan(seed);
      plan.add_crash(victim, s);
      cluster.fabric().install_fault_plan(
          std::make_shared<FaultPlan>(std::move(plan)));
      cluster.set_recovery(RecoveryOptions{});
      QueryBitRows got;
      const auto r = run_distributed_msbfs(cluster, bed.shards, bed.part,
                                           queries, dir(mode), &got);
      expect_planes_equal(got, want, "crashed run");
      EXPECT_EQ(cluster.recovery_stats().crashes, 1u)
          << "scheduled crash must fire exactly once";
      EXPECT_DOUBLE_EQ(r.sim_seconds, clean.sim_seconds)
          << "deterministic replay must reproduce the fault-free schedule";
      EXPECT_EQ(r.visited, clean.visited);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridRecovery,
                         ::testing::Range<std::uint64_t>(1, 4));

}  // namespace
}  // namespace cgraph
