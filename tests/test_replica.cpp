// Replicated serving acceptance suite (DESIGN.md §14): N replica clusters
// behind the health-checked ReplicaRouter, with deterministic replica
// kills (Cluster::arm_halt) at chosen supersteps.
//
//   * acceptance sweep — >= 12 seeds x kill-each-replica x supersteps x
//     {1, 4} threads x {clean, chaos} links: every admitted query
//     completes bit-exact vs the serial reference, zero admitted queries
//     are lost, and the degraded service keeps answering;
//   * replica loss during a checkpoint write: the survivor adopts the
//     last *complete* barrier cut and the partial tail is discarded;
//   * bounded-exponential async-send backoff with deterministic seeded
//     jitter, pure in (seed, link, attempt);
//   * per-query failover budget and deadline: an expired query is never
//     re-dispatched to another replica (counted shed, not re-executed),
//     extending the submitted = admitted + shed + index_answered identity;
//   * heartbeat-miss failure detection and deterministic routing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cgraph/cgraph.hpp"
#include "net/fault.hpp"
#include "util/rng.hpp"

namespace cgraph {
namespace {

/// Graph + partition shared by every replica in a test (clusters are
/// per-run so halt schedules and fault plans never leak between runs).
struct World {
  Graph graph;
  RangePartition partition;
  std::vector<SubgraphShard> shards;

  explicit World(PartitionId machines, unsigned scale = 6,
                 std::uint64_t seed = 91, double edge_factor = 6)
      : graph([&] {
          RmatParams p;
          p.scale = scale;
          p.edge_factor = edge_factor;
          p.seed = seed;
          return Graph::build(generate_rmat(p), VertexId{1} << scale);
        }()),
        partition(RangePartition::balanced_by_edges(graph, machines)),
        shards(build_shards(graph, partition)) {}
};

/// Light probabilistic link-fault mix (same shape as the chaos suite).
FaultPlan make_chaos_plan(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan(seed);
  LinkFaultSpec mix;
  mix.drop = 0.05 + 0.10 * rng.next_double();
  mix.duplicate = 0.08 * rng.next_double();
  mix.reorder = 0.08 * rng.next_double();
  plan.set_default_link(mix);
  return plan;
}

/// A replica set over `w`: every cluster spans the same shards, recovery
/// is on everywhere (adoption needs checkpoints on both sides), and chaos
/// replicas get distinct deterministic fault plans (seed + replica).
struct ReplicaSet {
  std::vector<std::unique_ptr<Cluster>> storage;
  std::vector<Cluster*> replicas;

  ReplicaSet(PartitionId machines, std::size_t n, bool chaos,
             std::uint64_t seed) {
    for (std::size_t r = 0; r < n; ++r) {
      storage.push_back(std::make_unique<Cluster>(machines));
      Cluster& c = *storage.back();
      if (chaos) {
        c.fabric().install_fault_plan(
            std::make_shared<FaultPlan>(make_chaos_plan(seed + r)));
      }
      c.set_recovery(RecoveryOptions{});
      replicas.push_back(&c);
    }
  }
};

// ---------------------------------------------------------------------------
// Satellite: bounded exponential retry backoff with deterministic jitter.
// ---------------------------------------------------------------------------

TEST(ReplicaBackoff, BoundedWindowsPerAttempt) {
  // base = min(kRetryMaxPolls, kRetryBasePolls << (attempt-1)), plus a
  // jitter in [0, kRetryJitterPolls]. Attempt 0 is treated as attempt 1.
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (PartitionId from = 0; from < 4; ++from) {
      for (PartitionId to = 0; to < 4; ++to) {
        for (std::uint32_t attempt = 0; attempt <= 40; ++attempt) {
          const std::uint32_t polls =
              MachineContext::retry_backoff_polls(seed, from, to, attempt);
          const std::uint32_t n = attempt == 0 ? 1 : attempt;
          const std::uint32_t base =
              std::min(MachineContext::kRetryMaxPolls,
                       n >= 4 ? MachineContext::kRetryMaxPolls
                              : MachineContext::kRetryBasePolls << (n - 1));
          EXPECT_GE(polls, base);
          EXPECT_LE(polls, base + MachineContext::kRetryJitterPolls);
        }
      }
    }
  }
  // Exponential growth until the cap: the windows for attempts 1 and 4
  // cannot overlap (2..5 vs 10..13).
  EXPECT_LT(MachineContext::retry_backoff_polls(7, 0, 1, 1),
            MachineContext::retry_backoff_polls(7, 0, 1, 4));
}

TEST(ReplicaBackoff, DeterministicAndLinkSeeded) {
  // Pure in (seed, link, attempt): same inputs always agree.
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(MachineContext::retry_backoff_polls(9, 1, 2, attempt),
              MachineContext::retry_backoff_polls(9, 1, 2, attempt));
  }
  // The jitter must actually depend on seed and link: across a spread of
  // inputs at a fixed attempt the values cannot all collapse to one point.
  std::set<std::uint32_t> by_seed;
  std::set<std::uint32_t> by_link;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    by_seed.insert(MachineContext::retry_backoff_polls(seed, 0, 1, 2));
  }
  for (PartitionId to = 1; to < 16; ++to) {
    by_link.insert(MachineContext::retry_backoff_polls(3, 0, to, 2));
  }
  EXPECT_GT(by_seed.size(), 1u);
  EXPECT_GT(by_link.size(), 1u);
}

// ---------------------------------------------------------------------------
// Router unit behavior: routing determinism, failure detection.
// ---------------------------------------------------------------------------

TEST(ReplicaRouterTest, RoutingIsDeterministicAndSkipsDead) {
  const PartitionId machines = 3;
  World w(machines);
  ReplicaSet rs(machines, 3, /*chaos=*/false, /*seed=*/1);
  SchedulerOptions sched;
  ReplicaRouter router(rs.replicas, w.shards, w.partition, sched);

  // Deterministic: the same (batch, root) always routes identically, and
  // the hash spreads batches across replicas.
  std::set<std::size_t> used;
  for (std::uint64_t b = 0; b < 32; ++b) {
    const std::size_t r = router.route_batch(b, /*first_root=*/7);
    EXPECT_EQ(r, router.route_batch(b, 7));
    used.insert(r);
  }
  EXPECT_GT(used.size(), 1u);

  // Declaring a replica dead re-routes its batches to survivors without
  // moving any batch that was already on a live replica.
  std::vector<std::size_t> before;
  for (std::uint64_t b = 0; b < 32; ++b) {
    before.push_back(router.route_batch(b, 7));
  }
  HaltSpec halt;
  halt.at_superstep = 1;
  rs.replicas[1]->arm_halt(halt);
  BatchExecutor& ex1 = router.executor(1);
  const auto queries = make_random_queries(w.graph, 4, /*k=*/3, /*seed=*/5);
  EXPECT_THROW(ex1.execute(queries), ReplicaDead);
  EXPECT_TRUE(rs.replicas[1]->halted());
  (void)router.plan_failover(1);
  EXPECT_EQ(router.health(1), ReplicaHealth::kDead);
  for (std::uint64_t b = 0; b < 32; ++b) {
    const std::size_t r = router.route_batch(b, 7);
    EXPECT_NE(r, 1u);
    if (before[b] != 1) {
      EXPECT_EQ(r, before[b]);
    }
  }
}

TEST(ReplicaRouterTest, HeartbeatMissesDeclareDeathAtThreshold) {
  const PartitionId machines = 3;
  World w(machines);
  ReplicaSet rs(machines, 2, /*chaos=*/false, /*seed=*/1);
  ReplicaRouterOptions opts;
  opts.heartbeat_miss_threshold = 3;
  SchedulerOptions sched;
  ReplicaRouter router(rs.replicas, w.shards, w.partition, sched, opts);

  // Healthy replicas record no misses.
  EXPECT_TRUE(router.poll_heartbeats().empty());
  EXPECT_EQ(router.healthy_count(), 2u);
  EXPECT_FALSE(router.degraded());

  // Kill replica 1 (outside the router's view), then let the polling
  // detector find it: suspect, suspect, dead at the third miss.
  HaltSpec halt;
  halt.at_superstep = 1;
  rs.replicas[1]->arm_halt(halt);
  const auto queries = make_random_queries(w.graph, 4, /*k=*/3, /*seed=*/5);
  EXPECT_THROW(router.executor(1).execute(queries), ReplicaDead);

  for (std::uint32_t poll = 1; poll <= 3; ++poll) {
    const auto misses = router.poll_heartbeats();
    ASSERT_EQ(misses.size(), 1u);
    EXPECT_EQ(misses[0].replica, 1u);
    EXPECT_EQ(misses[0].consecutive, poll);
    EXPECT_EQ(misses[0].declared_dead, poll == 3);
    EXPECT_EQ(router.health(1),
              poll == 3 ? ReplicaHealth::kDead : ReplicaHealth::kSuspect);
  }
  EXPECT_TRUE(router.degraded());
  EXPECT_EQ(router.healthy_count(), 1u);
  // Dead replicas stop producing misses.
  EXPECT_TRUE(router.poll_heartbeats().empty());
  const auto stats = router.stats();
  EXPECT_EQ(stats[1].heartbeat_misses_total, 3u);
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: replica kills at every superstep, bit-exact service.
// ---------------------------------------------------------------------------

/// Run the replicated service and assert the §14 invariant: every
/// admitted query completes bit-exact vs the serial reference, nothing is
/// lost, and the identities hold. Returns the router failover count.
std::uint64_t run_killed_service(const World& w, PartitionId machines,
                                 std::span<const TimedQuery> arrivals,
                                 bool chaos, std::size_t threads,
                                 std::size_t kill_replica,
                                 std::uint64_t kill_step,
                                 std::uint64_t seed) {
  ReplicaSet rs(machines, 2, chaos, seed * 101 + 1);
  HaltSpec halt;
  halt.at_superstep = kill_step;
  rs.replicas[kill_replica]->arm_halt(halt);

  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 8;
  opts.scheduler.threads = threads;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 0;  // nothing shed at admission
  opts.linger_seconds = 5e-4;

  ReplicaRouterOptions ro;
  ro.route_seed = seed;
  ReplicaRouter router(rs.replicas, w.shards, w.partition, opts.scheduler,
                       ro);
  opts.router = &router;

  const auto run = run_query_service(*rs.replicas[0], w.shards, w.partition,
                                     arrivals, opts);

  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.submitted, arrivals.size());
  EXPECT_EQ(run.stats.shed, 0u);  // no deadline => failover never sheds
  EXPECT_EQ(run.stats.expired, 0u);
  EXPECT_EQ(run.stats.completed, arrivals.size());
  EXPECT_EQ(run.stats.failovers, router.failovers());

  // Zero admitted queries lost, every answer bit-exact vs the serial
  // reference — under any single-replica loss at any superstep.
  for (const TimedQuery& tq : arrivals) {
    const ServiceQueryRecord& rec = run.queries[tq.query.id];
    EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
    EXPECT_EQ(rec.visited,
              khop_reach_count(w.graph, tq.query.source, tq.query.k))
        << "query " << tq.query.id << " kill=" << kill_replica << "@"
        << kill_step << " chaos=" << chaos << " threads=" << threads;
  }
  // A batch that absorbed a failover must have finished on a survivor.
  for (const ServiceBatchRecord& b : run.batches) {
    if (b.failovers > 0) {
      EXPECT_NE(b.replica, kill_replica);
      EXPECT_NE(b.replica, ServiceBatchRecord::kNoReplica);
    }
  }
  if (router.failovers() > 0) {
    // Degraded-but-correct: the dead replica is marked, survivors carried
    // every query to completion.
    EXPECT_TRUE(router.degraded());
    EXPECT_EQ(router.health(kill_replica), ReplicaHealth::kDead);
    EXPECT_EQ(router.healthy_count(), 1u);
  }
  return router.failovers();
}

// Kill each replica at every superstep of the first batch's execution,
// single-threaded clean links: the bit-exactness invariant must hold at
// every cut point.
TEST(ReplicaFailover, KillEachReplicaAtEverySuperstep) {
  const PartitionId machines = 3;
  World w(machines);
  PoissonArrivalParams ap;
  ap.rate_qps = 4000;
  ap.count = 24;
  ap.k = 3;
  ap.seed = 11;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  std::uint64_t failovers = 0;
  for (const std::size_t replica : {std::size_t{0}, std::size_t{1}}) {
    for (std::uint64_t step = 1; step <= 8; ++step) {
      SCOPED_TRACE("kill=" + std::to_string(replica) + "@" +
                   std::to_string(step));
      failovers += run_killed_service(w, machines, arrivals, /*chaos=*/false,
                                      /*threads=*/1, replica, step,
                                      /*seed=*/1);
    }
  }
  // The schedule must actually have exercised failover.
  EXPECT_GT(failovers, 0u);
}

// The full acceptance sweep: 12 seeds x {clean, chaos} x {1, 4} threads,
// the killed replica and superstep varying with the seed.
TEST(ReplicaFailover, AcceptanceSweepSeedsThreadsChaos) {
  const PartitionId machines = 3;
  World w(machines);
  PoissonArrivalParams ap;
  ap.rate_qps = 4000;
  ap.count = 24;
  ap.k = 3;
  ap.seed = 11;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  std::uint64_t failovers = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool chaos : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " chaos=" + std::to_string(chaos) +
                     " threads=" + std::to_string(threads));
        failovers += run_killed_service(w, machines, arrivals, chaos,
                                        threads, /*kill_replica=*/seed % 2,
                                        /*kill_step=*/1 + seed % 6, seed);
      }
    }
  }
  EXPECT_GT(failovers, 0u);
}

// The queue k-hop engine (use_bit_parallel = false) under the same kill
// sweep. A survivor adopting a cut must report the levels machine 0
// recorded for queries that finished before the cut, so every record's
// `levels` (not just `visited`) must match an unkilled run's.
TEST(ReplicaFailover, QueueEngineAdoptionKeepsCompletionLevels) {
  const PartitionId machines = 3;
  World w(machines, /*scale=*/6, /*seed=*/91, /*edge_factor=*/2);
  PoissonArrivalParams ap;
  ap.rate_qps = 4000;
  ap.count = 24;
  ap.k = 8;
  ap.seed = 11;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  auto serve = [&](std::size_t kill_replica, std::uint64_t kill_step) {
    ReplicaSet rs(machines, 2, /*chaos=*/false, /*seed=*/7);
    if (kill_step > 0) {
      HaltSpec halt;
      halt.at_superstep = kill_step;
      rs.replicas[kill_replica]->arm_halt(halt);
    }
    ServiceOptions opts;
    opts.scheduler.batch_width = 8;
    opts.scheduler.threads = 1;
    opts.scheduler.use_bit_parallel = false;
    opts.queue_cap = 0;
    opts.linger_seconds = 5e-4;
    ReplicaRouter router(rs.replicas, w.shards, w.partition, opts.scheduler,
                         ReplicaRouterOptions{});
    opts.router = &router;
    auto run = run_query_service(*rs.replicas[0], w.shards, w.partition,
                                 arrivals, opts);
    return std::make_pair(std::move(run), router.failovers());
  };

  const auto [clean, clean_failovers] = serve(0, 0);
  ASSERT_EQ(clean_failovers, 0u);
  std::uint64_t failovers = 0;
  for (const std::size_t replica : {std::size_t{0}, std::size_t{1}}) {
    for (std::uint64_t step = 1; step <= 12; ++step) {
      SCOPED_TRACE("kill=" + std::to_string(replica) + "@" +
                   std::to_string(step));
      const auto [run, run_failovers] = serve(replica, step);
      failovers += run_failovers;
      ASSERT_EQ(run.stats.completed, arrivals.size());
      for (const TimedQuery& tq : arrivals) {
        const ServiceQueryRecord& got = run.queries[tq.query.id];
        const ServiceQueryRecord& want = clean.queries[tq.query.id];
        EXPECT_EQ(got.visited, want.visited) << "query " << tq.query.id;
        EXPECT_EQ(static_cast<int>(got.levels), static_cast<int>(want.levels))
            << "query " << tq.query.id;
      }
    }
  }
  EXPECT_GT(failovers, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: replica loss during a checkpoint write.
// ---------------------------------------------------------------------------

// The dying replica interrupts a checkpoint write (machines >= partial_from
// never save their blob at partial_step). The survivor must restore from
// the last *complete* barrier cut, and the partial blobs must never be a
// restore target — 12 seeds x {1, 4} threads x {clean, chaos}.
TEST(ReplicaFailover, PartialCheckpointWriteDiscardedOnAdoption) {
  const PartitionId machines = 4;
  World w(machines);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const bool chaos : {false, true}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " threads=" + std::to_string(threads) +
                     " chaos=" + std::to_string(chaos));
        const auto queries =
            make_random_queries(w.graph, 6, /*k=*/4, /*seed=*/seed);

        // Serial reference on a clean, fault-free cluster.
        Cluster ref_cluster(machines);
        SchedulerOptions sched;
        sched.threads = threads;
        BatchExecutor ref_exec(ref_cluster, w.shards, w.partition, sched);
        const auto ref = ref_exec.execute(queries);

        ReplicaSet rs(machines, 2, chaos, seed * 7 + 3);
        Cluster& dead = *rs.replicas[0];
        Cluster& survivor = *rs.replicas[1];
        // Die at barrier 5 while the level-2 checkpoint (cut step 4) was
        // only partially written: machines 2..3 never saved their blob.
        HaltSpec halt;
        halt.at_superstep = 5;
        halt.partial_from = 2;
        halt.partial_step = 4;
        dead.arm_halt(halt);

        BatchExecutor dead_exec(dead, w.shards, w.partition, sched);
        EXPECT_THROW(dead_exec.execute(queries), ReplicaDead);
        EXPECT_TRUE(dead.halted());

        // The store holds a partial cut at step 4 (machines below
        // partial_from saved; the rest did not) and a complete cut below.
        const CheckpointStore& store = dead.checkpoint_store();
        EXPECT_TRUE(store.machine_at(0, 4).has_value());
        EXPECT_TRUE(store.machine_at(1, 4).has_value());
        EXPECT_FALSE(store.machine_at(2, 4).has_value());
        EXPECT_FALSE(store.machine_at(3, 4).has_value());
        const std::uint64_t cut = store.latest_complete_step();
        EXPECT_LT(cut, 4u);

        // The export discards the partial tail: the package resumes at
        // the last complete cut, never at the interrupted write.
        ClusterResumePackage pkg = dead.export_resume_package();
        EXPECT_EQ(pkg.step, cut);
        for (PartitionId m = 0; m < machines; ++m) {
          for (const auto& [step, blob] : pkg.store.machines[m]) {
            EXPECT_LE(step, cut) << "machine " << unsigned{m};
          }
        }

        // The survivor adopts the cut and finishes the batch bit-exact.
        survivor.arm_resume(std::move(pkg));
        BatchExecutor sur_exec(survivor, w.shards, w.partition, sched);
        const auto out = sur_exec.execute(queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          EXPECT_EQ(out.result.visited[i], ref.result.visited[i])
              << "query " << i;
          EXPECT_EQ(out.result.levels[i], ref.result.levels[i])
              << "query " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: checkpoint blob histories stay bounded.
// ---------------------------------------------------------------------------

// Regression: the store used to retain every blob a machine ever saved.
// The invariant now: once a barrier cut completes, at most one restore
// target per machine survives at-or-below it (plus any in-flight partial
// tail above), and cluster snapshots are trimmed the same way — so a
// long-running service holds O(machines) checkpoint memory, not O(steps).
TEST(CheckpointStoreBounded, HistoryTrimmedToLatestCompleteCut) {
  CheckpointStore store;
  store.reset(3);
  store.set_baseline(ClusterSnapshot{});
  for (std::uint64_t step = 1; step <= 50; ++step) {
    store.save_cluster_snapshot(step, ClusterSnapshot{});
    for (PartitionId m = 0; m < 3; ++m) {
      MachineCheckpoint c;
      c.step = step;
      store.save_machine(m, std::move(c));
    }
    ASSERT_EQ(store.latest_complete_step(), step);
    ASSERT_EQ(store.total_blob_entries(), 3u)
        << "one restore target per machine at step " << step;
    ASSERT_LE(store.num_cluster_snapshots(), 2u);
  }
  EXPECT_TRUE(store.machine_at(0, 50).has_value());
  EXPECT_FALSE(store.machine_at(0, 49).has_value())
      << "blobs below the complete cut must be pruned";

  // An interrupted write leaves a partial tail above the cut: retained
  // (it may yet complete) but never a restore target, and bounded to one
  // extra entry per machine.
  MachineCheckpoint tail;
  tail.step = 51;
  store.save_machine(0, std::move(tail));
  EXPECT_EQ(store.latest_complete_step(), 50u);
  EXPECT_EQ(store.total_blob_entries(), 4u);
}

// The complete == 0 branch (no barrier cut ever finished, e.g. divergent
// async saves): keep only each machine's newest blob. Import runs the
// same pruning, so an adopted store is bounded no matter what the donor
// accumulated.
TEST(CheckpointStoreBounded, DivergentSavesKeepNewestPerMachine) {
  CheckpointStore store;
  store.reset(3);
  // Machine 2 never saves, so no complete cut can exist.
  for (std::uint64_t step = 1; step <= 10; ++step) {
    MachineCheckpoint c;
    c.step = step;
    store.save_machine(0, std::move(c));
  }
  MachineCheckpoint c1;
  c1.step = 4;
  store.save_machine(1, std::move(c1));
  EXPECT_EQ(store.latest_complete_step(), 0u);
  EXPECT_EQ(store.total_blob_entries(), 2u) << "newest-per-machine only";
  EXPECT_TRUE(store.machine_at(0, 10).has_value());
  EXPECT_FALSE(store.machine_at(0, 9).has_value());

  CheckpointStore adopted;
  adopted.reset(3);
  adopted.import_contents(store.export_contents());
  EXPECT_EQ(adopted.total_blob_entries(), 2u)
      << "import must prune whatever the donor held";
}

// End-to-end: after deep batches on a recovery-enabled cluster (a blob
// per machine per superstep flows through save_machine), the store ends
// bounded by machines, not supersteps — including across repeated batches
// on the same cluster and across a failover adoption.
TEST(CheckpointStoreBounded, LongRunServiceHoldsBoundedBlobHistory) {
  const PartitionId machines = 3;
  World w(machines);
  ReplicaSet rs(machines, 2, /*chaos=*/false, /*seed=*/5);
  Cluster& cluster = *rs.replicas[0];
  SchedulerOptions sched;
  BatchExecutor exec(cluster, w.shards, w.partition, sched);
  const auto queries = make_random_queries(w.graph, 8, /*k=*/6, /*seed=*/3);
  std::uint64_t steps_total = 0;
  std::size_t blobs_round0 = 0, snaps_round0 = 0;
  for (int round = 0; round < 3; ++round) {
    exec.execute(queries);
    steps_total += cluster.telemetry().supersteps.size();
    const CheckpointStore& store = cluster.checkpoint_store();
    EXPECT_LE(store.total_blob_entries(), std::size_t{machines} * 2)
        << "round " << round;
    if (round == 0) {
      blobs_round0 = store.total_blob_entries();
      snaps_round0 = store.num_cluster_snapshots();
      // Snapshots above the complete cut are bounded by the checkpoint
      // interval, not the run length — a handful, never per-superstep.
      EXPECT_LE(snaps_round0, std::size_t{4});
    } else {
      // And none of it accretes across batches on a long-lived service.
      EXPECT_LE(store.total_blob_entries(), blobs_round0)
          << "round " << round;
      EXPECT_LE(store.num_cluster_snapshots(), snaps_round0)
          << "round " << round;
    }
  }
  ASSERT_GT(steps_total, std::uint64_t{machines} * 2)
      << "the bound must be tighter than the superstep count for the "
         "assertion to mean anything";
}

// ---------------------------------------------------------------------------
// Satellite: failover budget + admission deadline at re-dispatch.
// ---------------------------------------------------------------------------

// A deadline-expired query is never re-dispatched to another replica: with
// a deadline shorter than the time burnt by the dead attempt, every member
// of the failed batch is counted shed (not re-executed), and the extended
// identity submitted = admitted + shed + index_answered still holds.
TEST(ReplicaFailover, DeadlineExpiredNeverRedispatched) {
  const PartitionId machines = 3;
  World w(machines);
  const auto queries = make_random_queries(w.graph, 12, /*k=*/3, /*seed=*/3);
  std::vector<TimedQuery> arrivals;
  for (const KHopQuery& q : queries) arrivals.push_back({q, 0.0});

  ReplicaSet rs(machines, 2, /*chaos=*/false, /*seed=*/5);
  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = queries.size();  // one batch
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 0;
  opts.linger_seconds = 1e-3;    // all t=0 arrivals seal as one batch
  opts.deadline_seconds = 1e-9;  // met at start (wait 0), gone by t_fail
  ReplicaRouter router(rs.replicas, w.shards, w.partition, opts.scheduler);
  opts.router = &router;

  // Kill whichever replica batch 0 routes to, mid-execution.
  const std::size_t victim = router.route_batch(0, queries[0].source);
  HaltSpec halt;
  halt.at_superstep = 2;
  rs.replicas[victim]->arm_halt(halt);

  const auto run = run_query_service(*rs.replicas[0], w.shards, w.partition,
                                     arrivals, opts);

  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.failovers, 1u);
  EXPECT_EQ(run.stats.failover_shed, queries.size());
  EXPECT_EQ(run.stats.shed, queries.size());
  EXPECT_EQ(run.stats.completed, 0u);
  EXPECT_EQ(run.stats.admitted, 0u);
  EXPECT_LE(run.stats.failover_shed, run.stats.shed);
  for (const ServiceQueryRecord& rec : run.queries) {
    EXPECT_EQ(rec.outcome, ServiceOutcome::kShed);
    // A failover shed carries its batch — distinguishing it from an
    // admission shed — and was never re-dispatched.
    EXPECT_NE(rec.batch_index, ServiceQueryRecord::kNoBatch);
    EXPECT_EQ(rec.failover_attempts, 0u);
  }
  ASSERT_EQ(run.batches.size(), 1u);
  EXPECT_EQ(run.batches[0].failover_shed, queries.size());
  EXPECT_EQ(run.batches[0].failovers, 1u);
}

// The failover budget bounds re-dispatches under cascading replica deaths:
// with budget 1 the second death sheds the batch; with budget 2 the third
// replica finishes it bit-exact.
TEST(ReplicaFailover, FailoverBudgetBoundsRedispatch) {
  const PartitionId machines = 3;
  World w(machines);
  const auto queries = make_random_queries(w.graph, 10, /*k=*/3, /*seed=*/9);
  std::vector<TimedQuery> arrivals;
  for (const KHopQuery& q : queries) arrivals.push_back({q, 0.0});

  for (const std::uint32_t budget : {1u, 2u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    ReplicaSet rs(machines, 3, /*chaos=*/false, /*seed=*/5);
    obs::MetricsRegistry registry;
    ServiceOptions opts;
    opts.scheduler.batch_width = queries.size();
    opts.scheduler.metrics = &registry;
    opts.queue_cap = 0;
    opts.linger_seconds = 1e-3;
    opts.failover_budget = budget;
    ReplicaRouter router(rs.replicas, w.shards, w.partition, opts.scheduler);
    opts.router = &router;

    // First victim: where batch 0 routes. Second victim: the survivor the
    // router will pick after the first death.
    const std::size_t victim = router.route_batch(0, queries[0].source);
    const std::size_t second = (victim + 1) % 3;
    HaltSpec halt;
    halt.at_superstep = 2;
    rs.replicas[victim]->arm_halt(halt);
    HaltSpec halt2;
    halt2.at_superstep = 2;
    rs.replicas[second]->arm_halt(halt2);

    const auto run = run_query_service(*rs.replicas[0], w.shards,
                                       w.partition, arrivals, opts);
    EXPECT_TRUE(run.stats.identities_hold());
    EXPECT_EQ(run.stats.failovers, 2u);
    if (budget == 1) {
      // Budget spent at the second death: every member shed, none lost
      // track of — and never a third dispatch.
      EXPECT_EQ(run.stats.failover_shed, queries.size());
      EXPECT_EQ(run.stats.completed, 0u);
      for (const ServiceQueryRecord& rec : run.queries) {
        EXPECT_EQ(rec.outcome, ServiceOutcome::kShed);
        EXPECT_EQ(rec.failover_attempts, 1u);
      }
    } else {
      // Budget 2: the last replica finishes the batch bit-exact.
      EXPECT_EQ(run.stats.failover_shed, 0u);
      EXPECT_EQ(run.stats.completed, queries.size());
      for (const TimedQuery& tq : arrivals) {
        const ServiceQueryRecord& rec = run.queries[tq.query.id];
        EXPECT_EQ(rec.outcome, ServiceOutcome::kCompleted);
        EXPECT_EQ(rec.failover_attempts, 2u);
        EXPECT_EQ(rec.visited,
                  khop_reach_count(w.graph, tq.query.source, tq.query.k));
      }
      EXPECT_EQ(router.healthy_count(), 1u);
    }
  }
}

// Degraded-but-correct single-replica service: after the only other
// replica dies, the survivor keeps answering every subsequent batch.
TEST(ReplicaFailover, DegradedSingleReplicaKeepsAnswering) {
  const PartitionId machines = 3;
  World w(machines);
  PoissonArrivalParams ap;
  ap.rate_qps = 2000;
  ap.count = 40;
  ap.k = 3;
  ap.seed = 21;
  const auto arrivals = make_poisson_arrivals(w.graph, ap);

  ReplicaSet rs(machines, 2, /*chaos=*/false, /*seed=*/3);
  HaltSpec halt;
  halt.at_superstep = 1;  // dies on its very first batch
  rs.replicas[0]->arm_halt(halt);

  obs::MetricsRegistry registry;
  ServiceOptions opts;
  opts.scheduler.batch_width = 8;
  opts.scheduler.metrics = &registry;
  opts.queue_cap = 0;
  opts.linger_seconds = 5e-4;
  ReplicaRouter router(rs.replicas, w.shards, w.partition, opts.scheduler);
  opts.router = &router;

  const auto run = run_query_service(*rs.replicas[0], w.shards, w.partition,
                                     arrivals, opts);
  EXPECT_TRUE(run.stats.identities_hold());
  EXPECT_EQ(run.stats.completed, arrivals.size());
  EXPECT_TRUE(router.degraded());
  EXPECT_EQ(router.healthy_count(), 1u);
  const auto stats = router.stats();
  EXPECT_EQ(stats[0].health, ReplicaHealth::kDead);
  // The survivor executed every batch after (and including) the failover.
  EXPECT_EQ(stats[1].batches_executed, run.stats.batches);
  for (const TimedQuery& tq : arrivals) {
    EXPECT_EQ(run.queries[tq.query.id].visited,
              khop_reach_count(w.graph, tq.query.source, tq.query.k));
  }
  // Replica metrics surfaced for scraping.
  const std::string dump = registry.to_prometheus();
  EXPECT_NE(dump.find("cgraph_replica_failover_total"), std::string::npos);
  EXPECT_NE(dump.find("cgraph_replica_health"), std::string::npos);
}

}  // namespace
}  // namespace cgraph
