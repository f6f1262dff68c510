// Replicated shard serving (DESIGN.md §14): N replica Clusters over the
// same partitioned graph, fronted by a health-checked router.
//
// Replication is for availability, not capacity: every replica holds the
// full set of shards, so any healthy replica can serve any batch. The
// router (a) routes index-answerable point queries (the §13 bypass lane)
// to any healthy replica, (b) routes traversal batches by partition
// ownership of the batch's first root with a deterministic, seed-pinned
// replica choice, and (c) health-checks replicas via heartbeat misses —
// replica deaths themselves are driven off the deterministic halt/crash
// schedule (Cluster::arm_halt layered on the FaultPlan machinery), so a
// replica-kill sweep replays exactly.
//
// When a replica dies mid-batch (Cluster::run throws ReplicaDead), the
// service fails the admitted batch over to a surviving replica: the dead
// replica's checkpoint store is exported with its partial tail discarded
// (CheckpointStore::latest_complete_step) and adopted by the survivor,
// which resumes the batch from the last complete barrier cut. Down to one
// replica, the service keeps answering — degraded, never wrong: answers
// are fault-plan independent (the chaos invariant), so a survivor
// replaying an adopted cut under its own FaultPlan stays bit-exact.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "query/scheduler.hpp"

namespace cgraph {

/// Replica health as seen by the router's failure detector.
enum class ReplicaHealth : std::uint8_t {
  kHealthy,  // serving; heartbeats current
  kSuspect,  // missed at least one heartbeat, not yet declared dead
  kDead,     // declared dead (miss threshold, or a hard ReplicaDead)
};

[[nodiscard]] const char* to_string(ReplicaHealth health);

struct ReplicaRouterOptions {
  /// Seed pinning the deterministic replica choice (route hash). Distinct
  /// from the FaultPlan seed so routing can be varied independently of the
  /// chaos schedule.
  std::uint64_t route_seed = 1;
  /// Consecutive heartbeat misses before a replica is declared dead by the
  /// polling detector. A ReplicaDead thrown mid-batch is a hard signal and
  /// declares death immediately (recorded as threshold misses).
  std::uint32_t heartbeat_miss_threshold = 3;
};

/// Per-replica counters surfaced through publish_metrics.
struct ReplicaStats {
  ReplicaHealth health = ReplicaHealth::kHealthy;
  std::uint32_t consecutive_misses = 0;
  std::uint64_t heartbeat_misses_total = 0;
  std::uint64_t batches_executed = 0;
  std::uint64_t point_queries_routed = 0;
};

class ReplicaRouter {
 public:
  static constexpr std::size_t kNoReplica = ~std::size_t{0};

  /// `replicas` are caller-owned Clusters (all with shards.size()
  /// machines). Each gets its own BatchExecutor so per-replica engine
  /// state never aliases; the shared memory-retention model is kept in
  /// sync via BatchExecutor::sync_memory_model after every batch.
  ReplicaRouter(std::vector<Cluster*> replicas,
                const std::vector<SubgraphShard>& shards,
                const RangePartition& partition,
                const SchedulerOptions& sched_opts,
                ReplicaRouterOptions opts = {});

  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }
  [[nodiscard]] Cluster& replica(std::size_t r) { return *replicas_[r]; }
  [[nodiscard]] BatchExecutor& executor(std::size_t r) {
    return *executors_[r];
  }
  [[nodiscard]] const ReplicaRouterOptions& options() const { return opts_; }

  [[nodiscard]] ReplicaHealth health(std::size_t r) const;
  [[nodiscard]] std::size_t healthy_count() const;
  /// Degraded-but-correct mode: at least one replica has been declared
  /// dead and the survivors carry the service.
  [[nodiscard]] bool degraded() const;
  [[nodiscard]] std::uint64_t failovers() const;
  [[nodiscard]] std::vector<ReplicaStats> stats() const;

  /// Deterministic, seed-pinned batch routing: hash(route_seed,
  /// batch_index, owner partition of the batch's first root) picks the
  /// preferred replica; the first non-dead replica scanning from it is
  /// returned. Pure in (seed, batch, owner, set of dead replicas) — and
  /// the dead set evolves deterministically — so a replay routes
  /// identically.
  [[nodiscard]] std::size_t route_batch(std::uint64_t batch_index,
                                        VertexId first_root) const;

  /// Route an index-answerable point query (the bypass lane never touches
  /// replica state — the index tier is shared — so this is attribution:
  /// which healthy replica the hit is accounted to). Bumps that replica's
  /// point_queries_routed.
  std::size_t route_point(std::uint64_t query_id);

  /// Owning partition of a root under the shared RangePartition (the
  /// routing key; exposed for traces and tests).
  [[nodiscard]] PartitionId owner_partition(VertexId root) const {
    return partition_.owner(root);
  }

  /// One failure-detector sweep (the service runs it at each batch
  /// dispatch): a halted-but-not-yet-declared replica records a heartbeat
  /// miss; at the miss threshold it is declared dead. Healthy replicas
  /// reset their consecutive-miss counts. Returns the misses recorded so
  /// the caller can trace them (kHeartbeatMiss).
  struct HeartbeatMiss {
    std::size_t replica = kNoReplica;
    std::uint32_t consecutive = 0;
    bool declared_dead = false;
  };
  std::vector<HeartbeatMiss> poll_heartbeats();

  /// Failover decision for a replica that died mid-batch (hard signal:
  /// Cluster::run threw ReplicaDead). Declares it dead, charges threshold
  /// heartbeat misses, bumps the failover counter, and picks the survivor
  /// — but does NOT move checkpoint state; the caller decides adoption
  /// (membership may have changed, see ServicePipeline) and calls adopt().
  struct FailoverPlan {
    std::size_t dead = kNoReplica;
    std::size_t survivor = kNoReplica;
    /// Dead replica's simulated clock at death (batch-relative: engines
    /// reset clocks at execute entry).
    double dead_sim_seconds = 0;
    /// Simulated clock at the adoptable cut (0 when cut_step == 0).
    double cut_sim_seconds = 0;
    std::uint64_t cut_step = 0;
    /// Both sides run recovery, so the cut can actually be adopted.
    bool can_adopt = false;
  };
  FailoverPlan plan_failover(std::size_t dead_replica);

  /// Export the dead replica's last complete cut (partial tail discarded)
  /// and arm the survivor to resume from it on its next execute.
  void adopt(const FailoverPlan& plan);

  /// Post-batch bookkeeping: bump the executing replica's batch counter,
  /// reset its miss count, and mirror its memory-model accounting onto the
  /// idle peers (one logical service).
  void on_batch_success(std::size_t r);

  /// Modeled peak footprint across replicas (they mirror each other, but
  /// a replica that died mid-batch may hold the high-water mark).
  [[nodiscard]] std::uint64_t peak_memory_bytes() const;

  /// Publish replica health gauges and routing/failover counters
  /// (cgraph_replica_*). Call after the run, like Cluster::publish_metrics.
  void publish_metrics(obs::MetricsRegistry& registry) const;

 private:
  [[nodiscard]] std::size_t first_live_from(std::size_t start) const;

  std::vector<Cluster*> replicas_;
  const RangePartition& partition_;
  ReplicaRouterOptions opts_;
  std::vector<std::unique_ptr<BatchExecutor>> executors_;
  std::vector<ReplicaStats> stats_;
  std::uint64_t failovers_ = 0;
};

}  // namespace cgraph
