#include "query/replica_router.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace cgraph {
namespace {

/// SplitMix64-style finalizer over (seed, a, b): the seed-pinned routing
/// hash. Stateless so routing decisions replay bit-exact.
std::uint64_t route_mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = seed ^ 0x9e3779b97f4a7c15ULL;
  x ^= (a << 32) ^ b;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

const char* to_string(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kSuspect:
      return "suspect";
    case ReplicaHealth::kDead:
      return "dead";
  }
  return "unknown";
}

ReplicaRouter::ReplicaRouter(std::vector<Cluster*> replicas,
                             const std::vector<SubgraphShard>& shards,
                             const RangePartition& partition,
                             const SchedulerOptions& sched_opts,
                             ReplicaRouterOptions opts)
    : replicas_(std::move(replicas)), partition_(partition),
      opts_(opts) {
  CGRAPH_CHECK_MSG(!replicas_.empty(), "router needs at least one replica");
  if (opts_.heartbeat_miss_threshold == 0) opts_.heartbeat_miss_threshold = 1;
  for (Cluster* c : replicas_) {
    CGRAPH_CHECK(c != nullptr);
    CGRAPH_CHECK_MSG(c->num_machines() == shards.size(),
                     "every replica must span the same shard set");
  }
  executors_.reserve(replicas_.size());
  for (Cluster* c : replicas_) {
    executors_.push_back(
        std::make_unique<BatchExecutor>(*c, shards, partition, sched_opts));
  }
  stats_.resize(replicas_.size());
  // A replica that was already halted when handed to the router starts
  // dead — e.g. one killed during a previous service run.
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r]->halted()) stats_[r].health = ReplicaHealth::kDead;
  }
}

ReplicaHealth ReplicaRouter::health(std::size_t r) const {
  return stats_[r].health;
}

std::size_t ReplicaRouter::healthy_count() const {
  std::size_t n = 0;
  for (const ReplicaStats& s : stats_) {
    if (s.health != ReplicaHealth::kDead) ++n;
  }
  return n;
}

bool ReplicaRouter::degraded() const {
  for (const ReplicaStats& s : stats_) {
    if (s.health == ReplicaHealth::kDead) return true;
  }
  return false;
}

std::uint64_t ReplicaRouter::failovers() const {
  return failovers_;
}

std::vector<ReplicaStats> ReplicaRouter::stats() const {
  return stats_;
}

std::size_t ReplicaRouter::first_live_from(std::size_t start) const {
  const std::size_t n = replicas_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = (start + i) % n;
    if (stats_[r].health != ReplicaHealth::kDead) return r;
  }
  return kNoReplica;
}

std::size_t ReplicaRouter::route_batch(std::uint64_t batch_index,
                                       VertexId first_root) const {
  const PartitionId owner = partition_.owner(first_root);
  const std::size_t preferred = static_cast<std::size_t>(
      route_mix(opts_.route_seed, batch_index, owner) % replicas_.size());
  const std::size_t r = first_live_from(preferred);
  CGRAPH_CHECK_MSG(r != kNoReplica,
                   "no live replica to route a batch to (all replicas dead)");
  return r;
}

std::size_t ReplicaRouter::route_point(std::uint64_t query_id) {
  const std::size_t preferred = static_cast<std::size_t>(
      route_mix(opts_.route_seed, query_id, 0x706f696e74ULL /* "point" */) %
      replicas_.size());
  const std::size_t r = first_live_from(preferred);
  CGRAPH_CHECK_MSG(r != kNoReplica,
                   "no live replica to route a point query to");
  ++stats_[r].point_queries_routed;
  return r;
}

std::vector<ReplicaRouter::HeartbeatMiss> ReplicaRouter::poll_heartbeats() {
  std::vector<HeartbeatMiss> misses;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    ReplicaStats& s = stats_[r];
    if (s.health == ReplicaHealth::kDead) continue;
    if (replicas_[r]->halted()) {
      ++s.consecutive_misses;
      ++s.heartbeat_misses_total;
      const bool dead = s.consecutive_misses >= opts_.heartbeat_miss_threshold;
      s.health = dead ? ReplicaHealth::kDead : ReplicaHealth::kSuspect;
      misses.push_back({r, s.consecutive_misses, dead});
    } else {
      s.consecutive_misses = 0;
      s.health = ReplicaHealth::kHealthy;
    }
  }
  return misses;
}

ReplicaRouter::FailoverPlan ReplicaRouter::plan_failover(
    std::size_t dead_replica) {
  FailoverPlan plan;
  plan.dead = dead_replica;
  Cluster& dead = *replicas_[dead_replica];
  plan.dead_sim_seconds = dead.sim_seconds();
  ReplicaStats& s = stats_[dead_replica];
  if (s.health != ReplicaHealth::kDead) {
    // A hard ReplicaDead is the failure detector's strongest signal:
    // account it as a full threshold of missed heartbeats.
    s.consecutive_misses = opts_.heartbeat_miss_threshold;
    s.heartbeat_misses_total += opts_.heartbeat_miss_threshold;
    s.health = ReplicaHealth::kDead;
  }
  ++failovers_;
  plan.survivor = first_live_from((dead_replica + 1) % replicas_.size());
  CGRAPH_CHECK_MSG(plan.survivor != kNoReplica,
                   "replica died with no survivor to fail over to");
  plan.can_adopt = dead.recovery_enabled() &&
                   replicas_[plan.survivor]->recovery_enabled();
  if (plan.can_adopt) {
    plan.cut_step = dead.checkpoint_store().latest_complete_step();
    if (plan.cut_step > 0) {
      const auto snap =
          dead.checkpoint_store().cluster_snapshot(plan.cut_step);
      if (snap.has_value()) {
        double max_ns = 0;
        for (double ns : snap->clock_ns) max_ns = std::max(max_ns, ns);
        plan.cut_sim_seconds = max_ns * 1e-9;
      }
    }
  }
  CGRAPH_LOG_INFO(
      "replica %zu died at sim %.6fs; failing over to replica %zu "
      "(cut step %llu, adoptable=%d)",
      dead_replica, plan.dead_sim_seconds, plan.survivor,
      static_cast<unsigned long long>(plan.cut_step),
      plan.can_adopt ? 1 : 0);
  return plan;
}

void ReplicaRouter::adopt(const FailoverPlan& plan) {
  CGRAPH_CHECK(plan.can_adopt);
  CGRAPH_CHECK(plan.dead != kNoReplica && plan.survivor != kNoReplica);
  replicas_[plan.survivor]->arm_resume(
      replicas_[plan.dead]->export_resume_package());
}

void ReplicaRouter::on_batch_success(std::size_t r) {
  const std::uint64_t retained = executors_[r]->retained_result_bytes();
  const std::uint64_t peak = executors_[r]->peak_memory_bytes();
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    if (i != r) executors_[i]->sync_memory_model(retained, peak);
  }
  ++stats_[r].batches_executed;
  stats_[r].consecutive_misses = 0;
}

std::uint64_t ReplicaRouter::peak_memory_bytes() const {
  std::uint64_t peak = 0;
  for (const auto& e : executors_) {
    peak = std::max(peak, e->peak_memory_bytes());
  }
  return peak;
}

void ReplicaRouter::publish_metrics(obs::MetricsRegistry& reg) const {
  std::size_t healthy = 0;
  for (std::size_t r = 0; r < stats_.size(); ++r) {
    const ReplicaStats& s = stats_[r];
    if (s.health != ReplicaHealth::kDead) ++healthy;
    const obs::Labels rl{{"replica", std::to_string(r)}};
    reg.gauge("cgraph_replica_health",
              "Replica health (0 healthy, 1 suspect, 2 dead)", rl)
        .set(static_cast<double>(s.health));
    reg.counter("cgraph_replica_heartbeat_misses_total",
                "Heartbeat misses recorded by the replica failure detector",
                rl)
        .inc(static_cast<double>(s.heartbeat_misses_total));
    reg.counter("cgraph_replica_batches_total",
                "Traversal batches executed per replica", rl)
        .inc(static_cast<double>(s.batches_executed));
    reg.counter("cgraph_replica_point_queries_total",
                "Index-answered point queries attributed per replica", rl)
        .inc(static_cast<double>(s.point_queries_routed));
  }
  reg.gauge("cgraph_replica_healthy",
            "Replicas currently considered live by the router")
      .set(static_cast<double>(healthy));
  reg.gauge("cgraph_replica_total", "Replicas configured behind the router")
      .set(static_cast<double>(stats_.size()));
  reg.counter("cgraph_replica_failover_total",
              "Batches failed over to a surviving replica")
      .inc(static_cast<double>(failovers_));
}

}  // namespace cgraph
