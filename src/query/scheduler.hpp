// Concurrent query front end (paper §3.3 "Concurrent queries can be ...
// processed in batches to enable subgraph sharing among queries").
//
// A set of simultaneously-issued k-hop queries is split into bit-parallel
// batches (default width 64 — one cache line of bits per vertex row, the
// paper's "fixed number of concurrent queries decided by hardware
// parameters"). Batches execute back-to-back on the cluster; a query's
// response time is its queue wait plus its completion time inside its own
// batch, which is exactly how response time stacks in the real system.
//
// run_concurrent_queries has no batch loop of its own: it feeds the query
// service (query/service.hpp) a closed stream — every arrival at t=0, an
// unbounded queue, an infinite linger — and maps the records back to
// submission order. This header holds the options and the BatchExecutor
// core the service runs every batch through.
//
// Memory model: every finished query retains its result (the paper notes
// "every query returns with found paths, the memory usage increases
// linearly with the query count"). When the modeled footprint exceeds the
// configured budget, batch execution slows proportionally — reproducing
// the degradation the paper reports at 350 concurrent queries (Fig. 12).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "obs/trace.hpp"
#include "query/msbfs.hpp"
#include "query/query.hpp"

namespace cgraph {

enum class BatchPolicy {
  /// Batch in arrival order.
  kFifo,
  /// Sort by root out-degree before batching so heavy queries share a
  /// batch instead of straggling light ones (Congra-style admission, cf.
  /// the paper's related work on concurrent-query scheduling). Results
  /// are reported back in submission order either way.
  kDegreeSorted,
};

struct SchedulerOptions {
  /// Queries per bit-parallel batch (<= 512).
  std::size_t batch_width = 64;
  BatchPolicy policy = BatchPolicy::kFifo;
  /// Use the §3.5 bit-operation engine; false falls back to per-query task
  /// queues (Listing 2) — the ablation switch.
  bool use_bit_parallel = true;
  /// Modeled memory budget; 0 disables the memory-pressure model.
  std::uint64_t memory_budget_bytes = 0;
  /// Execution slowdown per 1x budget overshoot (linear model).
  double memory_penalty = 3.0;
  /// Modeled bytes retained per visited vertex in query results
  /// ("returns with found paths").
  std::uint64_t result_bytes_per_visited = 8;
  /// Root-degree lookup for kDegreeSorted (e.g. [&](VertexId v) { return
  /// graph.out_degree(v); }). Policy falls back to FIFO when unset.
  std::function<EdgeIndex(VertexId)> degree_of;
  /// Traversal direction policy for the bit-parallel engine (DESIGN.md
  /// §12): forced push/pull or the per-level per-partition hybrid
  /// heuristic (the default; degrades to push on shards built without
  /// in-edges). Every mode answers bit-identically.
  DirectionOptions direction;
  /// Intra-machine compute threads for the per-level scans: 0 selects one
  /// thread per hardware core, 1 runs serially. Unset leaves the Cluster's
  /// current setting (which itself defaults to $CGRAPH_THREADS, or serial).
  /// Results are bit-exact for every value — see DESIGN.md "Threading
  /// model".
  std::optional<std::size_t> threads;
  /// Registry receiving this run's spans and counters; nullptr uses the
  /// process-global registry (tests pass a private one).
  obs::MetricsRegistry* metrics = nullptr;
  /// Mutation snapshot every batch reads (DESIGN.md §15). kEpochHead (the
  /// default) resolves to the shards' epoch when each batch starts, so a
  /// service interleaving queries with trace replay runs each batch
  /// against one consistent snapshot while writers proceed.
  Epoch snapshot_epoch = kEpochHead;
};

[[nodiscard]] const char* to_string(BatchPolicy policy);

/// Resolve the policy that will actually run: kDegreeSorted without a
/// degree_of lookup cannot sort and degrades to kFifo. The degradation is
/// logged once per process and recorded in RunTelemetry::effective_policy
/// and every BatchTrace, so a misconfigured service is visible instead of
/// silent.
[[nodiscard]] BatchPolicy effective_batch_policy(const SchedulerOptions& opts);

/// Batch-execute core of the query service (one per cluster; the
/// ReplicaRouter keeps one per replica). Executes one admitted batch on
/// the cluster via the configured engine and carries the cross-batch
/// memory-retention model ("every query returns with found paths").
class BatchExecutor {
 public:
  BatchExecutor(Cluster& cluster, const std::vector<SubgraphShard>& shards,
                const RangePartition& partition, SchedulerOptions opts);

  struct Outcome {
    MsBfsBatchResult result;
    /// Memory-pressure stretch applied to this batch's times (>= 1).
    double slowdown = 1.0;
    /// Modeled bytes live while this batch executed.
    std::uint64_t footprint_bytes = 0;
    /// A crash inside the batch forced the engine to re-derive it.
    bool reexecuted = false;
    /// Cluster + fabric snapshot for the batch (levels, machines,
    /// straggler ratio, execute timings, policy). The caller fills the
    /// queue-side fields: index, width, wait_sim_seconds.
    obs::BatchTrace trace;
  };

  /// Execute one admitted batch (non-empty, <= batch_width queries).
  /// `visited_out`, when non-null, receives the final visited plane
  /// (rows = vertices, bits = batch slots) — how the service resolves
  /// point-query fallbacks (DESIGN.md §13). Requires the bit-parallel
  /// engine; the task-queue ablation path has no plane to expose.
  Outcome execute(std::span<const KHopQuery> batch,
                  QueryBitRows* visited_out = nullptr);

  [[nodiscard]] const SchedulerOptions& options() const { return opts_; }
  [[nodiscard]] BatchPolicy policy() const { return policy_; }
  [[nodiscard]] std::uint64_t peak_memory_bytes() const {
    return peak_memory_bytes_;
  }
  [[nodiscard]] std::uint64_t retained_result_bytes() const {
    return retained_result_bytes_;
  }

  /// Replicated serving: N replicas implement ONE logical service, so the
  /// cross-batch memory-retention model ("every query returns with found
  /// paths") is global, not per-replica. After a batch lands on one
  /// replica, the ReplicaRouter mirrors that executor's accounting onto
  /// the idle peers so whichever replica executes the next batch sees the
  /// same modeled footprint (and thus the same slowdown — keeping the
  /// timing model independent of routing history).
  void sync_memory_model(std::uint64_t retained_result_bytes,
                         std::uint64_t peak_memory_bytes) {
    retained_result_bytes_ = retained_result_bytes;
    peak_memory_bytes_ = std::max(peak_memory_bytes_, peak_memory_bytes);
  }

 private:
  Cluster& cluster_;
  const std::vector<SubgraphShard>& shards_;
  const RangePartition& partition_;
  SchedulerOptions opts_;
  BatchPolicy policy_;
  std::uint64_t retained_result_bytes_ = 0;
  std::uint64_t peak_memory_bytes_ = 0;
};

struct ConcurrentRunResult {
  std::vector<QueryResult> queries;  // submission order
  /// Sum of the measured host walls of the batches.
  double total_wall_seconds = 0;
  /// Sum of the simulated batch makespans (memory slowdown included).
  double total_sim_seconds = 0;
  std::uint64_t total_edges_scanned = 0;
  std::uint64_t peak_memory_bytes = 0;
  std::size_t batches = 0;
  /// Structured trace of the run (per batch, level, machine, query);
  /// already published into the configured metrics registry.
  obs::RunTelemetry telemetry;
};

/// Execute all queries "simultaneously submitted" against the sharded
/// graph and report per-query response times: run_query_service over a
/// closed stream (kDegreeSorted sorts the whole stream by root degree
/// first, stably).
ConcurrentRunResult run_concurrent_queries(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> queries,
    const SchedulerOptions& opts = {});

/// Random query workload: `count` k-hop queries with sources drawn
/// uniformly from vertices with out-degree >= min_degree (the paper roots
/// queries at random vertices; zero-degree roots answer trivially).
std::vector<KHopQuery> make_random_queries(const Graph& graph,
                                           std::size_t count, Depth k,
                                           std::uint64_t seed = 1,
                                           EdgeIndex min_degree = 1);

}  // namespace cgraph
