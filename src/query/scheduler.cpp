#include "query/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "query/distributed_khop.hpp"
#include "query/msbfs.hpp"
#include "query/service.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace cgraph {

const char* to_string(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kFifo:
      return "fifo";
    case BatchPolicy::kDegreeSorted:
      return "degree-sorted";
  }
  return "unknown";
}

BatchPolicy effective_batch_policy(const SchedulerOptions& opts) {
  if (opts.policy == BatchPolicy::kDegreeSorted && !opts.degree_of) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      CGRAPH_LOG_WARN(
          "BatchPolicy::kDegreeSorted requested without a degree_of lookup; "
          "batching falls back to FIFO (set SchedulerOptions::degree_of)");
    }
    return BatchPolicy::kFifo;
  }
  return opts.policy;
}

BatchExecutor::BatchExecutor(Cluster& cluster,
                             const std::vector<SubgraphShard>& shards,
                             const RangePartition& partition,
                             SchedulerOptions opts)
    : cluster_(cluster),
      shards_(shards),
      partition_(partition),
      opts_(std::move(opts)),
      policy_(effective_batch_policy(opts_)) {
  CGRAPH_CHECK(opts_.batch_width > 0 &&
               opts_.batch_width <= QueryBitRows::kMaxBatchWords * kWordBits);
  if (opts_.threads.has_value()) {
    cluster_.set_compute_threads(*opts_.threads);
  }
}

BatchExecutor::Outcome BatchExecutor::execute(
    std::span<const KHopQuery> batch, QueryBitRows* visited_out) {
  CGRAPH_CHECK(!batch.empty());
  CGRAPH_CHECK(batch.size() <= opts_.batch_width);
  CGRAPH_CHECK_MSG(visited_out == nullptr || opts_.use_bit_parallel,
                   "visited-plane capture requires the bit-parallel engine");

  Outcome out;
  out.trace.policy = to_string(policy_);

  // Query failover accounting: a crash inside the batch forces the engine
  // to re-execute (part of) the run, which re-derives every query in the
  // batch — untouched batches never pay for a crash.
  const std::uint64_t crashes_before = cluster_.recovery_stats().crashes;
  out.result = opts_.use_bit_parallel
                   ? run_distributed_msbfs(cluster_, shards_, partition_,
                                           batch, opts_.direction,
                                           visited_out, opts_.snapshot_epoch)
                   : run_distributed_khop(cluster_, shards_, partition_,
                                          batch, opts_.snapshot_epoch);
  if (cluster_.recovery_stats().crashes > crashes_before) {
    cluster_.add_queries_reexecuted(batch.size());
    out.reexecuted = true;
  }

  // Memory-pressure model: in-flight traversal state plus all retained
  // results; overshooting the budget stretches simulated time linearly.
  std::uint64_t batch_result_bytes = 0;
  for (std::uint64_t v : out.result.visited)
    batch_result_bytes += v * opts_.result_bytes_per_visited;
  out.footprint_bytes = retained_result_bytes_ + batch_result_bytes +
                        out.result.frontier_bytes;
  peak_memory_bytes_ = std::max(peak_memory_bytes_, out.footprint_bytes);
  retained_result_bytes_ += batch_result_bytes;

  if (opts_.memory_budget_bytes > 0 &&
      out.footprint_bytes > opts_.memory_budget_bytes) {
    const double overshoot =
        static_cast<double>(out.footprint_bytes - opts_.memory_budget_bytes) /
        static_cast<double>(opts_.memory_budget_bytes);
    out.slowdown += opts_.memory_penalty * overshoot;
  }

  // Snapshot cluster + fabric state for this batch (every engine resets
  // both at run start, so the counters are batch-scoped).
  out.trace.execute_sim_seconds = out.result.sim_seconds * out.slowdown;
  out.trace.execute_wall_seconds = out.result.wall_seconds;
  out.trace.straggler_ratio = cluster_.telemetry().straggler_ratio();
  out.trace.levels = out.result.level_trace;
  out.trace.machines = cluster_.machine_traces();
  return out;
}

ConcurrentRunResult run_concurrent_queries(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> queries,
    const SchedulerOptions& opts) {
  CGRAPH_CHECK(!queries.empty());

  // A closed stream: every query arrives at t=0, in policy order. The
  // degree sort is global here; the service's per-batch stable sort then
  // keeps it. `order[j]` maps stream slot j back to the submission index.
  std::vector<std::size_t> order(queries.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (effective_batch_policy(opts) == BatchPolicy::kDegreeSorted) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return opts.degree_of(queries[a].source) >
                              opts.degree_of(queries[b].source);
                     });
  }
  std::vector<TimedQuery> stream;
  stream.reserve(queries.size());
  for (std::size_t i : order) stream.push_back({queries[i], 0.0});

  // Unbounded queue, no deadline, infinite linger: batches seal only when
  // full (the tail at t=0) and run back-to-back.
  ServiceOptions so;
  so.scheduler = opts;
  so.queue_cap = 0;
  so.deadline_seconds = 0;
  so.linger_seconds = std::numeric_limits<double>::infinity();
  ServiceRunResult svc =
      run_query_service(cluster, shards, partition, stream, so);

  ConcurrentRunResult run;
  // Measured host wall at each batch start: the walls of the batches
  // before it. The modelled memory slowdown stretches sim fields only.
  std::vector<double> wall_at_start;
  wall_at_start.reserve(svc.telemetry.batches.size());
  for (const obs::BatchTrace& bt : svc.telemetry.batches) {
    wall_at_start.push_back(run.total_wall_seconds);
    run.total_wall_seconds += bt.execute_wall_seconds;
  }
  run.queries.resize(queries.size());
  for (std::size_t j = 0; j < stream.size(); ++j) {
    const ServiceQueryRecord& r = svc.queries[j];
    QueryResult& qr = run.queries[order[j]];
    qr.id = r.id;
    qr.visited = r.visited;
    qr.levels = r.levels;
    qr.wall_seconds = wall_at_start[r.batch_index] + r.execute_wall_seconds;
    qr.sim_seconds = r.response_sim_seconds;
  }
  for (const ServiceBatchRecord& b : svc.batches) {
    run.total_edges_scanned += b.edges_scanned;
  }
  run.total_sim_seconds = svc.makespan_sim_seconds;
  run.peak_memory_bytes = svc.peak_memory_bytes;
  run.batches = svc.batches.size();
  run.telemetry = std::move(svc.telemetry);
  return run;
}

std::vector<KHopQuery> make_random_queries(const Graph& graph,
                                           std::size_t count, Depth k,
                                           std::uint64_t seed,
                                           EdgeIndex min_degree) {
  CGRAPH_CHECK(graph.num_vertices() > 0);
  Xoshiro256 rng(seed);
  std::vector<KHopQuery> queries;
  queries.reserve(count);
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 1000 + 1000;
  while (queries.size() < count) {
    const auto v =
        static_cast<VertexId>(rng.next_bounded(graph.num_vertices()));
    ++attempts;
    if (graph.out_degree(v) < min_degree && attempts < max_attempts) {
      continue;  // resample low-degree roots while attempts remain
    }
    queries.push_back(
        {static_cast<QueryId>(queries.size()), v, k});
  }
  return queries;
}

}  // namespace cgraph
