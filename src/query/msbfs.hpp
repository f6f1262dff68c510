// Bit-parallel concurrent traversal engines (paper §3.5, extending
// MS-BFS [Then et al., VLDB'14] to the distributed setting).
//
// A batch of up to 512 queries advances together: every vertex row holds
// one frontier/next/visited bit per query, and a single scan of the
// edge-sets updates all queries with a few bitwise ops per edge. Vertices
// shared between queries (paper Fig. 3b) are therefore traversed once per
// batch instead of once per query — the source of C-Graph's sublinear
// scaling with query count (paper Fig. 13).
//
// Two engines:
//   msbfs_batch             - single machine, over the global Graph
//   run_distributed_msbfs   - sharded, level-synchronous BSP over a Cluster
//
// Both engines additionally parallelize each level's frontier expansion
// *inside* a machine over a ThreadPool (the paper's LLC-sized edge-set
// tiles are the natural unit of intra-node work sharing): scans OR fresh
// discoveries into the next-frontier plane with relaxed atomics while the
// visited plane stays frozen, and visited is committed once per level.
// Because every cross-thread write is a bitwise OR, results are bit-exact
// for any thread count. The distributed engine takes its thread count
// from the Cluster (set_compute_threads / $CGRAPH_THREADS); the
// single-machine overloads take it as a parameter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/superstep.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "obs/trace.hpp"
#include "query/direction.hpp"
#include "query/query.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace cgraph {

/// Single-machine bit-parallel batch over the global CSR. Batch size must
/// not exceed QueryBitRows::kMaxBatchWords * 64 queries.
///
/// \param threads Compute threads for the per-level scans: 0 selects one
///                thread per hardware core, 1 runs serially. The default
///                honours $CGRAPH_THREADS (unset -> serial). Results are
///                bit-exact for every value.
/// \param direction Traversal direction policy (DESIGN.md §12). The
///                default hybrid heuristic degrades to push on graphs
///                built without in-edges; every mode is bit-exact with
///                every other.
/// \param visited_out When non-null, receives a copy of the final visited
///                plane (rows = vertices, bits = queries) — the
///                differential test harness compares planes across modes
///                and thread counts, not just aggregate counts.
MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const KHopQuery> batch,
                             std::size_t threads = default_compute_threads(),
                             const DirectionOptions& direction = {},
                             QueryBitRows* visited_out = nullptr);

/// Multi-source variant: each query's bit column is seeded at every one of
/// its sources, answering union reachability (visited counts exclude the
/// distinct sources themselves).
MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const MultiKHopQuery> batch,
                             std::size_t threads = default_compute_threads(),
                             const DirectionOptions& direction = {},
                             QueryBitRows* visited_out = nullptr);

/// Distributed bit-parallel batch over sharded edge-sets. Remote frontier
/// discoveries travel as (vertex, bit-row) records; per-destination rows
/// are OR-combined before sending so wire volume is bounded by boundary
/// vertices, not by edges.
///
/// Direction policy is applied per level *per partition*: a machine in
/// pull mode pulls its local in-edges (CSC) and still pushes masked
/// frontier rows across partition boundaries, so the shipped packets are
/// byte-identical to push mode — fault plans, checkpoint cuts, and
/// recovery replay compose with either direction unchanged. visited_out
/// (when non-null) is assembled from every machine's local rows at global
/// offsets.
///
/// \param snapshot_epoch Mutation snapshot the batch reads (DESIGN.md
///                §15): base structures plus every delta event with epoch
///                <= snapshot_epoch. kEpochHead (the default) pins the
///                shards' epoch at entry, so writers appending events for
///                later epochs never change what an in-flight batch sees.
MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch,
    const DirectionOptions& direction = {},
    QueryBitRows* visited_out = nullptr,
    Epoch snapshot_epoch = kEpochHead);

/// Multi-source distributed variant (see the single-machine overload).
MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const MultiKHopQuery> batch,
    const DirectionOptions& direction = {},
    QueryBitRows* visited_out = nullptr,
    Epoch snapshot_epoch = kEpochHead);

}  // namespace cgraph
