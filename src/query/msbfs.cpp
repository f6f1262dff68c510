#include "query/msbfs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "net/serialize.hpp"
#include "obs/event_tracer.hpp"
#include "query/frontier.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kRemoteDiscoverTag = 0x52444953;  // 'RDIS'

// Sparse top-down scans iterate the active-row queue instead of testing
// every row once the queue is this many times smaller than the vertex
// count. Purely a work-saving choice: queue and full scans expand the
// same rows, so every downstream bit and counter is identical.
constexpr std::uint64_t kSparseQueueFactor = 8;

using WordRow = std::array<Word, QueryBitRows::kMaxBatchWords>;

/// Internal batch form shared by the single- and multi-source overloads:
/// per query, a hop bound and a list of distinct seed vertices.
struct SeededBatch {
  std::vector<Depth> ks;
  std::vector<std::vector<VertexId>> seeds;

  [[nodiscard]] std::size_t size() const { return ks.size(); }
};

SeededBatch to_seeded(std::span<const KHopQuery> batch) {
  SeededBatch sb;
  sb.ks.reserve(batch.size());
  sb.seeds.reserve(batch.size());
  for (const KHopQuery& q : batch) {
    sb.ks.push_back(q.k);
    sb.seeds.push_back({q.source});
  }
  return sb;
}

SeededBatch to_seeded(std::span<const MultiKHopQuery> batch) {
  SeededBatch sb;
  sb.ks.reserve(batch.size());
  sb.seeds.reserve(batch.size());
  for (const MultiKHopQuery& q : batch) {
    CGRAPH_CHECK_MSG(!q.sources.empty(),
                     "multi-source query needs at least one source");
    sb.ks.push_back(q.k);
    std::vector<VertexId> seeds = q.sources;
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    sb.seeds.push_back(std::move(seeds));
  }
  return sb;
}

/// Per-level expansion mask: bit q set iff query q still has hops left
/// when expanding the frontier at `level` (discovering level+1).
WordRow expand_mask_for_level(std::span<const Depth> ks, Depth level) {
  WordRow mask{};
  for (std::size_t q = 0; q < ks.size(); ++q) {
    if (ks[q] > level) {
      mask[q / kWordBits] |= Word{1} << (q % kWordBits);
    }
  }
  return mask;
}

bool row_masked_any(const Word* row, const WordRow& mask, std::size_t words,
                    WordRow& out) {
  Word any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    out[w] = row[w] & mask[w];
    any |= out[w];
  }
  return any != 0;
}

/// The per-level direction decision (DESIGN.md §12). Every input is a
/// deterministic function of the frontier planes and static degrees — the
/// previous level's commit-pass occupancy, the partition's edge/vertex
/// totals, and the previous decision (Beamer's hysteresis) — so the choice
/// is identical for every thread count and replays bit-exact from a
/// restored checkpoint.
TraversalDirection decide_direction(const DirectionOptions& opts,
                                    bool can_pull, bool was_pulling,
                                    const FrontierOccupancy& occ,
                                    std::uint64_t total_edges,
                                    std::uint64_t nrows) {
  if (opts.mode == TraversalDirection::kPush) return TraversalDirection::kPush;
  if (opts.mode == TraversalDirection::kPull) return TraversalDirection::kPull;
  if (!can_pull) return TraversalDirection::kPush;
  if (!was_pulling) {
    // Push -> pull when the frontier's out-edges pass total/alpha: the
    // top-down scan is about to touch a large fraction of the graph, and
    // most of those checks will land on already-visited rows.
    const double scout_limit =
        static_cast<double>(total_edges) / std::max(opts.alpha, 1e-9);
    return static_cast<double>(occ.scout_edges) > scout_limit
               ? TraversalDirection::kPull
               : TraversalDirection::kPush;
  }
  // Pull -> push when the frontier thins out again (the tail of the
  // traversal): bottom-up would keep scanning every unvisited row for
  // parents that are no longer there.
  const double rows_limit =
      static_cast<double>(nrows) / std::max(opts.beta, 1e-9);
  return static_cast<double>(occ.active_rows) < rows_limit
             ? TraversalDirection::kPush
             : TraversalDirection::kPull;
}

MsBfsBatchResult msbfs_batch_core(const Graph& graph,
                                  const SeededBatch& batch,
                                  std::size_t threads,
                                  const DirectionOptions& direction,
                                  QueryBitRows* visited_out) {
  const std::size_t Q = batch.size();
  CGRAPH_CHECK(Q > 0);
  CGRAPH_CHECK_MSG(Q <= QueryBitRows::kMaxBatchWords * kWordBits,
                   "batch exceeds bit-parallel capacity");
  const VertexId n = graph.num_vertices();

  const bool can_pull = graph.has_in_edges();
  CGRAPH_CHECK_MSG(
      direction.mode != TraversalDirection::kPull || can_pull,
      "forced pull requires a graph built with in-edges (CSC)");

  const std::size_t nthreads = resolve_compute_threads(threads);
  std::unique_ptr<ThreadPool> owned_pool;
  if (nthreads > 1) owned_pool = std::make_unique<ThreadPool>(nthreads - 1);
  ThreadPool* pool = owned_pool.get();

  MsBfsBatchResult result;
  result.visited.assign(Q, 0);
  result.levels.assign(Q, 0);
  result.completion_wall_seconds.assign(Q, 0.0);
  result.completion_sim_seconds.assign(Q, 0.0);

  BatchFrontier bf(n, Q);
  const std::size_t W = bf.words_per_row();
  result.frontier_bytes = bf.memory_bytes();

  for (std::size_t q = 0; q < Q; ++q) {
    for (VertexId source : batch.seeds[q]) {
      CGRAPH_CHECK(source < n);
      bf.seed(source, q);
    }
  }

  // Scout-count inputs: per-row out-degrees (static) and the seeded
  // frontier's occupancy; from level 1 on the occupancy is carried out of
  // the commit pass for free.
  std::vector<EdgeIndex> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = graph.out_degree(v);
  const std::uint64_t total_edges = graph.num_edges();
  FrontierOccupancy occ = bf.frontier_occupancy(degrees);

  // Active-row queue for sparse top-down levels: seeded by the
  // bitmap->queue conversion, then maintained by the commit pass.
  std::vector<VertexId> queue;
  bf.frontier_to_queue(queue);

  std::vector<bool> done(Q, false);
  std::size_t done_count = 0;
  bool pulling = false;
  WallTimer wall;

  auto mark_done = [&](std::size_t q, Depth levels_run) {
    if (done[q]) return;
    done[q] = true;
    ++done_count;
    result.levels[q] = levels_run;
    result.completion_wall_seconds[q] = wall.seconds();
  };

  for (Depth level = 0; done_count < Q; ++level) {
    const WordRow expand = expand_mask_for_level(batch.ks, level);

    const TraversalDirection used = decide_direction(
        direction, can_pull, pulling, occ, total_edges, n);
    pulling = used == TraversalDirection::kPull;

    obs::LevelTrace lt;
    lt.level = level;
    lt.scout_edges = occ.scout_edges;
    lt.push_machines = pulling ? 0 : 1;
    lt.pull_machines = pulling ? 1 : 0;

    std::atomic<std::uint64_t> frontier_acc{0};
    std::atomic<std::uint64_t> edges_acc{0};
    ParallelForStats scan_stats;
    if (!pulling) {
      // Top-down scan: threads claim disjoint vertex ranges of the
      // frontier; fresh discoveries land in the next plane via relaxed
      // atomic OR while the visited plane stays frozen (committed once
      // below), so any thread interleaving produces exactly the serial
      // scan's bits. A sparse frontier iterates the active-row queue
      // instead of testing all n rows — same rows expand either way.
      auto expand_row = [&](std::size_t v, WordRow& masked,
                            std::uint64_t& chunk_frontier,
                            std::uint64_t& chunk_edges) {
        const Word* row = bf.frontier().row(v);
        if (!row_masked_any(row, expand, W, masked)) return;
        ++chunk_frontier;
        const auto nbrs = graph.out_neighbors(static_cast<VertexId>(v));
        for (VertexId t : nbrs) {
          bf.discover_atomic(t, masked.data());
        }
        chunk_edges += nbrs.size();
      };
      const bool sparse =
          queue.size() * kSparseQueueFactor < static_cast<std::size_t>(n);
      if (sparse) {
        scan_stats = parallel_ranges(
            pool, queue.size(), [&](std::size_t qb, std::size_t qe) {
              WordRow masked;
              std::uint64_t chunk_frontier = 0;
              std::uint64_t chunk_edges = 0;
              for (std::size_t i = qb; i < qe; ++i) {
                expand_row(queue[i], masked, chunk_frontier, chunk_edges);
              }
              frontier_acc.fetch_add(chunk_frontier,
                                     std::memory_order_relaxed);
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            });
      } else {
        scan_stats = parallel_ranges(
            pool, n, [&](std::size_t vb, std::size_t ve) {
              WordRow masked;
              std::uint64_t chunk_frontier = 0;
              std::uint64_t chunk_edges = 0;
              for (std::size_t v = vb; v < ve; ++v) {
                expand_row(v, masked, chunk_frontier, chunk_edges);
              }
              frontier_acc.fetch_add(chunk_frontier,
                                     std::memory_order_relaxed);
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            });
      }
    } else {
      // Bottom-up scan: threads claim disjoint ranges of *rows to fill*;
      // each unvisited row ANDs its parents' frontier words into its own
      // next row (one word-AND per 64 queries), stopping as soon as every
      // wanted bit found a parent. Each row has exactly one writer, so no
      // atomics are needed; the frontier occupancy count rides along for
      // telemetry parity with the push path.
      scan_stats = parallel_ranges(
          pool, n, [&](std::size_t vb, std::size_t ve) {
            WordRow masked;
            std::uint64_t chunk_frontier = 0;
            std::uint64_t chunk_examined = 0;
            for (std::size_t v = vb; v < ve; ++v) {
              if (row_masked_any(bf.frontier().row(v), expand, W, masked)) {
                ++chunk_frontier;
              }
              chunk_examined += bf.pull_row(
                  v, expand.data(),
                  graph.in_neighbors(static_cast<VertexId>(v)), 0, n);
            }
            frontier_acc.fetch_add(chunk_frontier,
                                   std::memory_order_relaxed);
            edges_acc.fetch_add(chunk_examined, std::memory_order_relaxed);
          });
    }

    // Commit: fold the next plane into visited once for the whole level,
    // collect the per-query occupancy of the next frontier, and carry the
    // next level's density + scout count out of the same pass.
    WordRow nonempty{};
    FrontierOccupancy occ_next;
    std::vector<std::pair<std::size_t, std::vector<VertexId>>> active_chunks;
    std::mutex nonempty_mu;
    const ParallelForStats commit_stats = parallel_ranges(
        pool, n, [&](std::size_t vb, std::size_t ve) {
          WordRow chunk_nonempty{};
          std::vector<VertexId> chunk_active;
          const FrontierOccupancy chunk_occ = bf.commit_rows(
              vb, ve, chunk_nonempty.data(), degrees, &chunk_active);
          std::lock_guard<std::mutex> lock(nonempty_mu);
          for (std::size_t w = 0; w < W; ++w) nonempty[w] |= chunk_nonempty[w];
          occ_next += chunk_occ;
          active_chunks.emplace_back(vb, std::move(chunk_active));
        });
    // Rebuild the queue from the per-chunk pieces in row order (chunks are
    // contiguous ranges, so sorting by range start restores the global
    // ascending order regardless of which thread finished first).
    std::sort(active_chunks.begin(), active_chunks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    queue.clear();
    for (auto& [begin_row, rows] : active_chunks) {
      (void)begin_row;
      queue.insert(queue.end(), rows.begin(), rows.end());
    }
    occ = occ_next;

    lt.frontier_vertices = frontier_acc.load(std::memory_order_relaxed);
    const std::uint64_t discovers =
        edges_acc.load(std::memory_order_relaxed);
    lt.edges_scanned = discovers;
    result.edges_scanned += discovers;

    // Bitmap words touched. Push: frontier scan + occupancy scan of every
    // row, plus the three word-ops per discovered neighbor row (Fig. 6
    // update). Pull: frontier/want scans of every row plus two word-ops
    // (AND + OR) per parent row examined, plus the commit scan.
    lt.bit_ops = pulling
                     ? 3 * static_cast<std::uint64_t>(n) * W +
                           discovers * 2 * W
                     : 2 * static_cast<std::uint64_t>(n) * W +
                           discovers * 3 * W;
    lt.parallel_tasks = scan_stats.tasks + commit_stats.tasks;
    lt.steal_wait_seconds =
        scan_stats.join_wait_seconds + commit_stats.join_wait_seconds;
    result.level_trace.push_back(lt);

    bf.advance(nonempty.data());  // O(words): reuse the commit-phase mask
    result.total_levels = static_cast<Depth>(level + 1);

    for (std::size_t q = 0; q < Q; ++q) {
      if (done[q]) continue;
      const bool empty_next =
          ((nonempty[q / kWordBits] >> (q % kWordBits)) & 1u) == 0;
      const bool k_exhausted =
          static_cast<Depth>(level + 1) >= batch.ks[q];
      if (empty_next || k_exhausted) {
        mark_done(q, static_cast<Depth>(level + 1));
      }
    }
    CGRAPH_CHECK_MSG(static_cast<std::size_t>(level) + 1 < kMaxLevels,
                     "traversal exceeded level cap");
  }

  // Visited counts per query (the seeds themselves excluded).
  {
    std::mutex visited_mu;
    parallel_ranges(pool, n, [&](std::size_t vb, std::size_t ve) {
      std::vector<std::uint64_t> counts(Q, 0);
      count_query_bits(bf.visited(), vb, ve, counts);
      std::lock_guard<std::mutex> lock(visited_mu);
      for (std::size_t q = 0; q < Q; ++q) result.visited[q] += counts[q];
    });
  }
  for (std::size_t q = 0; q < Q; ++q) {
    const std::uint64_t seeds = batch.seeds[q].size();
    result.visited[q] = result.visited[q] > seeds
                            ? result.visited[q] - seeds
                            : 0;
  }
  if (visited_out != nullptr) *visited_out = bf.visited();

  result.wall_seconds = wall.seconds();
  result.sim_seconds = result.wall_seconds;  // no cluster: wall == sim
  result.completion_sim_seconds = result.completion_wall_seconds;
  return result;
}

MsBfsBatchResult run_distributed_msbfs_core(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, const SeededBatch& batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  const std::size_t Q = batch.size();
  CGRAPH_CHECK(Q > 0);
  CGRAPH_CHECK_MSG(Q <= QueryBitRows::kMaxBatchWords * kWordBits,
                   "batch exceeds bit-parallel capacity");
  CGRAPH_CHECK(shards.size() == cluster.num_machines());
  const VertexId num_vertices = shards[0].num_global_vertices();
  const std::size_t W = words_for_bits(Q);

  if (direction.mode == TraversalDirection::kPull) {
    for (const SubgraphShard& shard : shards) {
      CGRAPH_CHECK_MSG(shard.has_in_edges(),
                       "forced pull requires shards built with in-edges "
                       "(ShardOptions::build_in_edges)");
    }
  }

  LevelRun run(cluster, shards, Q, snapshot_epoch);
  const Epoch epoch = run.epoch();
  if (visited_out != nullptr) {
    *visited_out = QueryBitRows(num_vertices, Q);
  }

  cluster.run([&](MachineContext& mc) {
    const SubgraphShard& shard = shards[mc.id()];
    const VertexRange range = shard.local_range();
    const VertexId nlocal = range.size();
    // Intra-machine compute pool (nullptr = serial), sized by
    // Cluster::set_compute_threads / $CGRAPH_THREADS.
    ThreadPool* pool = mc.pool();

    // Direction heuristic inputs for this partition: static out-degrees
    // (scout counts) and the partition's own edge/vertex totals — the
    // decision is per level per partition.
    const std::span<const EdgeIndex> degrees(shard.out_degrees());
    std::uint64_t my_total_out_edges = 0;
    for (EdgeIndex d : degrees) my_total_out_edges += d;
    const bool can_pull = shard.has_in_edges();

    // Delta edge-sets overlaying the tiled base structures (DESIGN.md §15).
    // When the shard carries no uncompacted events every gate below is a
    // dead branch and the scan is byte-for-byte the frozen path.
    const DeltaEdgeSet& dout = shard.delta_out();
    const DeltaEdgeSet& din = shard.delta_in();
    const bool mutating = shard.has_mutations();

    // Discover bits are OR-ed (idempotent), so duplicated packets cannot
    // corrupt state — the level machine's dedup window keeps delivery
    // exactly-once so the suppression counters reconcile under fault
    // plans.
    LevelMachine lm(run, mc, shard, batch.ks);

    BatchFrontier bf(nlocal, Q);
    bool pulling = false;

    // Re-entering after a crash resumes from the checkpointed level
    // instead of re-seeding. The link/clock state was already rolled back
    // by the cluster, so the replay is bit-exact.
    if (!lm.restore([&](PacketReader& pr) {
          bf.deserialize(pr);
          pulling = pr.read<std::uint8_t>() != 0;
        })) {
      for (std::size_t q = 0; q < Q; ++q) {
        for (VertexId source : batch.seeds[q]) {
          CGRAPH_CHECK(source < num_vertices);
          if (range.contains(source)) {
            bf.seed(source - range.begin, q);
          }
        }
      }
    }

    // Occupancy entering the first (or restored) level, recomputed from
    // the frontier plane; later levels carry it out of the commit pass.
    // The recomputation reproduces the commit-carried values exactly, so
    // direction decisions replay bit-exact through a restore.
    FrontierOccupancy occ = bf.frontier_occupancy(degrees);

    // Remote accumulator: dense bit rows over the whole global space plus
    // a touched bitmap, so per-destination rows are OR-combined before they
    // hit the wire (bounded by boundary vertices, not edges).
    std::vector<Word> remote_acc(static_cast<std::size_t>(num_vertices) * W,
                                 0);
    Bitmap touched(num_vertices);
    // Remote discovery of global row t: OR the masked frontier bits into
    // its accumulator row and mark it touched, both test-first, so only a
    // word that gains a bit takes a locked write. OR is idempotent and
    // commutative, so every thread count leaves the same words behind.
    auto push_remote = [&](VertexId t, const WordRow& masked) {
      Word* acc = remote_acc.data() + static_cast<std::size_t>(t) * W;
      for (std::size_t w = 0; w < W; ++w) {
        if (masked[w] != 0) atomic_or_word(&acc[w], masked[w]);
      }
      touched.atomic_set(t);
    };

    for (Depth level = lm.start_level(); lm.running(); ++level) {
      // Top of level = the consistent cut: staged mailboxes are empty and
      // the next plane was just cleared, so the planes and the direction
      // hysteresis are this engine's whole share of the blob.
      lm.checkpoint(level, [&](PacketWriter& pw) {
        bf.serialize(pw);
        pw.write<std::uint8_t>(pulling ? 1 : 0);
      });

      const WordRow expand = expand_mask_for_level(batch.ks, level);

      const TraversalDirection used = decide_direction(
          direction, can_pull, pulling, occ, my_total_out_edges, nlocal);
      pulling = used == TraversalDirection::kPull;
      // This machine's share of the level's LevelTrace.
      obs::LevelTrace lt;
      lt.push_machines = pulling ? 0 : 1;
      lt.pull_machines = pulling ? 1 : 0;
      lt.scout_edges = occ.scout_edges;

      // Scan span: occupancy pre-scan + edge scan + compute charge. Sim
      // duration is exactly this level's charged compute time.
      const PhaseSpan scan(mc, obs::TraceEventPhase::kSuperstepScan, level);
      trace_direction_choice(mc, level, pulling, occ.scout_edges);

      // --- Telemetry: local frontier occupancy entering this level.
      std::atomic<std::uint64_t> frontier_acc{0};
      const ParallelForStats occ_stats = parallel_ranges(
          pool, nlocal, [&](std::size_t vb, std::size_t ve) {
            WordRow masked;
            std::uint64_t chunk_frontier = 0;
            for (std::size_t v = vb; v < ve; ++v) {
              if (row_masked_any(bf.frontier().row(v), expand, W, masked)) {
                ++chunk_frontier;
              }
            }
            frontier_acc.fetch_add(chunk_frontier,
                                   std::memory_order_relaxed);
          });
      const std::uint64_t level_frontier =
          frontier_acc.load(std::memory_order_relaxed);
      lt.frontier_vertices = level_frontier;

      const EdgeSetGrid& grid = shard.out_sets();
      std::atomic<std::uint64_t> edges_acc{0};
      std::atomic<std::uint64_t> rows_acc{0};
      std::atomic<std::uint64_t> pull_examined_acc{0};
      ParallelForStats scan_stats;
      ParallelForStats pull_stats;

      if (!pulling) {
        // --- Top-down local edge-set scan. Pool threads claim ranges of
        // flat block indices (each block is an LLC-sized EdgeSet tile, the
        // natural unit of intra-machine work). Local discoveries OR into
        // the next plane atomically with visited frozen; remote
        // discoveries OR into the dense accumulator words and the touched
        // bitmap, which the ship step below walks in id order, so shipped
        // packets stay byte-identical to the serial scan.
        scan_stats = parallel_ranges(
            pool, grid.num_sets(), [&](std::size_t bb, std::size_t be) {
              WordRow masked;
              std::uint64_t chunk_edges = 0;
              std::uint64_t chunk_rows = 0;
              for (std::size_t b = bb; b < be; ++b) {
                const EdgeSet& es = grid.set_at(b);
                const VertexRange rr = grid.row_range(grid.row_of_set(b));
                for (VertexId v = rr.begin; v < rr.end; ++v) {
                  const Word* row = bf.frontier().row(v - range.begin);
                  ++chunk_rows;
                  if (!row_masked_any(row, expand, W, masked)) continue;
                  const auto nbrs = es.neighbors(v);
                  chunk_edges += nbrs.size();
                  const bool vdel = mutating && dout.has_deletes(v);
                  for (VertexId t : nbrs) {
                    if (vdel && dout.edge_deleted(v, t, epoch)) continue;
                    if (range.contains(t)) {
                      bf.discover_atomic(t - range.begin, masked.data());
                    } else {
                      push_remote(t, masked);
                    }
                  }
                }
              }
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
              rows_acc.fetch_add(chunk_rows, std::memory_order_relaxed);
            });
      } else {
        // --- Bottom-up local scan over the partition's CSC: each thread
        // owns a disjoint range of unvisited rows and ANDs local parents'
        // frontier words into them (plain writes — one writer per row).
        // Parents outside the local range are skipped; their contributions
        // arrive through the cross-partition push below, exactly as in
        // push mode.
        pull_stats = parallel_ranges(
            pool, nlocal, [&](std::size_t vb, std::size_t ve) {
              std::uint64_t chunk_examined = 0;
              std::vector<VertexId> merged;
              for (std::size_t v = vb; v < ve; ++v) {
                const VertexId vg =
                    range.begin + static_cast<VertexId>(v);
                if (mutating && din.has_events(vg)) {
                  // Rows with in-side delta events pull from a merged
                  // parent list — base parents minus tombstones plus
                  // inserted parents, in the same globally sorted order
                  // a compacted rebuild would produce — so the examined
                  // count (and every downstream bit) matches the frozen
                  // equivalent graph exactly.
                  merged.clear();
                  shard.for_each_in_parent_at(
                      vg, epoch, [&](VertexId p) { merged.push_back(p); });
                  chunk_examined += bf.pull_row(
                      v, expand.data(),
                      std::span<const VertexId>(merged.data(),
                                                merged.size()),
                      range.begin, range.end);
                } else {
                  chunk_examined += bf.pull_row(
                      v, expand.data(), shard.in_csr().neighbors(v),
                      range.begin, range.end);
                }
              }
              pull_examined_acc.fetch_add(chunk_examined,
                                          std::memory_order_relaxed);
            });
        // --- Cross-partition push: boundary rows still push their masked
        // frontier bits into the remote accumulator, so the shipped
        // packets (and therefore every fault-plan decision, barrier count,
        // and checkpoint cut downstream) are byte-identical to push mode.
        // Blocks whose destination range is entirely local carry no
        // boundary edges and are skipped — that skip is the pull-side
        // saving on the local partition.
        scan_stats = parallel_ranges(
            pool, grid.num_sets(), [&](std::size_t bb, std::size_t be) {
              WordRow masked;
              std::uint64_t chunk_edges = 0;
              std::uint64_t chunk_rows = 0;
              for (std::size_t b = bb; b < be; ++b) {
                const EdgeSet& es = grid.set_at(b);
                if (es.dst_range().begin >= range.begin &&
                    es.dst_range().end <= range.end) {
                  continue;  // fully local destinations: pull covered them
                }
                const VertexRange rr = grid.row_range(grid.row_of_set(b));
                for (VertexId v = rr.begin; v < rr.end; ++v) {
                  const Word* row = bf.frontier().row(v - range.begin);
                  ++chunk_rows;
                  if (!row_masked_any(row, expand, W, masked)) continue;
                  const auto nbrs = es.neighbors(v);
                  chunk_edges += nbrs.size();
                  const bool vdel = mutating && dout.has_deletes(v);
                  for (VertexId t : nbrs) {
                    if (range.contains(t)) continue;  // pull covered it
                    if (vdel && dout.edge_deleted(v, t, epoch)) continue;
                    push_remote(t, masked);
                  }
                }
              }
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
              rows_acc.fetch_add(chunk_rows, std::memory_order_relaxed);
            });
      }
      // --- Delta extras: edges inserted after ingestion live in the
      // per-partition event sets, not the tiled base structures; feed
      // them through the *identical* local / remote discovery paths
      // (OR-discovery is idempotent and commutative, and the remote
      // accumulator is indexed by global id, so a brand-new boundary
      // destination needs no boundary-list changes). The pass is serial
      // — per-vertex event lists are tiny — which also pins a
      // deterministic extras count across thread counts. In pull mode
      // local extras were already covered by the merged-parent pull
      // rows above, so only boundary targets push here.
      if (mutating && !dout.empty()) {
        WordRow masked;
        std::uint64_t extra_edges = 0;
        for (VertexId v = range.begin; v < range.end; ++v) {
          if (!dout.has_events(v)) continue;
          const Word* row = bf.frontier().row(v - range.begin);
          if (!row_masked_any(row, expand, W, masked)) continue;
          dout.for_each_extra(v, epoch, [&](VertexId t) {
            if (range.contains(t)) {
              if (pulling) return;
              bf.discover_atomic(t - range.begin, masked.data());
              ++extra_edges;
            } else {
              push_remote(t, masked);
              ++extra_edges;
            }
          });
        }
        edges_acc.fetch_add(extra_edges, std::memory_order_relaxed);
      }

      const std::uint64_t pull_examined =
          pull_examined_acc.load(std::memory_order_relaxed);
      const std::uint64_t level_edges =
          edges_acc.load(std::memory_order_relaxed) + pull_examined;
      const std::uint64_t level_rows =
          rows_acc.load(std::memory_order_relaxed);
      lm.count_edges(level_edges);
      lt.edges_scanned = level_edges;
      // Bitmap words touched this level. Push: occupancy pre-scan +
      // per-row frontier masks + three word-ops per discovered neighbor
      // row, plus the occupancy publish scan below. Pull: the same
      // pre/publish scans, the per-row want computation, two word-ops per
      // parent examined, and the boundary rows' masks + remote ORs.
      lt.bit_ops =
          pulling ? (static_cast<std::uint64_t>(nlocal) * 3 + level_rows +
                     pull_examined * 2 + (level_edges - pull_examined) * 3) *
                        W
                  : (static_cast<std::uint64_t>(nlocal) * 2 + level_rows +
                     level_edges * 3) *
                        W;
      mc.charge_compute(level_edges, /*vertices=*/0);
      scan.end(static_cast<double>(level_edges),
               static_cast<double>(level_frontier));

      // --- Ship combined remote discoveries: one packet per owner with
      // any touched row, owners ascending. Draining the owner's slice of
      // the touched bitmap yields its rows in ascending id order, and each
      // accumulator row and touched bit is zeroed as it is shipped, so
      // both are clean for the next level.
      for (PartitionId owner = 0; owner < partition.num_partitions();
           ++owner) {
        if (owner == mc.id()) continue;
        const VertexRange orange = partition.range(owner);
        const std::size_t count =
            touched.count_range(orange.begin, orange.end);
        if (count == 0) continue;
        PacketWriter pw;
        pw.reserve(sizeof(std::uint64_t) +
                   count * (sizeof(VertexId) + W * sizeof(Word)));
        pw.write<std::uint64_t>(count);
        touched.drain_range(orange.begin, orange.end, [&](std::size_t t) {
          pw.write<VertexId>(static_cast<VertexId>(t));
          Word* acc = remote_acc.data() + t * W;
          for (std::size_t w = 0; w < W; ++w) {
            pw.write<Word>(acc[w]);
            acc[w] = 0;
          }
        });
        mc.send(owner, kRemoteDiscoverTag, pw.take());
      }

      mc.barrier();  // ---- exchange boundary discoveries ----

      // Commit span: staged recv + dedup + visited fold + occupancy
      // publish. No sim cost is charged here, so the sim duration is
      // usually 0 — the wall duration carries the host-side cost.
      const PhaseSpan commit(mc, obs::TraceEventPhase::kSuperstepCommit,
                             level);
      std::uint64_t staged_envelopes = 0;

      WordRow incoming_bits;
      for (Envelope& env : mc.recv_staged()) {
        CGRAPH_CHECK(env.tag == kRemoteDiscoverTag);
        ++staged_envelopes;
        if (!lm.accept(env)) continue;
        PacketReader pr(env.payload);
        const auto count = pr.read<std::uint64_t>();
        for (std::uint64_t j = 0; j < count; ++j) {
          const auto t = pr.read<VertexId>();
          CGRAPH_DCHECK(range.contains(t));
          for (std::size_t w = 0; w < W; ++w)
            incoming_bits[w] = pr.read<Word>();
          bf.discover_atomic(t - range.begin, incoming_bits.data());
        }
      }

      // --- Commit the level (visited |= next, once), publish local
      // next-frontier occupancy for this level, and carry the next
      // level's density/scout inputs out of the same pass.
      WordRow nonempty{};
      FrontierOccupancy occ_next;
      std::mutex nonempty_mu;
      const ParallelForStats commit_stats = parallel_ranges(
          pool, nlocal, [&](std::size_t vb, std::size_t ve) {
            WordRow chunk_nonempty{};
            const FrontierOccupancy chunk_occ = bf.commit_rows(
                vb, ve, chunk_nonempty.data(), degrees, nullptr);
            std::lock_guard<std::mutex> lock(nonempty_mu);
            for (std::size_t w = 0; w < W; ++w) {
              nonempty[w] |= chunk_nonempty[w];
            }
            occ_next += chunk_occ;
          });
      occ = occ_next;
      lm.publish_nonempty(level, nonempty.data());
      lt.parallel_tasks = occ_stats.tasks + scan_stats.tasks +
                          pull_stats.tasks + commit_stats.tasks;
      lt.steal_wait_seconds =
          occ_stats.join_wait_seconds + scan_stats.join_wait_seconds +
          pull_stats.join_wait_seconds + commit_stats.join_wait_seconds;
      lm.record_level(level, lt);
      bf.advance(nonempty.data());  // O(words): reuse the commit-phase mask
      commit.end(static_cast<double>(staged_envelopes));
      mc.barrier();  // ---- level close: occupancy now globally visible ----

      lm.close_level(level);
    }

    // --- Per-query visited counts (seeds excluded at the end).
    parallel_ranges(pool, nlocal, [&](std::size_t vb, std::size_t ve) {
      std::vector<std::uint64_t> counts(Q, 0);
      count_query_bits(bf.visited(), vb, ve, counts);
      for (std::size_t q = 0; q < Q; ++q) {
        if (counts[q] != 0) run.add_visited(q, counts[q]);
      }
    });
    if (visited_out != nullptr) {
      // Machines own disjoint global row ranges, so the plane assembles
      // without synchronization; a crashed machine only reaches this point
      // on its final (successful) attempt.
      for (std::size_t v = 0; v < static_cast<std::size_t>(nlocal); ++v) {
        const Word* src = bf.visited().row(v);
        Word* dst = visited_out->row(range.begin + v);
        for (std::size_t w = 0; w < W; ++w) dst[w] = src[w];
      }
    }
    lm.finish(bf.memory_bytes());
  });

  std::vector<std::uint64_t> seeds(Q);
  for (std::size_t q = 0; q < Q; ++q) seeds[q] = batch.seeds[q].size();
  return run.finish(seeds);
}

}  // namespace

MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const KHopQuery> batch,
                             std::size_t threads,
                             const DirectionOptions& direction,
                             QueryBitRows* visited_out) {
  return msbfs_batch_core(graph, to_seeded(batch), threads, direction,
                          visited_out);
}

MsBfsBatchResult msbfs_batch(const Graph& graph,
                             std::span<const MultiKHopQuery> batch,
                             std::size_t threads,
                             const DirectionOptions& direction,
                             QueryBitRows* visited_out) {
  return msbfs_batch_core(graph, to_seeded(batch), threads, direction,
                          visited_out);
}

MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  return run_distributed_msbfs_core(cluster, shards, partition,
                                    to_seeded(batch), direction,
                                    visited_out, snapshot_epoch);
}

MsBfsBatchResult run_distributed_msbfs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const MultiKHopQuery> batch,
    const DirectionOptions& direction, QueryBitRows* visited_out,
    Epoch snapshot_epoch) {
  return run_distributed_msbfs_core(cluster, shards, partition,
                                    to_seeded(batch), direction,
                                    visited_out, snapshot_epoch);
}

}  // namespace cgraph
