#include "query/distributed_khop.hpp"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "engine/superstep.hpp"
#include "net/serialize.hpp"
#include "query/paths.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kVisitTag = 0x56495354;  // 'VIST'

/// Wire record: "visit vertex `target` for query `query` at depth `depth`"
/// — the sendTo(t, t.hops) of paper Listing 2.
struct VisitTask {
  VertexId target;
  QueryId query;
  Depth depth;
};

/// VisitTask extended with the discovering parent (found paths, §4.2).
struct ParentTask {
  VertexId target;
  VertexId parent;
  QueryId query;
  Depth depth;
};

/// The queue k-hop body. With kPaths every discovery also records its BFS
/// parent: remote discoveries ship ParentTask records, and each machine's
/// per-query parent lists travel in its checkpoint blob. `parents_out`
/// (kPaths only) receives the per-query lists, machine by machine.
template <bool kPaths>
MsBfsBatchResult run_queue_khop(Cluster& cluster,
                                const std::vector<SubgraphShard>& shards,
                                const RangePartition& partition,
                                std::span<const KHopQuery> batch,
                                Epoch snapshot_epoch,
                                std::vector<ParentList>* parents_out) {
  using Task = std::conditional_t<kPaths, ParentTask, VisitTask>;
  const std::size_t Q = batch.size();
  LevelRun run(cluster, shards, Q, snapshot_epoch);
  const Epoch epoch = run.epoch();
  std::vector<Depth> ks(Q);
  for (std::size_t q = 0; q < Q; ++q) ks[q] = batch[q].k;
  // Per machine, per query: the (vertex, parent) pairs that machine
  // discovered, flattened. Each vertex is discovered on exactly one machine
  // (its owner), so the lists are disjoint and concatenate in machine order.
  std::vector<std::vector<std::vector<VertexId>>> machine_parents(
      kPaths ? cluster.num_machines() : 0);

  cluster.run([&](MachineContext& mc) {
    const SubgraphShard& shard = shards[mc.id()];
    const VertexRange range = shard.local_range();
    const VertexId nlocal = range.size();
    // Intra-machine compute pool (nullptr = serial), sized by
    // Cluster::set_compute_threads / $CGRAPH_THREADS.
    ThreadPool* pool = mc.pool();

    // Exactly-once application of exchanged task packets: the visited
    // bitmap makes task application idempotent anyway, but a duplicated
    // packet must not re-queue vertices into `next`, so the level
    // machine's dedup window filters packets by (sender, seq) first.
    LevelMachine lm(run, mc, shard, ks);

    // Per-query state: visited bitmap over local vertices and the current
    // level's task queue (local vertex ids, global numbering).
    std::vector<Bitmap> visited(Q);
    std::vector<std::vector<VertexId>> frontier(Q);
    std::vector<std::vector<VertexId>> next(Q);
    std::vector<std::vector<VertexId>> parents(kPaths ? Q : 0);
    for (std::size_t q = 0; q < Q; ++q) visited[q].resize(nlocal);

    // Re-entering after a crash resumes from the checkpointed level. The
    // link/clock state was already rolled back by the cluster, so the
    // replay is bit-exact.
    if (!lm.restore([&](PacketReader& pr) {
          for (std::size_t q = 0; q < Q; ++q) {
            const auto words = pr.read_vector<Word>();
            CGRAPH_CHECK(words.size() == visited[q].size_words());
            std::copy(words.begin(), words.end(), visited[q].data());
            frontier[q] = pr.read_vector<VertexId>();
            if constexpr (kPaths) parents[q] = pr.read_vector<VertexId>();
          }
        })) {
      for (std::size_t q = 0; q < Q; ++q) {
        if (range.contains(batch[q].source)) {
          visited[q].set(batch[q].source - range.begin);
          frontier[q].push_back(batch[q].source);
        }
      }
    }

    // Outgoing remote tasks, bucketed per (query, owner machine) so pool
    // threads never share a bucket; merged per owner in query order below.
    const std::size_t M = mc.num_machines();
    std::vector<std::vector<Task>> outbox(Q * M);
    std::vector<Task> merged;

    for (Depth level = lm.start_level(); lm.running(); ++level) {
      // Top of level = the consistent cut: staged mailboxes are empty,
      // outboxes drained and `next` queues just swapped away, so visited,
      // frontier (and parents) are this engine's whole share of the blob.
      lm.checkpoint(level, [&](PacketWriter& pw) {
        for (std::size_t q = 0; q < Q; ++q) {
          pw.write_span<Word>({visited[q].data(), visited[q].size_words()});
          pw.write_span<VertexId>(
              {frontier[q].data(), frontier[q].size()});
          if constexpr (kPaths) {
            pw.write_span<VertexId>({parents[q].data(), parents[q].size()});
          }
        }
      });
      const PhaseSpan scan(mc, obs::TraceEventPhase::kSuperstepScan, level);
      // --- Expand every active query's local frontier (Listing 2 body).
      // Pool threads claim ranges of queries: all of query q's state
      // (visited[q], next[q], parents[q], its outbox row) is touched by
      // exactly one thread, and the merged per-destination packets below
      // are assembled in query order, so queue contents and wire bytes are
      // identical to the serial scatter for any thread count.
      std::atomic<std::uint64_t> edges_acc{0};
      std::atomic<std::uint64_t> tasks_acc{0};
      std::atomic<std::uint64_t> tnset_acc{0};
      const ParallelForStats scatter_stats = parallel_ranges(
          pool, Q, [&](std::size_t qb, std::size_t qe) {
            std::uint64_t chunk_edges = 0;
            std::uint64_t chunk_tasks = 0;
            std::uint64_t chunk_tnset = 0;
            for (std::size_t q = qb; q < qe; ++q) {
              if (batch[q].k <= level) continue;  // s.hops == k: stop
              chunk_tasks += frontier[q].size();
              for (VertexId s : frontier[q]) {
                // Merged view: tiled base edges minus tombstones plus
                // delta inserts at the pinned epoch. Falls through to the
                // plain tile scan for vertices with no events.
                shard.for_each_out_neighbor_at(s, epoch, [&](VertexId t) {
                  ++chunk_edges;
                  if (range.contains(t)) {
                    ++chunk_tnset;
                    if (visited[q].atomic_test_and_set(t - range.begin)) {
                      next[q].push_back(t);  // Q.push(t)
                      if constexpr (kPaths) {
                        parents[q].insert(parents[q].end(), {t, s});
                      }
                    }
                  } else {
                    // sendTo(t, t.hops): dedup at the receiver's visited
                    // set.
                    const auto depth = static_cast<Depth>(level + 1);
                    const auto query = static_cast<QueryId>(q);
                    if constexpr (kPaths) {
                      outbox[q * M + partition.owner(t)].push_back(
                          {t, s, query, depth});
                    } else {
                      outbox[q * M + partition.owner(t)].push_back(
                          {t, query, depth});
                    }
                  }
                });
              }
            }
            edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            tasks_acc.fetch_add(chunk_tasks, std::memory_order_relaxed);
            tnset_acc.fetch_add(chunk_tnset, std::memory_order_relaxed);
          });
      const std::uint64_t level_edges =
          edges_acc.load(std::memory_order_relaxed);
      const std::uint64_t level_tasks =
          tasks_acc.load(std::memory_order_relaxed);
      std::uint64_t level_tnset = tnset_acc.load(std::memory_order_relaxed);
      lm.count_edges(level_edges);
      mc.charge_compute(level_edges);
      scan.end(static_cast<double>(level_edges),
               static_cast<double>(level_tasks));

      for (PartitionId to = 0; to < M; ++to) {
        merged.clear();
        for (std::size_t q = 0; q < Q; ++q) {
          std::vector<Task>& bucket = outbox[q * M + to];
          merged.insert(merged.end(), bucket.begin(), bucket.end());
          bucket.clear();
        }
        if (merged.empty()) continue;
        PacketWriter pw;
        pw.write_span(std::span<const Task>(merged));
        mc.send(to, kVisitTag, pw.take());
      }
      mc.barrier();  // ---- exchange remote task buffers ----

      const PhaseSpan commit(mc, obs::TraceEventPhase::kSuperstepCommit,
                             level);
      std::uint64_t staged_envelopes = 0;
      for (Envelope& env : mc.recv_staged()) {
        ++staged_envelopes;
        CGRAPH_CHECK(env.tag == kVisitTag);
        if (!lm.accept(env)) continue;
        PacketReader pr(env.payload);
        for (const Task& task : pr.read_vector<Task>()) {
          CGRAPH_DCHECK(range.contains(task.target));
          ++level_tnset;
          if (visited[task.query].atomic_test_and_set(task.target -
                                                      range.begin)) {
            next[task.query].push_back(task.target);
            if constexpr (kPaths) {
              parents[task.query].insert(parents[task.query].end(),
                                         {task.target, task.parent});
            }
          }
        }
      }
      obs::LevelTrace lt;  // this machine's share of the level's trace
      lt.frontier_vertices = level_tasks;
      lt.edges_scanned = level_edges;
      lt.bit_ops = level_tnset;
      lt.parallel_tasks = scatter_stats.tasks;
      lt.steal_wait_seconds = scatter_stats.join_wait_seconds;
      lm.record_level(level, lt);

      // --- Publish activity, advance queues.
      {
        Word local_nonempty[QueryBitRows::kMaxBatchWords] = {};
        for (std::size_t q = 0; q < Q; ++q) {
          if (!next[q].empty()) {
            local_nonempty[q / kWordBits] |= Word{1} << (q % kWordBits);
          }
        }
        lm.publish_nonempty(level, local_nonempty);
      }
      for (std::size_t q = 0; q < Q; ++q) {
        frontier[q].swap(next[q]);  // Q.pop of the drained level
        next[q].clear();
      }
      commit.end(static_cast<double>(staged_envelopes));
      mc.barrier();  // ---- level close ----

      lm.close_level(level);
    }

    for (std::size_t q = 0; q < Q; ++q) {
      run.add_visited(q, visited[q].count());
    }
    lm.finish(Q * (words_for_bits(nlocal) * sizeof(Word)));
    if constexpr (kPaths) machine_parents[mc.id()] = std::move(parents);
  });

  if constexpr (kPaths) {
    parents_out->assign(Q, {});
    for (const auto& mp : machine_parents) {
      for (std::size_t q = 0; q < Q; ++q) {
        for (std::size_t i = 0; i < mp[q].size(); i += 2) {
          (*parents_out)[q].emplace_back(mp[q][i], mp[q][i + 1]);
        }
      }
    }
  }
  return run.finish(std::vector<std::uint64_t>(Q, 1));
}

}  // namespace

MsBfsBatchResult run_distributed_khop(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch,
    Epoch snapshot_epoch) {
  return run_queue_khop<false>(cluster, shards, partition, batch,
                               snapshot_epoch, nullptr);
}

KhopPathsResult run_distributed_khop_paths(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition, std::span<const KHopQuery> batch) {
  KhopPathsResult result;
  result.base = run_queue_khop<true>(cluster, shards, partition, batch,
                                     kEpochHead, &result.parents);
  return result;
}

}  // namespace cgraph
