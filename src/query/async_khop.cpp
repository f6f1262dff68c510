#include "query/async_khop.hpp"

#include <atomic>

#include "engine/superstep.hpp"
#include "net/serialize.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kAsyncVisitTag = 0x41565354;  // 'AVST'
// Tasks buffered per destination before an async flush, to amortize the
// per-packet cost without a full level barrier.
constexpr std::size_t kFlushThreshold = 512;
// Local tasks processed between mailbox polls.
constexpr std::size_t kChunk = 1024;

struct AsyncTask {
  VertexId target;
  QueryId query;
  Depth depth;
};

}  // namespace

MsBfsBatchResult run_async_khop(Cluster& cluster,
                                const std::vector<SubgraphShard>& shards,
                                const RangePartition& partition,
                                std::span<const KHopQuery> batch) {
  const std::size_t Q = batch.size();
  CGRAPH_CHECK(Q > 0);
  CGRAPH_CHECK(shards.size() == cluster.num_machines());
  const PartitionId P = cluster.num_machines();
  // Pin the snapshot every relaxation reads (DESIGN.md §15). Async
  // recovery re-relaxes from each machine's own checkpoint, so the blob's
  // delta tail guards that replay against a different mutation state.
  const Epoch epoch = resolve_snapshot_epoch(shards, kEpochHead);

  MsBfsBatchResult result;
  result.visited.assign(Q, 0);
  result.levels.assign(Q, 0);
  result.completion_wall_seconds.assign(Q, 0.0);
  result.completion_sim_seconds.assign(Q, 0.0);

  // Termination state shared across machines (stands in for the credit
  // messages a wire deployment would circulate). Busy-machine count and
  // in-flight message credits share ONE atomic so the quiescence test is a
  // single load — with two counters there is no consistent snapshot, and a
  // checker can interleave its two reads around a peer's send+idle (or
  // recv+wake) transition and declare termination with work still live.
  // Every machine is born busy, so the counter starts at P.
  std::atomic<std::int64_t> outstanding{static_cast<std::int64_t>(P)};
  std::atomic<bool> done{false};

  std::vector<std::atomic<std::uint64_t>> visited_accum(Q);
  for (auto& a : visited_accum) a.store(0, std::memory_order_relaxed);
  std::vector<std::atomic<std::uint32_t>> max_level(Q);
  for (auto& a : max_level) a.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> edges_total{0};
  std::atomic<std::uint64_t> state_bytes_total{0};

  cluster.reset_for_run();
  WallTimer wall;

  // Crash recovery, async flavor: there is no superstep replay. Each
  // machine checkpoints its best-known depth arrays independently; on a
  // crash every machine rolls back to its own last checkpoint, re-queues
  // everything it knows and re-relaxes. Depths only ever improve and
  // re-expansion is idempotent, so the fixpoint (the exact BFS closure) is
  // unchanged — only wall/sim timing and edge counts may differ from the
  // fault-free schedule. The shared termination and result accumulators
  // restart from scratch.
  RunHooks hooks;
  hooks.link_replay = false;
  hooks.on_restore = [&] {
    outstanding.store(static_cast<std::int64_t>(P),
                      std::memory_order_relaxed);
    done.store(false, std::memory_order_relaxed);
    for (auto& a : visited_accum) a.store(0, std::memory_order_relaxed);
    for (auto& a : max_level) a.store(0, std::memory_order_relaxed);
    edges_total.store(0, std::memory_order_relaxed);
    state_bytes_total.store(0, std::memory_order_relaxed);
  };

  cluster.run([&](MachineContext& mc) {
    const SubgraphShard& shard = shards[mc.id()];
    const VertexRange range = shard.local_range();
    const std::size_t nlocal = range.size();

    // Best-known depth per (query, local vertex); re-expansion on
    // improvement keeps async results exact.
    std::vector<std::vector<Depth>> depth(Q);
    for (auto& d : depth) d.assign(nlocal, kUnvisitedDepth);
    state_bytes_total.fetch_add(Q * nlocal * sizeof(Depth),
                                std::memory_order_relaxed);

    std::vector<AsyncTask> queue;
    std::vector<std::vector<AsyncTask>> outbox(P);

    auto flush = [&](PartitionId to) {
      if (outbox[to].empty()) return;
      PacketWriter pw;
      pw.write_span(std::span<const AsyncTask>(outbox[to]));
      outstanding.fetch_add(static_cast<std::int64_t>(outbox[to].size()),
                            std::memory_order_acq_rel);
      mc.send_async(to, kAsyncVisitTag, pw.take());
      outbox[to].clear();
    };

    std::uint64_t my_edges = 0;
    if (auto ckpt = mc.restore_checkpoint()) {
      // Re-entering after a crash: restore the depth arrays and re-queue
      // every vertex this machine has ever reached, so all of its outgoing
      // relaxations (including messages lost in the crash) are re-derived.
      PacketReader pr(*ckpt);
      my_edges = pr.read<std::uint64_t>();
      for (std::size_t q = 0; q < Q; ++q) {
        const auto depths = pr.read_vector<Depth>();
        CGRAPH_CHECK(depths.size() == nlocal);
        std::copy(depths.begin(), depths.end(), depth[q].begin());
        for (std::size_t v = 0; v < nlocal; ++v) {
          if (depth[q][v] != kUnvisitedDepth) {
            queue.push_back({range.begin + static_cast<VertexId>(v),
                             static_cast<QueryId>(q), depth[q][v]});
          }
        }
      }
      check_delta_tail(pr, shard, epoch);
    } else {
      // Seed local sources at depth 0.
      for (std::size_t q = 0; q < Q; ++q) {
        if (range.contains(batch[q].source)) {
          depth[q][batch[q].source - range.begin] = 0;
          queue.push_back({batch[q].source, static_cast<QueryId>(q), 0});
        }
      }
    }

    bool idle = false;
    while (!done.load(std::memory_order_acquire)) {
      // One logical "tick" per poll-loop pass: the async analogue of a
      // superstep for the crash schedule. (Checkpoints are taken below,
      // only on passes that process work — an idle machine spinning on the
      // quiescence check has nothing new to save.)
      mc.tick_crash_point();
      // Poll incoming tasks.
      for (Envelope& env : mc.recv_async()) {
        CGRAPH_CHECK(env.tag == kAsyncVisitTag);
        PacketReader pr(env.payload);
        const auto tasks = pr.read_vector<AsyncTask>();
        // Go busy BEFORE releasing the message credits: the counter must
        // never pass through zero while this machine has tasks in hand.
        if (idle) {
          idle = false;
          outstanding.fetch_add(1, std::memory_order_acq_rel);
        }
        outstanding.fetch_sub(static_cast<std::int64_t>(tasks.size()),
                              std::memory_order_acq_rel);
        for (const AsyncTask& t : tasks) {
          CGRAPH_DCHECK(range.contains(t.target));
          Depth& best = depth[t.query][t.target - range.begin];
          if (t.depth < best) {
            best = t.depth;
            queue.push_back(t);
          }
        }
      }

      // Graceful degradation: a failed send is one the fabric dropped on
      // every attempt, so the receiver never saw those tasks and never
      // decremented for them — release their termination credits here or
      // the quiescence check would wedge forever. (Quiescence tests `<= 0`
      // purely defensively; the failure-detector contract keeps the
      // counter non-negative.)
      for (FailedSend& f : mc.take_failed_async()) {
        CGRAPH_DCHECK(f.tag == kAsyncVisitTag);
        PacketReader pr(f.payload);
        const auto lost = pr.read_vector<AsyncTask>();
        const auto n = static_cast<std::int64_t>(lost.size());
        // This release can be the transition to global quiescence (every
        // machine idle, these were the last credits).
        if (outstanding.fetch_sub(n, std::memory_order_acq_rel) == n) {
          done.store(true, std::memory_order_release);
        }
      }

      if (queue.empty()) {
        if (!idle) {
          idle = true;
          // Quiescent iff this was the last busy machine and no credits
          // remain; fetch_sub's return value makes that one atomic test.
          if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            done.store(true, std::memory_order_release);
          }
        } else if (outstanding.load(std::memory_order_acquire) <= 0) {
          done.store(true, std::memory_order_release);
        }
        continue;
      }
      if (idle) {
        idle = false;
        outstanding.fetch_add(1, std::memory_order_acq_rel);
      }

      mc.maybe_checkpoint([&](PacketWriter& pw) {
        pw.write<std::uint64_t>(my_edges);
        for (std::size_t q = 0; q < Q; ++q) {
          pw.write_span<Depth>({depth[q].data(), depth[q].size()});
        }
        write_delta_tail(pw, shard, epoch);
      });

      // Process a chunk, then loop back to the poll. Async has no
      // supersteps: each worked poll-loop pass is one scan span (level -1
      // marks "not a BSP level").
      const PhaseSpan scan(mc, obs::TraceEventPhase::kSuperstepScan, -1);
      const std::uint64_t queued_before = queue.size();
      std::uint64_t chunk_edges = 0;
      for (std::size_t n = 0; n < kChunk && !queue.empty(); ++n) {
        const AsyncTask task = queue.back();
        queue.pop_back();
        const Depth cur = depth[task.query][task.target - range.begin];
        if (task.depth > cur) continue;  // superseded by a shorter path
        const Depth k = batch[task.query].k;
        if (task.depth >= k) continue;
        {
          std::uint32_t seen =
              max_level[task.query].load(std::memory_order_relaxed);
          const std::uint32_t mine = task.depth + 1u;
          while (seen < mine && !max_level[task.query].compare_exchange_weak(
                                    seen, mine, std::memory_order_relaxed)) {
          }
        }
        shard.for_each_out_neighbor_at(task.target, epoch, [&](VertexId t) {
          ++chunk_edges;
          const Depth nd = static_cast<Depth>(task.depth + 1);
          if (range.contains(t)) {
            Depth& best = depth[task.query][t - range.begin];
            if (nd < best) {
              best = nd;
              queue.push_back({t, task.query, nd});
            }
          } else {
            const PartitionId owner = partition.owner(t);
            outbox[owner].push_back({t, task.query, nd});
            if (outbox[owner].size() >= kFlushThreshold) flush(owner);
          }
        });
      }
      my_edges += chunk_edges;
      mc.charge_compute(chunk_edges);
      scan.end(static_cast<double>(chunk_edges),
               static_cast<double>(queued_before));
      for (PartitionId to = 0; to < P; ++to) flush(to);
    }

    // Count visited vertices per query (depth <= k set; excludes nothing
    // yet — the source is subtracted below).
    for (std::size_t q = 0; q < Q; ++q) {
      std::uint64_t count = 0;
      for (Depth d : depth[q]) {
        if (d != kUnvisitedDepth) ++count;
      }
      visited_accum[q].fetch_add(count, std::memory_order_relaxed);
    }
    edges_total.fetch_add(my_edges, std::memory_order_relaxed);
  }, hooks);

  result.wall_seconds = wall.seconds();
  result.sim_seconds = cluster.sim_seconds();
  for (std::size_t q = 0; q < Q; ++q) {
    const std::uint64_t v = visited_accum[q].load(std::memory_order_relaxed);
    result.visited[q] = v > 0 ? v - 1 : 0;
    result.levels[q] =
        static_cast<Depth>(max_level[q].load(std::memory_order_relaxed));
    result.completion_wall_seconds[q] = result.wall_seconds;
    result.completion_sim_seconds[q] = result.sim_seconds;
  }
  result.edges_scanned = edges_total.load(std::memory_order_relaxed);
  result.frontier_bytes =
      state_bytes_total.load(std::memory_order_relaxed);
  result.total_levels = 0;
  for (Depth l : result.levels) {
    result.total_levels = std::max(result.total_levels, l);
  }
  return result;
}

}  // namespace cgraph
