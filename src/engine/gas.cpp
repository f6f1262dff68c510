#include "engine/gas.hpp"

#include <atomic>
#include <mutex>

#include "engine/superstep.hpp"
#include "net/serialize.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cgraph {
namespace {

constexpr std::uint32_t kScatterTag = 0x53435456;  // 'SCTV'

struct ScatterRecord {
  VertexId vertex;
  double value;
};

}  // namespace

GasResult run_gas(Cluster& cluster, const std::vector<SubgraphShard>& shards,
                  const RangePartition& partition, const GasProgram& program,
                  std::uint64_t iterations, Epoch snapshot_epoch) {
  CGRAPH_CHECK(shards.size() == cluster.num_machines());
  const VertexId num_vertices = shards.empty()
                                    ? 0
                                    : shards[0].num_global_vertices();
  const Epoch epoch = resolve_snapshot_epoch(shards, snapshot_epoch);

  GasResult result;
  result.values.assign(num_vertices, 0.0);
  result.stats.per_iteration_sim_seconds.assign(iterations, 0.0);
  std::mutex iter_time_mu;
  std::atomic<std::uint64_t> ptasks_total{0};
  std::atomic<std::uint64_t> stealwait_ns_total{0};

  cluster.reset_for_run();

  // Crash recovery: the per-iteration scatter/gather planes are re-derived
  // from `value` every iteration, so the checkpoint only carries the vertex
  // values (plus dedup + telemetry partials). The shared accumulators are
  // published post-loop, after the last barrier (crashes fire only at
  // barriers), so a rollback never has to undo them.

  WallTimer wall;
  cluster.run([&](MachineContext& mc) {
    const SubgraphShard& shard = shards[mc.id()];
    const VertexRange range = shard.local_range();
    const VertexId nlocal = range.size();
    // Intra-machine compute pool (nullptr = serial), sized by
    // Cluster::set_compute_threads / $CGRAPH_THREADS.
    ThreadPool* pool = mc.pool();
    std::uint64_t my_ptasks = 0;
    double my_steal = 0;

    // Scatter records are assignments (last write wins, values identical
    // within an iteration), so duplicates are harmless — the filter keeps
    // the per-run delivery accounting exact under fault plans.
    DedupFilter dedup;

    // Delta edge-sets overlaying the tiled base structures (DESIGN.md
    // §15). With no uncompacted events every gate below is dead and the
    // run is byte-for-byte the frozen path.
    const DeltaEdgeSet& dout = shard.delta_out();
    const DeltaEdgeSet& din = shard.delta_in();
    const bool mutating = shard.has_mutations();

    // --- Setup: mirror lists. For each remote machine q, which local
    // vertices have at least one out-edge into q's range (and therefore
    // must push their scatter value to q each iteration).
    std::vector<std::vector<VertexId>> mirrors(mc.num_machines());
    {
      std::vector<PartitionId> last_sent(nlocal, kInvalidPartition);
      for (const EdgeSet& es : shard.out_sets().sets()) {
        const VertexRange sr = es.src_range();
        for (VertexId v = sr.begin; v < sr.end; ++v) {
          for (VertexId t : es.neighbors(v)) {
            const PartitionId q = partition.owner(t);
            if (q == mc.id()) continue;
            // Dedup consecutive hits cheaply; exact dedup below.
            if (last_sent[v - range.begin] != q) {
              mirrors[q].push_back(v);
              last_sent[v - range.begin] = q;
            }
          }
        }
      }
      // Delta-inserted boundary edges add mirror entries too. Deleted
      // base edges are left in place: pushing a value nobody gathers is
      // harmless (gather walks the merged parent list, which excludes
      // tombstoned edges), and it keeps this setup scan append-only.
      if (mutating) {
        for (VertexId v = range.begin; v < range.end; ++v) {
          if (!dout.has_events(v)) continue;
          dout.for_each_extra(v, epoch, [&](VertexId t) {
            const PartitionId q = partition.owner(t);
            if (q != mc.id()) mirrors[q].push_back(v);
          });
        }
      }
      for (auto& list : mirrors) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
      }
    }

    // Out-degrees at the pinned epoch: scatter (and init_value) divide by
    // the live degree, so vertices with delta events get theirs recounted
    // through the merged view — required for bit-exactness against the
    // equivalent frozen graph.
    std::vector<EdgeIndex> degrees(shard.out_degrees().begin(),
                                   shard.out_degrees().end());
    if (mutating) {
      for (VertexId v = range.begin; v < range.end; ++v) {
        if (!dout.has_events(v)) continue;
        EdgeIndex d = 0;
        shard.for_each_out_neighbor_at(v, epoch, [&](VertexId) { ++d; });
        degrees[v - range.begin] = d;
      }
    }

    // Local state: vertex values, local scatter values, and a dense cache
    // of remote scatter values (indexed by global id; only boundary slots
    // are ever written).
    std::vector<double> value(nlocal);
    std::vector<double> scatter_local(nlocal);
    std::vector<double> scatter_remote(num_vertices, 0.0);

    std::uint64_t start_iter = 0;
    if (auto ckpt = mc.restore_checkpoint()) {
      // Re-entering after a crash: resume from the checkpointed iteration.
      // Clocks and link state were rolled back by the cluster, so the
      // replayed iterations are bit-exact.
      PacketReader pr(*ckpt);
      start_iter = pr.read<std::uint64_t>();
      my_ptasks = pr.read<std::uint64_t>();
      my_steal = pr.read<double>();
      dedup.deserialize(pr);
      const auto vals = pr.read_vector<double>();
      CGRAPH_CHECK(vals.size() == value.size());
      std::copy(vals.begin(), vals.end(), value.begin());
      check_delta_tail(pr, shard, epoch);
    } else {
      for (VertexId i = 0; i < nlocal; ++i) {
        value[i] = program.init_value(range.begin + i, degrees[i],
                                      num_vertices);
      }
    }

    double last_sim = mc.clock().seconds();
    for (std::uint64_t iter = start_iter; iter < iterations; ++iter) {
      // Top of iteration = the consistent cut: staged mailboxes are empty
      // and `value` is the machine's whole recoverable state.
      mc.maybe_checkpoint([&](PacketWriter& pw) {
        pw.write<std::uint64_t>(iter);
        pw.write<std::uint64_t>(my_ptasks);
        pw.write<double>(my_steal);
        dedup.serialize(pw);
        pw.write_span<double>({value.data(), value.size()});
        write_delta_tail(pw, shard, epoch);
      });

      // Scatter = the "scan" half of a GAS iteration.
      const PhaseSpan scan(mc, obs::TraceEventPhase::kSuperstepScan,
                           static_cast<std::int32_t>(iter));
      // --- Scatter phase: compute outgoing contribution per local vertex.
      // Each slot is written by exactly one pool thread.
      const ParallelForStats scatter_stats = parallel_ranges(
          pool, nlocal, [&](std::size_t ib, std::size_t ie) {
            for (std::size_t i = ib; i < ie; ++i) {
              scatter_local[i] = program.scatter(value[i], degrees[i]);
            }
          });
      mc.charge_compute(/*edges=*/0, /*vertices=*/nlocal);

      // --- Push boundary values to the partitions that gather from them.
      for (PartitionId q = 0; q < mc.num_machines(); ++q) {
        if (mirrors[q].empty()) continue;
        PacketWriter w;
        std::vector<ScatterRecord> records;
        records.reserve(mirrors[q].size());
        for (VertexId v : mirrors[q]) {
          records.push_back({v, scatter_local[v - range.begin]});
        }
        w.write_span(std::span<const ScatterRecord>(records));
        mc.send(q, kScatterTag, w.take());
      }
      scan.end(static_cast<double>(nlocal));
      mc.barrier();

      // Gather+apply = the "commit" half of a GAS iteration.
      const PhaseSpan commit(mc, obs::TraceEventPhase::kSuperstepCommit,
                             static_cast<std::int32_t>(iter));
      for (Envelope& env : mc.recv_staged()) {
        CGRAPH_CHECK(env.tag == kScatterTag);
        if (!accept_once(mc, dedup, env)) continue;
        PacketReader r(env.payload);
        for (const ScatterRecord& rec : r.read_vector<ScatterRecord>()) {
          scatter_remote[rec.vertex] = rec.value;
        }
      }

      // --- Gather + apply, fully local thanks to the CSC (or its tiled
      // edge-set view when the shard was built with vertical
      // consolidation). Pool threads claim vertex ranges; each vertex's
      // float fold runs wholly on one thread in edge order, so values are
      // bit-identical for any thread count.
      std::atomic<std::uint64_t> edges_acc{0};
      auto incoming_of = [&](VertexId p) {
        return range.contains(p) ? scatter_local[p - range.begin]
                                 : scatter_remote[p];
      };
      // Vertices with in-side delta events fold over the merged parent
      // list (base minus tombstones plus inserts, globally sorted — the
      // same order a compacted rebuild would walk), so FP sums stay
      // bit-identical to the equivalent frozen graph.
      auto gather_merged = [&](std::size_t i, std::uint64_t& chunk_edges) {
        double sum = program.gather_init();
        shard.for_each_in_parent_at(
            range.begin + static_cast<VertexId>(i), epoch, [&](VertexId p) {
              sum = program.gather(sum, incoming_of(p));
              ++chunk_edges;
            });
        value[i] = program.apply(sum, value[i], num_vertices);
      };
      ParallelForStats gather_stats;
      if (shard.has_in_sets()) {
        gather_stats = parallel_ranges(
            pool, nlocal, [&](std::size_t ib, std::size_t ie) {
              std::uint64_t chunk_edges = 0;
              for (std::size_t i = ib; i < ie; ++i) {
                const VertexId vg = range.begin + static_cast<VertexId>(i);
                if (mutating && din.has_events(vg)) {
                  gather_merged(i, chunk_edges);
                  continue;
                }
                double sum = program.gather_init();
                shard.in_sets().for_each_neighbor(
                    vg,
                    [&](VertexId p) {
                      sum = program.gather(sum, incoming_of(p));
                      ++chunk_edges;
                    });
                value[i] = program.apply(sum, value[i], num_vertices);
              }
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            });
      } else {
        gather_stats = parallel_ranges(
            pool, nlocal, [&](std::size_t ib, std::size_t ie) {
              std::uint64_t chunk_edges = 0;
              for (std::size_t i = ib; i < ie; ++i) {
                if (mutating &&
                    din.has_events(range.begin +
                                   static_cast<VertexId>(i))) {
                  gather_merged(i, chunk_edges);
                  continue;
                }
                double sum = program.gather_init();
                for (VertexId p :
                     shard.in_csr().neighbors(static_cast<VertexId>(i))) {
                  sum = program.gather(sum, incoming_of(p));
                }
                chunk_edges += shard.in_csr().degree(
                    static_cast<VertexId>(i));
                value[i] = program.apply(sum, value[i], num_vertices);
              }
              edges_acc.fetch_add(chunk_edges, std::memory_order_relaxed);
            });
      }
      mc.charge_compute(edges_acc.load(std::memory_order_relaxed), nlocal);
      my_ptasks += scatter_stats.tasks + gather_stats.tasks;
      my_steal +=
          scatter_stats.join_wait_seconds + gather_stats.join_wait_seconds;
      commit.end(
          static_cast<double>(edges_acc.load(std::memory_order_relaxed)));
      mc.barrier();  // iteration boundary: everyone advances together

      if (mc.id() == 0) {
        // After a barrier all clocks equal the max, so reading our own
        // clock is race-free and equals the cluster makespan so far.
        const double now = mc.clock().seconds();
        std::lock_guard<std::mutex> lk(iter_time_mu);
        result.stats.per_iteration_sim_seconds[iter] = now - last_sim;
        last_sim = now;
      }
    }

    // Publish final values: each machine owns a disjoint range.
    for (VertexId i = 0; i < nlocal; ++i) {
      result.values[range.begin + i] = value[i];
    }
    ptasks_total.fetch_add(my_ptasks, std::memory_order_relaxed);
    stealwait_ns_total.fetch_add(
        static_cast<std::uint64_t>(my_steal * 1e9),
        std::memory_order_relaxed);
  });

  result.stats.iterations = iterations;
  result.stats.wall_seconds = wall.seconds();
  result.stats.sim_seconds = cluster.sim_seconds();
  result.stats.packets = cluster.fabric().total_packets();
  result.stats.bytes = cluster.fabric().total_bytes();
  result.stats.parallel_tasks =
      ptasks_total.load(std::memory_order_relaxed);
  result.stats.steal_wait_seconds =
      static_cast<double>(
          stealwait_ns_total.load(std::memory_order_relaxed)) *
      1e-9;
  return result;
}

}  // namespace cgraph
