// BSP driver for partition-centric programs (paper Fig. 4 workflow):
//
//   loop: compute on local subgraph -> flush outboxes -> barrier ->
//         drain incoming task buffer -> halt check
//
// until every partition voted to halt and no messages are in flight.
#pragma once

#include <functional>
#include <memory>

#include "engine/partition_context.hpp"
#include "net/cluster.hpp"
#include "util/timer.hpp"

namespace cgraph {

template <typename M>
class PartitionProgram {
 public:
  virtual ~PartitionProgram() = default;
  /// Called once before the first superstep.
  virtual void init(PartitionContext<M>&) {}
  /// Called every superstep. Read incoming() for delivered messages.
  virtual void compute(PartitionContext<M>&) = 0;
  /// Called once after global quiescence.
  virtual void finish(PartitionContext<M>&) {}

  // ---- crash recovery (optional) --------------------------------------
  // A program that opts in serializes its whole per-partition state; the
  // engine then checkpoints it at superstep boundaries and, after a crash,
  // calls restore() instead of init(). Programs that do not opt in fall
  // back to a from-scratch restart when a machine crashes (still correct,
  // just no replay savings).
  [[nodiscard]] virtual bool supports_checkpoint() const { return false; }
  virtual void checkpoint(PacketWriter&) const {}
  virtual void restore(PacketReader&) {}
};

struct BspStats {
  std::uint64_t supersteps = 0;
  double wall_seconds = 0;   // host wall-clock for the whole run
  double sim_seconds = 0;    // simulated cluster makespan (cost model)
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

/// Run one program instance per machine until quiescence. The factory is
/// invoked once per machine (on that machine's thread).
template <typename M>
BspStats run_partition_programs(
    Cluster& cluster, const std::vector<SubgraphShard>& shards,
    const RangePartition& partition,
    const std::function<std::unique_ptr<PartitionProgram<M>>(PartitionId)>&
        factory,
    std::uint64_t max_supersteps = 1'000'000) {
  CGRAPH_CHECK(shards.size() == cluster.num_machines());

  // Crash recovery: superstep_count is stored post-loop, so a replay just
  // stores it again. The ActivityBoard needs no checkpoint — every machine
  // re-posts its flag each superstep before anyone reads it.
  ActivityBoard board(cluster.num_machines());
  std::atomic<std::uint64_t> superstep_count{0};

  cluster.reset_for_run();
  WallTimer wall;
  cluster.run([&](MachineContext& mc) {
    PartitionContext<M> ctx(mc, shards[mc.id()], partition);
    std::unique_ptr<PartitionProgram<M>> program = factory(mc.id());

    std::uint64_t steps = 0;
    bool restored = false;
    if (program->supports_checkpoint()) {
      if (auto ckpt = mc.restore_checkpoint()) {
        // Re-entering after a crash: restore the engine-level context
        // (incoming buffer, halt vote, dedup windows) and the program's
        // own state instead of re-running init().
        PacketReader pr(*ckpt);
        steps = pr.read<std::uint64_t>();
        ctx.restore_state(pr);
        program->restore(pr);
        restored = true;
      }
    }
    if (!restored) program->init(ctx);

    for (; steps < max_supersteps; ++steps) {
      // Top of superstep = the consistent cut: outboxes and loopback are
      // empty (flushed / swapped into incoming last superstep), staged
      // mailboxes drained. `incoming` is the only in-flight data and
      // travels inside the checkpoint.
      if (program->supports_checkpoint()) {
        mc.maybe_checkpoint([&](PacketWriter& pw) {
          pw.write<std::uint64_t>(steps);
          ctx.checkpoint_state(pw);
          program->checkpoint(pw);
        });
      }

      program->compute(ctx);

      // Active if the program did not halt, or it queued messages whose
      // delivery must wake someone next superstep.
      board.post(mc.id(), !ctx.halted() || ctx.has_pending_sends());
      ctx.flush_sends();
      ctx.barrier();

      ctx.collect_incoming();
      if (!ctx.incoming().empty()) ctx.activate();

      // All machines read the same snapshot of the board here: posts only
      // happen after the *next* barrier, so this read/second-barrier pair
      // makes the halt decision globally consistent (the real system pays
      // the same price as a termination allreduce).
      const bool keep_running = board.any_active();
      ctx.barrier();
      if (!keep_running) {
        ++steps;
        break;
      }
    }
    program->finish(ctx);

    if (mc.id() == 0) {
      superstep_count.store(steps, std::memory_order_relaxed);
    }
  });

  BspStats stats;
  stats.wall_seconds = wall.seconds();
  stats.sim_seconds = cluster.sim_seconds();
  stats.supersteps = superstep_count.load(std::memory_order_relaxed);
  stats.packets = cluster.fabric().total_packets();
  stats.bytes = cluster.fabric().total_bytes();
  cluster.publish_metrics(obs::MetricsRegistry::global());
  return stats;
}

}  // namespace cgraph
