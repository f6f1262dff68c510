// The level-synchronous superstep runtime (paper §3, Listing 2; DESIGN.md
// §9). Every cluster traversal is one loop of per-level scan, exchange
// barrier, commit and level-close barrier. LevelRun and LevelMachine are
// the scaffolding around that loop for distributed MS-BFS and queue k-hop
// (with and without found paths); GAS and async k-hop share the snapshot,
// checkpoint-tail, dedup and tracer helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "net/serialize.hpp"
#include "obs/event_tracer.hpp"
#include "obs/trace.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace cgraph {

/// Depth is uint8_t, so no traversal can exceed 255 levels; +1 slack.
inline constexpr std::size_t kMaxLevels = 256;

/// Result of one batch. Every batch engine reports this layout so
/// harnesses can swap engines.
struct MsBfsBatchResult {
  /// Per query (batch order): vertices visited, levels run, and the time
  /// from batch start until that query's frontier went empty.
  std::vector<std::uint64_t> visited;
  std::vector<Depth> levels;
  std::vector<double> completion_wall_seconds;
  std::vector<double> completion_sim_seconds;  // distributed engine only

  Depth total_levels = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t frontier_bytes = 0;  // peak bitmap memory

  /// Per-level cost breakdown (frontier size, edges, bitmap word ops,
  /// barrier waits), one entry per traversal level. Empty for engines
  /// without level structure (async).
  std::vector<obs::LevelTrace> level_trace;
};

/// The snapshot a run reads (DESIGN.md §15). kEpochHead pins the shards'
/// epoch at entry, so writers appending events for later epochs never
/// change what an in-flight run sees.
[[nodiscard]] Epoch resolve_snapshot_epoch(
    const std::vector<SubgraphShard>& shards, Epoch requested);

/// Checkpoint delta tail: the snapshot a blob was cut against. A rollback,
/// or a surviving replica adopting the cut, must replay against
/// byte-identical mutation state; check_delta_tail aborts otherwise.
void write_delta_tail(PacketWriter& pw, const SubgraphShard& shard,
                      Epoch epoch);
void check_delta_tail(PacketReader& pr, const SubgraphShard& shard,
                      Epoch epoch);

/// Exactly-once gate for a staged envelope: false, counted as
/// dedup-suppressed, for a duplicate the fabric delivered again.
bool accept_once(MachineContext& mc, DedupFilter& dedup, const Envelope& env);

/// A scan or commit phase on the event tracer (DESIGN.md §11), spanning
/// construction to end(). Level -1 marks a phase outside any BSP level.
class PhaseSpan {
 public:
  PhaseSpan(MachineContext& mc, obs::TraceEventPhase phase,
            std::int32_t level);
  void end(double a, double b = 0) const;

 private:
  MachineContext& mc_;
  obs::TraceEventPhase phase_;
  std::int32_t level_;
  bool tracing_;
  double sim_t0_;
  WallTimer wall_;
};

/// Per machine per level push/pull decision instant (DESIGN.md §12).
void trace_direction_choice(MachineContext& mc, Depth level, bool pull,
                            std::uint64_t scout_edges);

/// Shared side of one level-synchronous batch. Construction resets the
/// cluster for the run, pins the snapshot and starts the wall clock.
class LevelRun {
 public:
  LevelRun(Cluster& cluster, const std::vector<SubgraphShard>& shards,
           std::size_t queries, Epoch snapshot_epoch);

  [[nodiscard]] Epoch epoch() const { return epoch_; }

  /// Per-query visited vertices, added by each machine after its loop:
  /// no barrier (so no crash) follows, so a rollback never undoes one.
  void add_visited(std::size_t q, std::uint64_t count) {
    visited_[q].fetch_add(count, std::memory_order_relaxed);
  }

  /// The result: visited minus each query's `seeds`, the totals, machine
  /// 0's completion record, and per level the machines' summed traces.
  /// Level l closed with barriers 2l and 2l+1, so its barrier wait is the
  /// sum of those two superstep telemetry records.
  MsBfsBatchResult finish(std::span<const std::uint64_t> seeds);

 private:
  friend class LevelMachine;

  /// One machine's per-level traces, and its next-frontier occupancy for
  /// the last two levels (indexed by level parity). Only that machine
  /// writes its share, by assignment, so a replayed level overwrites its
  /// pre-crash entry.
  struct Share {
    std::vector<obs::LevelTrace> levels;
    std::vector<Word> nonempty;
  };

  Cluster& cluster_;
  Epoch epoch_;
  std::size_t words_;
  std::vector<Share> shares_;
  std::vector<std::atomic<std::uint64_t>> visited_;
  std::atomic<std::uint64_t> state_bytes_{0};
  std::atomic<std::uint64_t> edges_{0};
  MsBfsBatchResult result_;
  WallTimer wall_;
};

/// One machine's side of a LevelRun: its done set and level-close
/// decision, machine 0's completion record, its edge count and dedup
/// window, and the checkpoint codec around the engine's partition state.
/// Blob layout (DESIGN.md §9):
///
///   header  level u32, done count u64, done flags u8[Q], edges u64,
///           dedup window
///   body    engine state (write_body / read_body)
///   record  machine 0 only: total levels u32, then per query levels u32,
///           completion wall f64, completion sim f64
///   tail    epoch u64, mutation fingerprint u64 (write_delta_tail)
///
/// The record travels in the blob because a surviving replica adopting
/// the cut starts with zeroed result arrays.
class LevelMachine {
 public:
  /// `ks[q]` is query q's hop bound.
  LevelMachine(LevelRun& run, MachineContext& mc, const SubgraphShard& shard,
               std::span<const Depth> ks);

  /// At body entry: after a crash (or when adopting a dead replica's cut)
  /// read the blob, handing the body to read_body, and return true; on a
  /// fresh run return false so the engine seeds.
  template <typename ReadBody>
  bool restore(ReadBody&& read_body) {
    auto ckpt = mc_.restore_checkpoint();
    if (!ckpt) return false;
    PacketReader pr(*ckpt);
    read_header(pr);
    read_body(pr);
    read_trailer(pr);
    return true;
  }

  /// Offer the top-of-level checkpoint, where staged mailboxes are empty.
  template <typename WriteBody>
  void checkpoint(Depth level, WriteBody&& write_body) {
    mc_.maybe_checkpoint([&](PacketWriter& pw) {
      write_header(pw, level);
      write_body(pw);
      write_trailer(pw);
    });
  }

  bool accept(const Envelope& env) { return accept_once(mc_, dedup_, env); }
  void count_edges(std::uint64_t edges) { edges_ += edges; }

  /// This machine's share of `level`'s LevelTrace.
  void record_level(Depth level, const obs::LevelTrace& trace);
  /// This machine's next-frontier occupancy after `level` (bit q: query
  /// q's next frontier is non-empty here), before the level-close barrier.
  void publish_nonempty(Depth level, const Word* words);
  /// After the level-close barrier: a query is done once its next frontier
  /// is empty on every machine or its hop bound is exhausted.
  void close_level(Depth level);

  [[nodiscard]] Depth start_level() const { return start_level_; }
  [[nodiscard]] bool running() const { return done_count_ < ks_.size(); }
  /// After the loop (see LevelRun::add_visited): add this machine's edge
  /// count and traversal-state bytes to the run's totals.
  void finish(std::uint64_t state_bytes) {
    run_.edges_.fetch_add(edges_, std::memory_order_relaxed);
    run_.state_bytes_.fetch_add(state_bytes, std::memory_order_relaxed);
  }

 private:
  void write_header(PacketWriter& pw, Depth level) const;
  void read_header(PacketReader& pr);
  void write_trailer(PacketWriter& pw) const;
  void read_trailer(PacketReader& pr);

  LevelRun& run_;
  MachineContext& mc_;
  const SubgraphShard& shard_;
  std::span<const Depth> ks_;
  LevelRun::Share& share_;
  DedupFilter dedup_;
  std::vector<bool> done_;
  std::size_t done_count_ = 0;
  std::uint64_t edges_ = 0;
  Depth start_level_ = 0;
};

}  // namespace cgraph
