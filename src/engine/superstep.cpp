#include "engine/superstep.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cgraph {

Epoch resolve_snapshot_epoch(const std::vector<SubgraphShard>& shards,
                             Epoch requested) {
  if (requested != kEpochHead) return requested;
  return current_epoch(
      std::span<const SubgraphShard>(shards.data(), shards.size()));
}

void write_delta_tail(PacketWriter& pw, const SubgraphShard& shard,
                      Epoch epoch) {
  pw.write<std::uint64_t>(epoch);
  pw.write<std::uint64_t>(shard.mutation_fingerprint(epoch));
}

void check_delta_tail(PacketReader& pr, const SubgraphShard& shard,
                      Epoch epoch) {
  const auto ck_epoch = pr.read<std::uint64_t>();
  const auto ck_fp = pr.read<std::uint64_t>();
  CGRAPH_CHECK_MSG(
      ck_epoch == epoch && ck_fp == shard.mutation_fingerprint(epoch),
      "checkpoint delta tail mismatch: a restored run must see the "
      "snapshot the blob was cut against");
}

bool accept_once(MachineContext& mc, DedupFilter& dedup,
                 const Envelope& env) {
  if (dedup.accept(env.from, env.seq)) return true;
  mc.cluster().fabric().record_dedup_suppressed(mc.id());
  return false;
}

PhaseSpan::PhaseSpan(MachineContext& mc, obs::TraceEventPhase phase,
                     std::int32_t level)
    : mc_(mc),
      phase_(phase),
      level_(level),
      tracing_(obs::tracing_enabled()),
      sim_t0_(tracing_ ? mc.clock().seconds() : 0.0) {}

void PhaseSpan::end(double a, double b) const {
  if (!tracing_) return;
  obs::TraceEvent ev;
  ev.phase = phase_;
  ev.kind = obs::TraceEventKind::kSpan;
  ev.machine = static_cast<std::int32_t>(mc_.id());
  ev.level = level_;
  ev.sim_seconds = sim_t0_;
  ev.sim_dur_seconds = mc_.clock().seconds() - sim_t0_;
  ev.wall_dur_ns = static_cast<std::uint64_t>(wall_.nanos());
  ev.a = a;
  ev.b = b;
  obs::trace(ev);
}

void trace_direction_choice(MachineContext& mc, Depth level, bool pull,
                            std::uint64_t scout_edges) {
  if (!obs::tracing_enabled()) return;
  obs::TraceEvent ev;
  ev.phase = obs::TraceEventPhase::kDirectionChoice;
  ev.machine = static_cast<std::int32_t>(mc.id());
  ev.level = level;
  ev.sim_seconds = mc.clock().seconds();
  ev.a = pull ? 1.0 : 0.0;
  ev.b = static_cast<double>(scout_edges);
  obs::trace(ev);
}

LevelRun::LevelRun(Cluster& cluster, const std::vector<SubgraphShard>& shards,
                   std::size_t queries, Epoch snapshot_epoch)
    : cluster_(cluster),
      epoch_(resolve_snapshot_epoch(shards, snapshot_epoch)),
      words_(words_for_bits(queries)),
      shares_(cluster.num_machines()),
      visited_(queries) {
  CGRAPH_CHECK(queries > 0);
  CGRAPH_CHECK(shards.size() == cluster.num_machines());
  CGRAPH_CHECK_MSG(words_ <= QueryBitRows::kMaxBatchWords,
                   "batch exceeds activity-plane capacity");
  for (Share& s : shares_) s.nonempty.assign(2 * words_, 0);
  result_.visited.assign(queries, 0);
  result_.levels.assign(queries, 0);
  result_.completion_wall_seconds.assign(queries, 0.0);
  result_.completion_sim_seconds.assign(queries, 0.0);
  cluster.reset_for_run();
  wall_.reset();
}

MsBfsBatchResult LevelRun::finish(std::span<const std::uint64_t> seeds) {
  MsBfsBatchResult& r = result_;
  for (std::size_t q = 0; q < visited_.size(); ++q) {
    const std::uint64_t v = visited_[q].load(std::memory_order_relaxed);
    r.visited[q] = v > seeds[q] ? v - seeds[q] : 0;
  }
  r.wall_seconds = wall_.seconds();
  r.sim_seconds = cluster_.sim_seconds();
  r.edges_scanned = edges_.load(std::memory_order_relaxed);
  r.frontier_bytes = state_bytes_.load(std::memory_order_relaxed);

  const auto& steps = cluster_.telemetry().supersteps;
  r.level_trace.resize(r.total_levels);
  for (std::size_t l = 0; l < r.total_levels; ++l) {
    obs::LevelTrace& lt = r.level_trace[l];
    lt.level = static_cast<std::uint32_t>(l);
    for (const Share& s : shares_) {
      if (l >= s.levels.size()) continue;
      const obs::LevelTrace& part = s.levels[l];
      lt.frontier_vertices += part.frontier_vertices;
      lt.edges_scanned += part.edges_scanned;
      lt.bit_ops += part.bit_ops;
      lt.parallel_tasks += part.parallel_tasks;
      lt.steal_wait_seconds += part.steal_wait_seconds;
      lt.push_machines += part.push_machines;
      lt.pull_machines += part.pull_machines;
      lt.scout_edges += part.scout_edges;
    }
    for (std::size_t s = 2 * l; s < 2 * l + 2 && s < steps.size(); ++s) {
      lt.barrier_wait_sim_seconds += steps[s].barrier_wait_sim_seconds;
    }
  }
  return std::move(r);
}

LevelMachine::LevelMachine(LevelRun& run, MachineContext& mc,
                           const SubgraphShard& shard,
                           std::span<const Depth> ks)
    : run_(run),
      mc_(mc),
      shard_(shard),
      ks_(ks),
      share_(run.shares_[mc.id()]),
      done_(ks.size(), false) {}

void LevelMachine::write_header(PacketWriter& pw, Depth level) const {
  pw.write<std::uint32_t>(level);
  pw.write<std::uint64_t>(done_count_);
  for (const bool d : done_) pw.write<std::uint8_t>(d ? 1 : 0);
  pw.write<std::uint64_t>(edges_);
  dedup_.serialize(pw);
}

void LevelMachine::read_header(PacketReader& pr) {
  start_level_ = static_cast<Depth>(pr.read<std::uint32_t>());
  done_count_ = static_cast<std::size_t>(pr.read<std::uint64_t>());
  for (std::size_t q = 0; q < done_.size(); ++q) {
    done_[q] = pr.read<std::uint8_t>() != 0;
  }
  edges_ = pr.read<std::uint64_t>();
  dedup_.deserialize(pr);
}

void LevelMachine::write_trailer(PacketWriter& pw) const {
  if (mc_.id() == 0) {
    const MsBfsBatchResult& r = run_.result_;
    pw.write<std::uint32_t>(r.total_levels);
    for (std::size_t q = 0; q < done_.size(); ++q) {
      pw.write<std::uint32_t>(r.levels[q]);
      pw.write<double>(r.completion_wall_seconds[q]);
      pw.write<double>(r.completion_sim_seconds[q]);
    }
  }
  write_delta_tail(pw, shard_, run_.epoch_);
}

void LevelMachine::read_trailer(PacketReader& pr) {
  if (mc_.id() == 0) {
    MsBfsBatchResult& r = run_.result_;
    r.total_levels = static_cast<Depth>(pr.read<std::uint32_t>());
    for (std::size_t q = 0; q < done_.size(); ++q) {
      r.levels[q] = static_cast<Depth>(pr.read<std::uint32_t>());
      r.completion_wall_seconds[q] = pr.read<double>();
      r.completion_sim_seconds[q] = pr.read<double>();
    }
  }
  check_delta_tail(pr, shard_, run_.epoch_);
}

void LevelMachine::record_level(Depth level, const obs::LevelTrace& trace) {
  if (share_.levels.size() <= level) share_.levels.resize(level + 1u);
  share_.levels[level] = trace;
}

void LevelMachine::publish_nonempty(Depth level, const Word* words) {
  std::copy(words, words + run_.words_,
            share_.nonempty.begin() + (level % 2) * run_.words_);
}

void LevelMachine::close_level(Depth level) {
  const std::size_t W = run_.words_;
  const std::size_t base = (level % 2) * W;
  Word nonempty[QueryBitRows::kMaxBatchWords] = {};
  for (const LevelRun::Share& s : run_.shares_) {
    for (std::size_t w = 0; w < W; ++w) nonempty[w] |= s.nonempty[base + w];
  }
  MsBfsBatchResult& r = run_.result_;
  const auto levels_run = static_cast<Depth>(level + 1);
  for (std::size_t q = 0; q < done_.size(); ++q) {
    if (done_[q]) continue;
    const bool empty_next =
        ((nonempty[q / kWordBits] >> (q % kWordBits)) & 1u) == 0;
    if (empty_next || levels_run >= ks_[q]) {
      done_[q] = true;
      ++done_count_;
      if (mc_.id() == 0) {
        r.levels[q] = levels_run;
        r.completion_wall_seconds[q] = run_.wall_.seconds();
        r.completion_sim_seconds[q] = mc_.clock().seconds();
      }
    }
  }
  if (mc_.id() == 0) r.total_levels = levels_run;
  CGRAPH_CHECK_MSG(static_cast<std::size_t>(level) + 1 < kMaxLevels,
                   "traversal exceeded level cap");
}

}  // namespace cgraph
