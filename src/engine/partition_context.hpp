// Partition-centric programming model (paper §3.4, Listing 1).
//
// A PartitionProgram runs one instance per machine. Each superstep the
// engine calls compute(); the program reads its shard, sends messages to
// vertices anywhere in the graph by global id (sendTo), and votes to halt
// when locally quiescent. The engine terminates when every partition has
// voted to halt and no messages are in flight — Pregel semantics at
// partition granularity (fewer supersteps than vertex-centric, as the
// paper notes, because local traversal runs to completion inside one
// superstep).
//
// Messages are typed (template parameter M, trivially copyable) and are
// batched per destination machine into one packet per superstep, which is
// what a real MPI backend would do.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/superstep.hpp"
#include "graph/partition.hpp"
#include "graph/shard.hpp"
#include "net/cluster.hpp"
#include "net/serialize.hpp"
#include "util/assert.hpp"

namespace cgraph {

/// Wire record for vertex-addressed messages.
template <typename M>
struct VertexMessage {
  VertexId target;
  M payload;
};

/// Shared halt-detection board: each machine posts whether it is still
/// active; the engine ANDs after a barrier. Lives in bsp_engine.cpp.
class ActivityBoard {
 public:
  explicit ActivityBoard(PartitionId n) : flags_(n) {
    for (auto& f : flags_) f.store(1, std::memory_order_relaxed);
  }
  void post(PartitionId id, bool active) {
    flags_[id].store(active ? 1 : 0, std::memory_order_release);
  }
  [[nodiscard]] bool any_active() const {
    for (const auto& f : flags_)
      if (f.load(std::memory_order_acquire)) return true;
    return false;
  }

 private:
  std::vector<std::atomic<std::uint8_t>> flags_;
};

template <typename M>
class PartitionContext {
  static_assert(std::is_trivially_copyable_v<M>,
                "message payloads must be POD for wire serialization");

 public:
  static constexpr std::uint32_t kVertexMsgTag = 0x564d5347;  // 'VMSG'

  PartitionContext(MachineContext& mc, const SubgraphShard& shard,
                   const RangePartition& partition)
      : mc_(mc),
        shard_(shard),
        partition_(partition),
        outboxes_(mc.num_machines()) {}

  // ---- Listing 1 surface ----------------------------------------------

  [[nodiscard]] PartitionId partition_id() const { return shard_.id(); }

  [[nodiscard]] bool is_local_vertex(VertexId v) const {
    return shard_.is_local(v);
  }

  /// Boundary vertices: remote vertices adjacent to this partition.
  [[nodiscard]] bool is_boundary_vertex(VertexId v) const {
    if (shard_.is_local(v)) return false;
    const auto& b = shard_.boundary_out();
    return std::binary_search(b.begin(), b.end(), v);
  }

  /// has-vertex in the Listing 1 sense: known to this partition (local or
  /// boundary).
  [[nodiscard]] bool has_vertex(VertexId v) const {
    return is_local_vertex(v) || is_boundary_vertex(v);
  }

  [[nodiscard]] const VertexRange& local_vertices() const {
    return shard_.local_range();
  }
  [[nodiscard]] const std::vector<VertexId>& boundary_vertices() const {
    return shard_.boundary_out();
  }
  [[nodiscard]] VertexId num_all_vertices() const {
    return shard_.num_global_vertices();
  }

  /// Queue a message to the owner partition of `target`; delivered after
  /// the next superstep barrier. Local targets short-circuit (no wire
  /// traffic), matching the paper's "all edges of a vertex are local" note.
  void send_to(VertexId target, const M& payload) {
    const PartitionId owner = partition_.owner(target);
    if (owner == shard_.id()) {
      local_loopback_.push_back({target, payload});
    } else {
      outboxes_[owner].push_back({target, payload});
    }
  }

  void vote_to_halt() { halted_ = true; }
  void activate() { halted_ = false; }
  [[nodiscard]] bool halted() const { return halted_; }

  /// Superstep barrier (engine also calls this between phases).
  void barrier() { mc_.barrier(); }

  // ---- engine-side surface --------------------------------------------

  [[nodiscard]] const SubgraphShard& shard() const { return shard_; }
  [[nodiscard]] const RangePartition& partition() const { return partition_; }
  [[nodiscard]] MachineContext& machine() { return mc_; }

  /// Messages delivered to this partition for the current superstep.
  [[nodiscard]] const std::vector<VertexMessage<M>>& incoming() const {
    return incoming_;
  }

  /// Charge compute work to the simulated clock.
  void charge_compute(std::uint64_t edges, std::uint64_t vertices = 0) {
    mc_.charge_compute(edges, vertices);
  }

  /// Flush queued sends as one packet per destination machine.
  void flush_sends() {
    for (PartitionId to = 0; to < outboxes_.size(); ++to) {
      auto& box = outboxes_[to];
      if (box.empty()) continue;
      PacketWriter w;
      w.write_span(std::span<const VertexMessage<M>>(box));
      mc_.send(to, kVertexMsgTag, w.take());
      box.clear();
    }
  }

  /// Collect the messages staged for this superstep (remote packets plus
  /// the local loopback queue). Message application is combiner-defined and
  /// generally NOT idempotent (e.g. summed PageRank contributions), so a
  /// packet duplicated by a faulty fabric must be applied exactly once —
  /// duplicates are filtered by (sender, sequence) before decoding.
  void collect_incoming() {
    incoming_.clear();
    incoming_.swap(local_loopback_);
    for (Envelope& env : mc_.recv_staged()) {
      CGRAPH_CHECK(env.tag == kVertexMsgTag);
      if (!accept_once(mc_, dedup_, env)) continue;
      PacketReader r(env.payload);
      auto msgs = r.template read_vector<VertexMessage<M>>();
      incoming_.insert(incoming_.end(), msgs.begin(), msgs.end());
    }
  }

  /// Checkpoint support (crash recovery): at the top-of-superstep cut the
  /// outboxes and loopback queue are empty, so the engine-level state is
  /// exactly (incoming, halted, dedup windows).
  void checkpoint_state(PacketWriter& w) const {
    w.write_span(std::span<const VertexMessage<M>>(incoming_));
    w.write<std::uint8_t>(halted_ ? 1 : 0);
    dedup_.serialize(w);
  }
  void restore_state(PacketReader& r) {
    incoming_ = r.template read_vector<VertexMessage<M>>();
    halted_ = r.read<std::uint8_t>() != 0;
    dedup_.deserialize(r);
    local_loopback_.clear();
    for (auto& box : outboxes_) box.clear();
  }

  /// True when this partition has deferred work: queued sends or loopback
  /// messages (used for halt detection before the flush).
  [[nodiscard]] bool has_pending_sends() const {
    if (!local_loopback_.empty()) return true;
    for (const auto& box : outboxes_)
      if (!box.empty()) return true;
    return false;
  }

 private:
  MachineContext& mc_;
  const SubgraphShard& shard_;
  const RangePartition& partition_;
  std::vector<std::vector<VertexMessage<M>>> outboxes_;  // one per machine
  std::vector<VertexMessage<M>> local_loopback_;
  std::vector<VertexMessage<M>> incoming_;
  DedupFilter dedup_;
  bool halted_ = false;
};

}  // namespace cgraph
