// The simulated cluster: N machines (threads), a shared fabric, and a BSP
// barrier that also advances the simulated clocks (all machines step to the
// slowest one plus the barrier cost — the BSP superstep time).
//
// Engines are written against MachineContext exactly as they would be
// against an MPI rank: local compute, explicit sends, collective barriers.
// Swapping this layer for real MPI only changes the transport.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "net/checkpoint.hpp"
#include "net/cost_model.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace cgraph {

/// Per-superstep telemetry recorded by the barrier completion callback.
struct SuperstepTelemetry {
  /// Sum over machines of simulated idle time at this barrier.
  double barrier_wait_sim_seconds = 0;
  /// Max/mean machine step time (1.0 = balanced; higher = stragglers).
  double straggler_ratio = 0;
};

struct ClusterTelemetry {
  /// Barrier fields per machine; Cluster::machine_traces() adds traffic.
  std::vector<obs::MachineTrace> machines;
  std::vector<SuperstepTelemetry> supersteps;

  /// Mean straggler ratio across recorded supersteps (0 if none).
  [[nodiscard]] double straggler_ratio() const;
};

/// Reusable N-party barrier with a completion callback executed by exactly
/// one (the last-arriving) thread while the others wait.
class SyncBarrier {
 public:
  explicit SyncBarrier(std::size_t parties,
                       std::function<void()> completion = nullptr)
      : parties_(parties), completion_(std::move(completion)) {}

  void arrive_and_wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
  std::function<void()> completion_;
};

class Cluster;

/// An async send that exhausted its retry budget without an ack. Surfaced
/// to the engine (see MachineContext::take_failed_async) so it can degrade
/// gracefully — e.g. release termination-detection credits — instead of
/// wedging on traffic that will never arrive.
struct FailedSend {
  PartitionId to = kInvalidPartition;
  std::uint32_t tag = 0;
  Packet payload;
};

/// Internal control-flow signal for crash-stop machine failure: thrown out
/// of MachineContext::barrier() / tick_crash_point() on every machine when
/// the FaultPlan schedules a crash, caught by Cluster::run, which restores
/// from the latest checkpoint and re-executes the body. Engines never see
/// it (it unwinds straight through their loops by design).
struct MachineCrash {
  PartitionId machine = kInvalidPartition;
  std::uint64_t superstep = 0;
};

/// Fail-stop of a whole replica cluster, thrown out of Cluster::run() when
/// an armed halt fires. Unlike MachineCrash (one machine dies, the cluster
/// recovers itself), a ReplicaDead escapes run(): the replica is gone and
/// stays gone, and the caller (the ReplicaRouter) fails the in-flight work
/// over to a surviving replica via export_resume_package()/arm_resume().
struct ReplicaDead {
  /// Barrier count at which the halt fired (supersteps completed).
  std::uint64_t superstep = 0;
};

/// Whole-replica kill schedule (Cluster::arm_halt): the replica-level
/// analogue of a FaultPlan crash entry. Deterministic in the superstep
/// count, so replica-kill sweeps are reproducible.
struct HaltSpec {
  /// Fire at the first completed barrier >= this count.
  std::uint64_t at_superstep = 1;
  /// Optional death-mid-checkpoint-write simulation: machines with
  /// id >= partial_from skip the store write at exactly `partial_step`,
  /// leaving a partial (incomplete) cut behind for the survivor to
  /// discard. kInvalidPartition disables the partial-write simulation.
  PartitionId partial_from = kInvalidPartition;
  std::uint64_t partial_step = 0;
};

/// Everything a surviving replica needs to adopt a dead replica's run: the
/// donor's checkpoint store with the partial tail already discarded, the
/// cluster snapshot at the last complete cut (or the baseline when the
/// donor never completed a cut), and the cut step itself.
struct ClusterResumePackage {
  PartitionId machines = 0;
  std::uint64_t step = 0;  // last complete barrier cut (0 = from scratch)
  ClusterSnapshot snapshot;
  CheckpointStore::Contents store;
};

/// Knobs for crash recovery (Cluster::set_recovery).
struct RecoveryOptions {
  /// Checkpoint every `checkpoint_interval` supersteps (engine loop
  /// iterations offer a checkpoint; this gate decides whether to take it).
  std::uint64_t checkpoint_interval = 1;
  /// When non-empty, mirror every machine checkpoint to
  /// `<dir>/machine_<id>.ckpt` (stable-storage story; see CheckpointStore).
  std::string checkpoint_dir;
};

/// Counters surfaced as cgraph_recovery_* through publish_recovery_metrics.
struct RecoveryStats {
  std::uint64_t crashes = 0;
  std::uint64_t supersteps_replayed = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;
  double restore_seconds = 0;
  /// Maintained by the scheduler: queries whose batch was touched by a
  /// crash and therefore re-executed (the failover unit is the batch).
  std::uint64_t queries_reexecuted = 0;
};

/// Per-run hooks for Cluster::run. `on_restore` fires once per recovery,
/// after cluster state is rolled back and before the body is re-entered —
/// engines reset their shared cross-machine accumulators there.
/// `link_replay` selects the restore mode: true (staged/BSP engines)
/// restores link sequence/attempt counters from the barrier snapshot so the
/// replay re-issues identical sequence numbers and fault decisions; false
/// (the async engine, whose poll schedule is not replayable) resets
/// delivery state entirely and relies on monotone re-relaxation.
struct RunHooks {
  std::function<void()> on_restore;
  bool link_replay = true;
};

/// One unacked async send awaiting its ack (or a retry timeout).
struct PendingSend {
  PartitionId to;
  std::uint32_t tag;
  Packet payload;  // retained for retransmission
  std::uint64_t seq;
  /// True once any transmission attempt reached the receiver's mailbox
  /// (the fabric's failure-detector signal). A deposited packet WILL be
  /// applied — only its acks can still be lost — so it must never be
  /// reported as failed, or credit-tracking engines would double-release.
  bool ever_deposited = false;
  std::uint32_t polls_since_send = 0;
  std::uint32_t attempts = 1;
};

/// Reliable-async protocol state for one machine. Owned by the Cluster and
/// persistent across runs (a MachineContext is a per-run view into it), so
/// engines MUST clear it at run start via Cluster::reset_for_run():
/// a stale unacked send would retransmit under the new run's sequence
/// numbering and poison the receiver's dedup window, and a stale failure
/// would release termination credits that belong to a previous batch.
/// Only touched from the owning machine's thread during a run.
struct AsyncProtocolState {
  std::vector<PendingSend> pending;
  std::vector<FailedSend> failed;
  DedupFilter dedup;

  void clear() {
    pending.clear();
    failed.clear();
    dedup = DedupFilter{};
  }
};

/// Per-machine execution handle passed to the machine body.
class MachineContext {
 public:
  /// Async retransmission backoff: attempt n waits
  /// min(kRetryMaxPolls, kRetryBasePolls << (n-1)) polls plus a
  /// deterministic jitter in [0, kRetryJitterPolls], hashed pure from
  /// (fault seed, link, attempt) — see retry_backoff_polls(). Bounded
  /// exponential backoff spreads retransmission bursts across links while
  /// keeping chaos replays bit-exact (no global RNG state involved).
  static constexpr std::uint32_t kRetryBasePolls = 2;
  static constexpr std::uint32_t kRetryMaxPolls = 10;
  static constexpr std::uint32_t kRetryJitterPolls = 3;
  /// Transmission attempts per async packet before it is declared failed.
  static constexpr std::uint32_t kMaxAsyncAttempts = 24;

  /// Polls to wait before retransmitting `attempt` (1-based) on the
  /// directed link `from -> to` under fault seed `seed`. Pure function of
  /// its arguments: a restored replay re-computes identical timeouts.
  [[nodiscard]] static std::uint32_t retry_backoff_polls(std::uint64_t seed,
                                                         PartitionId from,
                                                         PartitionId to,
                                                         std::uint32_t attempt);

  MachineContext(Cluster& cluster, PartitionId id);

  [[nodiscard]] PartitionId id() const { return id_; }
  [[nodiscard]] PartitionId num_machines() const;
  [[nodiscard]] std::uint64_t superstep() const { return superstep_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  /// BSP send: visible to `to` after the next barrier.
  void send(PartitionId to, std::uint32_t tag, Packet payload);
  /// Reliable async send: visible to `to` via its recv_async() (immediately
  /// when the fabric is clean). The packet is sequence-numbered and held
  /// until acked; recv_async() retransmits on timeout and the receiver
  /// dedups, so delivery is exactly-once up to kMaxAsyncAttempts.
  void send_async(PartitionId to, std::uint32_t tag, Packet payload);

  /// Drain messages staged for the current superstep (those sent during the
  /// previous superstep, before the last barrier).
  std::vector<Envelope> recv_staged();
  /// Drain asynchronously-delivered data messages. Also runs the delivery
  /// protocol: acks each data packet, suppresses duplicates, consumes
  /// incoming acks, and retransmits timed-out unacked sends.
  std::vector<Envelope> recv_async();

  /// True while any async send is awaiting an ack. A quiescing engine that
  /// stops polling with pending sends simply abandons them (the data may
  /// well have arrived — only the acks are outstanding).
  [[nodiscard]] bool has_pending_async() const {
    return !proto_.pending.empty();
  }

  /// Async sends that permanently failed since the last call: every
  /// transmission attempt in the retry budget was dropped, so the receiver
  /// never saw the packet. (A send whose data got through but whose acks
  /// keep getting lost is abandoned silently instead — the payload was
  /// delivered, so it is not a failure.) Payload ownership moves to the
  /// caller, which can release termination credits or re-route.
  std::vector<FailedSend> take_failed_async();

  /// Synchronize all machines; charges this machine's accumulated comm cost
  /// and advances every clock to the slowest machine. Increments superstep.
  /// Throws MachineCrash (on every machine — they all park at the same
  /// barrier) when the FaultPlan schedules a crash at this superstep.
  void barrier();

  /// Crash point for barrier-free (async) engines: call once per poll-loop
  /// iteration. Consumes a scheduled crash for (machine, tick) and throws
  /// MachineCrash when any machine's crash has been flagged. Ticks depend
  /// on the wall schedule, so async recovery is monotone, not replay-based
  /// (see RunHooks::link_replay).
  void tick_crash_point();

  /// Offer a checkpoint of this machine's engine state. Engines call this
  /// at the top of their superstep loop — a consistent cut: no staged
  /// packet is in flight there. The checkpoint is actually taken only when
  /// recovery is enabled and the configured interval has elapsed since the
  /// machine's last checkpoint (the gate is deterministic in the superstep
  /// count, so all machines checkpoint at the same steps). `save` receives
  /// a PacketWriter and serializes the engine's partition state into it.
  /// Returns true when a checkpoint was taken.
  bool maybe_checkpoint(const std::function<void(PacketWriter&)>& save);

  /// At body entry: the engine's partition state from this machine's
  /// latest checkpoint, when the body is being re-entered after a crash.
  /// Also restores superstep() and the async tick to their checkpointed
  /// values. Returns nullopt on a fresh (or baseline-restarted) run — the
  /// body initializes from scratch then.
  std::optional<Packet> restore_checkpoint();

  /// Charge local compute work to the simulated clock.
  void charge_compute(std::uint64_t edges, std::uint64_t vertices = 0);

  /// This machine's intra-machine compute pool, or nullptr when the
  /// cluster runs engines serially (compute_threads <= 1). Engines hand it
  /// to parallel_ranges(), which degrades to an inline call on nullptr.
  [[nodiscard]] ThreadPool* pool();

  [[nodiscard]] SimClock& clock();

 private:
  Cluster& cluster_;
  PartitionId id_;
  std::uint64_t superstep_ = 0;
  std::uint64_t tick_ = 0;  // async poll-loop iterations (crash schedule)
  std::uint64_t step_packets_ = 0;
  std::uint64_t step_bytes_ = 0;
  // Interval gate for maybe_checkpoint: progress point of the last
  // checkpoint this machine took (or restored from).
  bool has_last_ckpt_ = false;
  std::uint64_t last_ckpt_step_ = 0;
  std::uint64_t last_ckpt_tick_ = 0;
  /// Cluster-owned, persistent across runs; see AsyncProtocolState.
  AsyncProtocolState& proto_;
};

class Cluster {
 public:
  explicit Cluster(PartitionId num_machines, CostModel cost_model = {});

  [[nodiscard]] PartitionId num_machines() const {
    return fabric_.num_machines();
  }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] SimClock& clock(PartitionId id) { return clocks_[id]; }

  /// Intra-machine parallelism for engine hot loops: each machine gets a
  /// private ThreadPool of (threads - 1) workers, so `threads` counts the
  /// machine thread itself. 0 selects one thread per hardware core; 1
  /// (the default, unless $CGRAPH_THREADS overrides it) keeps engines
  /// serial. Must not be called while run() is executing.
  void set_compute_threads(std::size_t threads);
  /// The configured knob value (0 = hardware), not the resolved count.
  [[nodiscard]] std::size_t compute_threads() const {
    return compute_threads_;
  }
  /// Machine `id`'s pool, or nullptr when engines run serially.
  [[nodiscard]] ThreadPool* compute_pool(PartitionId id);

  /// Execute `body(ctx)` on every machine concurrently; returns when all
  /// machines finish. Clocks and traffic counters persist across runs until
  /// reset_clocks() / fabric().reset_counters(). When recovery is enabled
  /// and the FaultPlan crashes a machine, the whole cluster rolls back to
  /// the latest checkpoint and the body is re-entered (bounded attempts).
  void run(const std::function<void(MachineContext&)>& body);
  void run(const std::function<void(MachineContext&)>& body,
           const RunHooks& hooks);

  // -- Crash recovery ----------------------------------------------------

  /// Restarts of one run() before recovery is declared non-convergent.
  static constexpr std::uint32_t kMaxRecoveryAttempts = 256;

  /// Enable superstep checkpointing + crash recovery for subsequent runs.
  void set_recovery(RecoveryOptions opts);
  [[nodiscard]] bool recovery_enabled() const { return recovery_enabled_; }
  [[nodiscard]] const RecoveryOptions& recovery_options() const {
    return recovery_opts_;
  }
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  void reset_recovery_stats() { recovery_stats_ = RecoveryStats{}; }
  /// Scheduler bookkeeping: queries re-executed because their batch was
  /// touched by a crash.
  void add_queries_reexecuted(std::uint64_t n) {
    recovery_stats_.queries_reexecuted += n;
  }
  /// Read access for tests (e.g. checkpoint-file roundtrips).
  [[nodiscard]] const CheckpointStore& checkpoint_store() const {
    return store_;
  }

  // -- Replica fail-stop (replication layer) -----------------------------

  /// Arm a whole-replica kill: the next run() throws ReplicaDead at the
  /// first completed barrier >= spec.at_superstep and the cluster is
  /// permanently halted. Optionally simulates dying mid-checkpoint-write
  /// (see HaltSpec). Must be called while no run() is executing.
  void arm_halt(HaltSpec spec);
  [[nodiscard]] bool halt_armed() const { return halt_armed_; }
  /// True once a halt fired: the replica is dead and run() must not be
  /// called again.
  [[nodiscard]] bool halted() const { return halted_; }

  /// Export this (dead) replica's last complete cut for adoption by a
  /// survivor: the partial checkpoint tail — blobs newer than the last cut
  /// at which every machine saved — is discarded here, never shipped.
  [[nodiscard]] ClusterResumePackage export_resume_package() const;
  /// Install a dead replica's package: the next run() resumes from the
  /// donor's cut (machine bodies pick the blobs up via
  /// restore_checkpoint()) instead of starting fresh. Requires recovery to
  /// be enabled and a matching machine count.
  void arm_resume(ClusterResumePackage pkg);

  /// Clear every machine's persistent reliable-async protocol state
  /// (pending retransmissions, surfaced failures, dedup windows). Part of
  /// reset_for_run(), alongside fabric().reset_delivery_state(); a
  /// previous run's leftovers would corrupt the new run (stale seqs poison
  /// dedup, stale failures double-release credits).
  void reset_protocol_state() {
    for (auto& p : proto_) p->clear();
  }
  [[nodiscard]] AsyncProtocolState& protocol_state(PartitionId id) {
    return *proto_[id];
  }

  /// Max simulated time across machines (the BSP makespan).
  [[nodiscard]] double sim_seconds() const;

  void reset_clocks() {
    for (auto& c : clocks_) c.reset();
    step_start_ns_ = 0;
  }

  /// Run-start reset every engine performs before run(): clocks, barrier
  /// telemetry, fabric counters and delivery state, async protocol state.
  void reset_for_run() {
    reset_clocks();
    reset_telemetry();
    fabric_.reset_counters();
    fabric_.reset_delivery_state();
    reset_protocol_state();
  }

  /// Barrier/superstep telemetry since the last reset_telemetry(). Safe to
  /// read once run() has returned.
  [[nodiscard]] const ClusterTelemetry& telemetry() const {
    return telemetry_;
  }
  void reset_telemetry();

  /// Per-machine record of the run since the last reset: the barrier
  /// telemetry combined with the fabric's sent counters. Safe to read once
  /// run() has returned.
  [[nodiscard]] std::vector<obs::MachineTrace> machine_traces() const;

  /// Publish machine_traces(), the straggler ratio and the recovery
  /// counters. For runs outside the service, which publishes its batches.
  void publish_metrics(obs::MetricsRegistry& registry) const;
  /// Publish the cgraph_recovery_* counters (when recovery is enabled).
  void publish_recovery_metrics(obs::MetricsRegistry& registry) const;

 private:
  friend class MachineContext;

  /// Build pools_ to match compute_threads_ (no-op when already built).
  void ensure_compute_pools();

  /// Per-run() setup: reset the crash/checkpoint runtime and capture the
  /// step-0 baseline snapshot when recovery is enabled.
  void begin_run();
  /// Launch the body on all machines once; true iff a crash unwound it.
  bool run_once(const std::function<void(MachineContext&)>& body);
  /// Roll cluster state back to the latest common checkpoint (or the
  /// baseline) after a crash, per the run's RunHooks mode.
  void restore_from_checkpoint(const RunHooks& hooks);
  /// Barrier-completion hook: snapshot cluster state for this superstep
  /// and evaluate the crash schedule for every machine.
  void on_barrier_complete();
  /// Consume-at-most-once crash schedule evaluation for one (machine,
  /// step-or-tick) point. True when this call flagged a crash.
  bool consume_crash(PartitionId machine, std::uint64_t step);

  Fabric fabric_;
  CostModel cost_model_;
  std::vector<SimClock> clocks_;
  /// Configured intra-machine thread knob (0 = hardware) and the lazily
  /// built per-machine pools realizing it. Pools are created on the first
  /// run() after (re)configuration so idle Cluster objects stay cheap.
  std::size_t compute_threads_ = 1;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
  // Written by the barrier completion callback (single-threaded) and by
  // each machine for its own wall/superstep fields; distinct fields, and
  // reads only happen after run() joins.
  ClusterTelemetry telemetry_;
  double step_start_ns_ = 0;  // clock value all machines shared last barrier
  SyncBarrier barrier_;

  /// Persistent per-machine reliable-async protocol state (address-stable;
  /// sized once in the constructor). See AsyncProtocolState.
  std::vector<std::unique_ptr<AsyncProtocolState>> proto_;

  // -- Crash/checkpoint runtime -----------------------------------------
  bool recovery_enabled_ = false;
  RecoveryOptions recovery_opts_;
  RecoveryStats recovery_stats_;
  CheckpointStore store_;
  /// Barriers completed in the current run (the snapshot/crash-schedule
  /// superstep index); rewound to the restore step on recovery.
  std::uint64_t barrier_count_ = 0;
  /// telemetry_.supersteps length at run entry, so a staged replay can
  /// truncate back to (start + restore step) and keep per-level telemetry
  /// indices aligned with the re-executed levels.
  std::size_t telemetry_supersteps_at_run_start_ = 0;
  /// Crash flag: set (once) under crash_mu_ by the barrier completion
  /// callback or a tick crash point; observed by every machine, which
  /// throws MachineCrash. Cleared by the restore path.
  std::atomic<bool> crash_pending_{false};
  PartitionId crashed_machine_ = kInvalidPartition;
  std::uint64_t crash_superstep_ = 0;
  /// Crash events already fired this run — each fires exactly once, so the
  /// replay makes it past the crash point. Runtime state, deliberately NOT
  /// in the (const, shared) FaultPlan.
  std::mutex crash_mu_;
  std::unordered_set<std::uint64_t> consumed_crashes_;

  // -- Replica fail-stop runtime -----------------------------------------
  // halt_armed_/halt_spec_ are written outside runs (arm_halt) and cleared
  // by the barrier completion callback while every machine thread is
  // parked, so machine-thread reads (maybe_checkpoint) never race them.
  bool halt_armed_ = false;
  HaltSpec halt_spec_;
  bool halt_fired_ = false;  // set by the completion callback, read by run()
  bool halted_ = false;      // sticky: this replica is dead
  std::unique_ptr<ClusterResumePackage> resume_pending_;
};

}  // namespace cgraph
