#include "net/cluster.hpp"

#include <algorithm>
#include <utility>

#include "obs/event_tracer.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace cgraph {

void SyncBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t gen = generation_;
  if (++waiting_ == parties_) {
    if (completion_) completion_();
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lk, [&] { return generation_ != gen; });
  }
}

double ClusterTelemetry::straggler_ratio() const {
  if (supersteps.empty()) return 0.0;
  double sum = 0;
  for (const SuperstepTelemetry& s : supersteps) sum += s.straggler_ratio;
  return sum / static_cast<double>(supersteps.size());
}

MachineContext::MachineContext(Cluster& cluster, PartitionId id)
    : cluster_(cluster), id_(id), proto_(*cluster.proto_[id]) {}

PartitionId MachineContext::num_machines() const {
  return cluster_.num_machines();
}

void MachineContext::send(PartitionId to, std::uint32_t tag, Packet payload) {
  step_packets_ += 1;
  step_bytes_ += payload.size();
  if (obs::tracing_enabled()) {
    obs::TraceEvent ev;
    ev.phase = obs::TraceEventPhase::kFabricSend;
    ev.machine = static_cast<std::int32_t>(id_);
    ev.sim_seconds = clock().seconds();
    ev.a = static_cast<double>(payload.size());
    ev.b = static_cast<double>(to);
    obs::trace(ev);
  }
  cluster_.fabric_.send_superstep(id_, to, tag, std::move(payload),
                                  superstep_);
}

void MachineContext::send_async(PartitionId to, std::uint32_t tag,
                                Packet payload) {
  // Async sends are charged immediately: the sender pays injection cost.
  cluster_.clocks_[id_].charge_comm(cluster_.cost_model_, 1, payload.size());
  if (obs::tracing_enabled()) {
    obs::TraceEvent ev;
    ev.phase = obs::TraceEventPhase::kFabricAsyncSend;
    ev.machine = static_cast<std::int32_t>(id_);
    ev.sim_seconds = clock().seconds();
    ev.a = static_cast<double>(payload.size());
    ev.b = static_cast<double>(to);
    obs::trace(ev);
  }
  // Keep a copy for retransmission until the ack arrives. (A clean fabric
  // acks on the receiver's next poll, so the window stays tiny.)
  Packet copy = payload;
  const Fabric::AsyncSendResult res =
      cluster_.fabric_.send_now(id_, to, tag, std::move(payload));
  proto_.pending.push_back({to, tag, std::move(copy), res.seq, res.deposited});
}

std::vector<Envelope> MachineContext::recv_staged() {
  // Messages staged under superstep s-1 become visible in superstep s.
  CGRAPH_DCHECK(superstep_ > 0);
  return cluster_.fabric_.mailbox(id_).drain_superstep(superstep_ - 1);
}

std::vector<Envelope> MachineContext::recv_async() {
  Fabric& fabric = cluster_.fabric_;
  std::vector<PendingSend>& pending = proto_.pending;
  std::vector<Envelope> out;
  for (Envelope& env : fabric.mailbox(id_).drain_now()) {
    if (env.kind == EnvelopeKind::kAck) {
      // Ack for one of our sends: release the retransmission copy.
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].to == env.from && pending[i].seq == env.seq) {
          pending[i] = std::move(pending.back());
          pending.pop_back();
          break;
        }
      }
      continue;
    }
    // Data: ack it (even if it is a duplicate — the original ack may have
    // been lost, and an unacked sender keeps retransmitting), then apply
    // exactly once.
    fabric.send_ack(id_, env.from, env.seq);
    cluster_.clocks_[id_].charge_comm(cluster_.cost_model_, 1, 0);
    if (obs::tracing_enabled()) {
      obs::TraceEvent ev;
      ev.phase = obs::TraceEventPhase::kFabricAck;
      ev.machine = static_cast<std::int32_t>(id_);
      ev.sim_seconds = clock().seconds();
      ev.a = static_cast<double>(env.seq);
      ev.b = static_cast<double>(env.from);
      obs::trace(ev);
    }
    if (!proto_.dedup.accept(env.from, env.seq)) {
      fabric.record_dedup_suppressed(id_);
      continue;
    }
    out.push_back(std::move(env));
  }

  // Retry pump: retransmit unacked sends whose backoff timeout expired;
  // surface the ones that exhausted their budget. The timeout grows
  // exponentially per attempt with deterministic per-link jitter, so a
  // lossy link's retransmissions thin out and de-synchronize across links
  // instead of hammering in lockstep every fixed interval.
  const FaultPlan* plan = fabric.fault_plan();
  const std::uint64_t retry_seed = plan != nullptr ? plan->seed() : 0;
  for (std::size_t i = 0; i < pending.size();) {
    PendingSend& p = pending[i];
    if (++p.polls_since_send <
        retry_backoff_polls(retry_seed, id_, p.to, p.attempts)) {
      ++i;
      continue;
    }
    if (p.attempts >= kMaxAsyncAttempts) {
      if (!p.ever_deposited) {
        // Every attempt was dropped: the receiver provably never saw the
        // packet, so surfacing it as failed is safe (no double-apply and
        // no double credit release).
        fabric.record_delivery_failed(id_);
        proto_.failed.push_back({p.to, p.tag, std::move(p.payload)});
      }
      // else: the data reached the receiver at least once and only the
      // acks keep getting lost — abandon the bookkeeping entry silently.
      pending[i] = std::move(pending.back());
      pending.pop_back();
      continue;
    }
    p.polls_since_send = 0;
    ++p.attempts;
    cluster_.clocks_[id_].charge_comm(cluster_.cost_model_, 1,
                                      p.payload.size());
    if (obs::tracing_enabled()) {
      obs::TraceEvent ev;
      ev.phase = obs::TraceEventPhase::kFabricRetry;
      ev.machine = static_cast<std::int32_t>(id_);
      ev.sim_seconds = clock().seconds();
      ev.a = static_cast<double>(p.attempts);
      ev.b = static_cast<double>(p.to);
      obs::trace(ev);
    }
    p.ever_deposited =
        fabric.resend_now(id_, p.to, p.tag, p.payload, p.seq) ||
        p.ever_deposited;
    ++i;
  }
  return out;
}

std::vector<FailedSend> MachineContext::take_failed_async() {
  return std::exchange(proto_.failed, {});
}

std::uint32_t MachineContext::retry_backoff_polls(std::uint64_t seed,
                                                  PartitionId from,
                                                  PartitionId to,
                                                  std::uint32_t attempt) {
  const std::uint32_t n = attempt == 0 ? 1 : attempt;
  // Bounded exponential base: 2, 4, 8, then capped at kRetryMaxPolls.
  const std::uint32_t shift = std::min<std::uint32_t>(n - 1, 31);
  const std::uint64_t raw = std::uint64_t{kRetryBasePolls} << shift;
  const std::uint32_t base = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(raw, kRetryMaxPolls));
  // SplitMix64-style finalizer over (seed, link, attempt): stateless, so a
  // checkpoint-restored replay recomputes identical jitter — no RNG stream
  // to snapshot. The directed link matters: from->to and to->from must not
  // share a schedule or their retransmissions stay in phase.
  std::uint64_t x = seed ^ 0x9e3779b97f4a7c15ULL;
  x ^= (static_cast<std::uint64_t>(from) << 40) ^
       (static_cast<std::uint64_t>(to) << 20) ^ n;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return base + static_cast<std::uint32_t>(x % (kRetryJitterPolls + 1));
}

void MachineContext::barrier() {
  // Comm cost for this superstep's BSP sends is paid at the barrier, which
  // models overlap-free exchange (conservative, like a Pregel superstep).
  cluster_.clocks_[id_].charge_comm(cluster_.cost_model_, step_packets_,
                                    step_bytes_);
  step_packets_ = 0;
  step_bytes_ = 0;
  const double barrier_sim_t0 = clock().seconds();
  WallTimer wait_timer;
  cluster_.barrier_.arrive_and_wait();
  // Own-slot fields only; the sim-wait field of this slot is written by
  // the completion callback while every machine is parked in the barrier,
  // so the accesses never overlap.
  obs::MachineTrace& mt = cluster_.telemetry_.machines[id_];
  mt.barrier_wait_wall_seconds += wait_timer.seconds();
  mt.supersteps += 1;
  if (obs::tracing_enabled()) {
    // The completion callback advanced this machine's clock to the barrier
    // sync point while everyone was parked, so [t0, now) is the simulated
    // idle wait at this barrier.
    obs::TraceEvent ev;
    ev.phase = obs::TraceEventPhase::kBarrier;
    ev.kind = obs::TraceEventKind::kSpan;
    ev.machine = static_cast<std::int32_t>(id_);
    ev.sim_seconds = barrier_sim_t0;
    ev.sim_dur_seconds = clock().seconds() - barrier_sim_t0;
    ev.wall_dur_ns = static_cast<std::uint64_t>(wait_timer.nanos());
    ev.a = static_cast<double>(superstep_);
    obs::trace(ev);
  }
  ++superstep_;
  // Crash-stop failure: the completion callback flagged a crash at this
  // barrier, and every machine is parked at it, so every machine unwinds
  // here — no thread is left waiting at a later barrier (no deadlock).
  if (cluster_.crash_pending_.load(std::memory_order_acquire)) {
    throw MachineCrash{cluster_.crashed_machine_, cluster_.crash_superstep_};
  }
}

void MachineContext::tick_crash_point() {
  ++tick_;
  if (cluster_.recovery_enabled_) cluster_.consume_crash(id_, tick_);
  if (cluster_.crash_pending_.load(std::memory_order_acquire)) {
    throw MachineCrash{cluster_.crashed_machine_, cluster_.crash_superstep_};
  }
}

bool MachineContext::maybe_checkpoint(
    const std::function<void(PacketWriter&)>& save) {
  Cluster& cl = cluster_;
  if (!cl.recovery_enabled_) return false;
  // Staged engines advance superstep_, the async engine advances tick_;
  // either way "progress" is monotone and deterministic per machine, so
  // the interval gate fires at the same points on every replay.
  const std::uint64_t progress = superstep_ + tick_;
  const std::uint64_t interval = cl.recovery_opts_.checkpoint_interval;
  if (has_last_ckpt_) {
    if (progress - (last_ckpt_step_ + last_ckpt_tick_) < interval) {
      return false;
    }
  } else {
    // progress 0 is the body entry point — the baseline snapshot already
    // covers it, so the first checkpoint waits for the interval.
    if (progress == 0 || progress < interval) return false;
  }
  // Death-mid-checkpoint-write simulation (HaltSpec::partial_from): this
  // machine's blob for the cut at partial_step never reaches the store, so
  // the armed halt leaves a partial cut behind. Keyed on (id, progress) —
  // not on save arrival order — so the sweep is deterministic under any
  // thread interleaving. The interval gate still advances: the machine
  // believes it checkpointed.
  if (cl.halt_armed_ && cl.halt_spec_.partial_from != kInvalidPartition &&
      progress == cl.halt_spec_.partial_step &&
      id_ >= cl.halt_spec_.partial_from) {
    has_last_ckpt_ = true;
    last_ckpt_step_ = superstep_;
    last_ckpt_tick_ = tick_;
    return false;
  }
  WallTimer timer;
  PacketWriter w;
  save(w);
  MachineCheckpoint ckpt;
  ckpt.step = superstep_;
  ckpt.tick = tick_;
  ckpt.clock_ns = cluster_.clocks_[id_].nanos();
  ckpt.state = w.take();
  const std::size_t bytes = ckpt.state.size();
  cl.store_.save_machine(id_, std::move(ckpt));
  has_last_ckpt_ = true;
  last_ckpt_step_ = superstep_;
  last_ckpt_tick_ = tick_;
  {
    std::lock_guard<std::mutex> lk(cl.crash_mu_);
    cl.recovery_stats_.checkpoints_taken += 1;
    cl.recovery_stats_.checkpoint_bytes += bytes;
    cl.recovery_stats_.checkpoint_seconds += timer.seconds();
  }
  if (obs::tracing_enabled()) {
    obs::TraceEvent ev;
    ev.phase = obs::TraceEventPhase::kCheckpoint;
    ev.machine = static_cast<std::int32_t>(id_);
    ev.sim_seconds = clock().seconds();
    ev.wall_dur_ns = static_cast<std::uint64_t>(timer.nanos());
    ev.a = static_cast<double>(bytes);
    ev.b = static_cast<double>(superstep_);
    obs::trace(ev);
  }
  return true;
}

std::optional<Packet> MachineContext::restore_checkpoint() {
  Cluster& cl = cluster_;
  if (!cl.recovery_enabled_) return std::nullopt;
  // The store is wiped at run entry, so a blob present at body entry means
  // this body is being re-entered after a crash this run.
  auto blob = cl.store_.machine(id_);
  if (!blob) return std::nullopt;
  superstep_ = blob->step;
  tick_ = blob->tick;
  has_last_ckpt_ = true;
  last_ckpt_step_ = blob->step;
  last_ckpt_tick_ = blob->tick;
  if (obs::tracing_enabled()) {
    // The cluster rolled the clocks back before re-entering the body, so
    // this instant lands at the restored (checkpointed) sim time.
    obs::TraceEvent ev;
    ev.phase = obs::TraceEventPhase::kRestore;
    ev.machine = static_cast<std::int32_t>(id_);
    ev.sim_seconds = clock().seconds();
    ev.a = static_cast<double>(blob->step);
    ev.b = static_cast<double>(blob->state.size());
    obs::trace(ev);
  }
  return std::move(blob->state);
}

void MachineContext::charge_compute(std::uint64_t edges,
                                    std::uint64_t vertices) {
  cluster_.clocks_[id_].charge_compute(cluster_.cost_model_, edges, vertices);
}

ThreadPool* MachineContext::pool() { return cluster_.compute_pool(id_); }

SimClock& MachineContext::clock() { return cluster_.clocks_[id_]; }

Cluster::Cluster(PartitionId num_machines, CostModel cost_model)
    : fabric_(num_machines),
      cost_model_(cost_model),
      clocks_(num_machines),
      barrier_(num_machines, [this] {
        // BSP step end: every clock advances to the slowest machine, plus
        // the global synchronization cost. Runs on exactly one thread while
        // the rest are parked, so telemetry writes need no atomics.
        double max_ns = 0;
        for (const SimClock& c : clocks_) max_ns = std::max(max_ns, c.nanos());

        SuperstepTelemetry step;
        double sum_delta = 0;
        double max_delta = 0;
        for (std::size_t i = 0; i < clocks_.size(); ++i) {
          const double delta =
              std::max(0.0, clocks_[i].nanos() - step_start_ns_);
          sum_delta += delta;
          max_delta = std::max(max_delta, delta);
          const double wait_ns = max_ns - clocks_[i].nanos();
          telemetry_.machines[i].barrier_wait_sim_seconds += wait_ns * 1e-9;
          step.barrier_wait_sim_seconds += wait_ns * 1e-9;
        }
        const double mean_delta =
            sum_delta / static_cast<double>(clocks_.size());
        step.straggler_ratio = mean_delta > 0 ? max_delta / mean_delta : 1.0;
        telemetry_.supersteps.push_back(step);

        max_ns += cost_model_.ns_per_barrier;
        for (SimClock& c : clocks_) c.advance_to(max_ns);
        step_start_ns_ = max_ns;

        // Recovery hook: snapshot cluster state for this superstep and
        // evaluate the crash schedule. Still on the single completion
        // thread, with every machine parked — a perfect consistent cut.
        on_barrier_complete();
      }) {
  CGRAPH_CHECK(num_machines > 0);
  telemetry_.machines.resize(num_machines);
  compute_threads_ = default_compute_threads();
  proto_.resize(num_machines);
  for (auto& p : proto_) p = std::make_unique<AsyncProtocolState>();
}

void Cluster::set_recovery(RecoveryOptions opts) {
  recovery_enabled_ = true;
  if (opts.checkpoint_interval == 0) opts.checkpoint_interval = 1;
  recovery_opts_ = std::move(opts);
}

void Cluster::on_barrier_complete() {
  ++barrier_count_;
  if (recovery_enabled_) {
    ClusterSnapshot snap;
    snap.links = fabric_.snapshot_links();
    snap.clock_ns.reserve(clocks_.size());
    for (const SimClock& c : clocks_) snap.clock_ns.push_back(c.nanos());
    snap.step_start_ns = step_start_ns_;
    store_.save_cluster_snapshot(barrier_count_, std::move(snap));
  }
  if (crash_pending_.load(std::memory_order_relaxed)) return;
  // Replica fail-stop: reuse the crash unwind — every machine is parked at
  // this barrier, so flagging crash_pending_ makes all of them throw
  // MachineCrash here; run() then sees halt_fired_ and escalates to
  // ReplicaDead instead of restoring.
  if (halt_armed_ && barrier_count_ >= halt_spec_.at_superstep) {
    halt_armed_ = false;
    halt_fired_ = true;
    crashed_machine_ = kInvalidPartition;
    crash_superstep_ = barrier_count_;
    crash_pending_.store(true, std::memory_order_release);
    return;
  }
  if (!recovery_enabled_) return;
  for (PartitionId m = 0; m < num_machines(); ++m) {
    if (consume_crash(m, barrier_count_)) break;
  }
}

bool Cluster::consume_crash(PartitionId machine, std::uint64_t step) {
  const FaultPlan* plan = fabric_.fault_plan();
  if (plan == nullptr || !plan->has_crash_faults()) return false;
  if (!plan->crash_decision(machine, step)) return false;
  std::lock_guard<std::mutex> lk(crash_mu_);
  const std::uint64_t key = (static_cast<std::uint64_t>(machine) << 32) | step;
  // Each crash event fires exactly once per run, so the replay after the
  // rollback makes it past the crash point instead of dying there forever.
  if (!consumed_crashes_.insert(key).second) return false;
  crashed_machine_ = machine;
  crash_superstep_ = step;
  crash_pending_.store(true, std::memory_order_release);
  return true;
}

void Cluster::set_compute_threads(std::size_t threads) {
  const std::size_t old = resolve_compute_threads(compute_threads_);
  compute_threads_ = threads;
  if (resolve_compute_threads(threads) != old) {
    pools_.clear();  // rebuilt lazily by the next run()
  }
}

ThreadPool* Cluster::compute_pool(PartitionId id) {
  if (id >= pools_.size()) return nullptr;
  return pools_[id].get();
}

void Cluster::ensure_compute_pools() {
  const std::size_t resolved = resolve_compute_threads(compute_threads_);
  if (resolved <= 1) {
    pools_.clear();
    return;
  }
  if (!pools_.empty()) return;
  pools_.resize(num_machines());
  for (auto& p : pools_) {
    // `resolved` counts the machine thread itself; workers are the rest.
    p = std::make_unique<ThreadPool>(resolved - 1);
  }
}

void Cluster::run(const std::function<void(MachineContext&)>& body) {
  run(body, RunHooks{});
}

void Cluster::run(const std::function<void(MachineContext&)>& body,
                  const RunHooks& hooks) {
  CGRAPH_CHECK_MSG(!halted_,
                   "this replica is halted (ReplicaDead); it cannot run again");
  ensure_compute_pools();
  begin_run();
  for (std::uint32_t attempt = 0;; ++attempt) {
    CGRAPH_CHECK_MSG(attempt < kMaxRecoveryAttempts,
                     "crash recovery did not converge (kMaxRecoveryAttempts)");
    if (!run_once(body)) return;
    if (halt_fired_) {
      // Whole-replica fail-stop: do NOT restore — the replica is dead. The
      // crash flag is cleared so export_resume_package() callers see a
      // quiescent store, and halted_ makes the death sticky.
      halt_fired_ = false;
      halted_ = true;
      crash_pending_.store(false, std::memory_order_release);
      throw ReplicaDead{crash_superstep_};
    }
    restore_from_checkpoint(hooks);
  }
}

void Cluster::arm_halt(HaltSpec spec) {
  CGRAPH_CHECK_MSG(!halted_, "cannot arm a halt on an already-dead replica");
  if (spec.at_superstep == 0) spec.at_superstep = 1;
  halt_spec_ = spec;
  halt_armed_ = true;
}

ClusterResumePackage Cluster::export_resume_package() const {
  ClusterResumePackage pkg;
  pkg.machines = num_machines();
  pkg.step = store_.latest_complete_step();
  CheckpointStore::Contents c = store_.export_contents();
  // Discard the partial tail: blobs/snapshots newer than the last complete
  // cut belong to a checkpoint write the halt interrupted. A survivor must
  // never see them — restoring a mixed-step cut would not be a consistent
  // state.
  for (auto& history : c.machines) {
    history.erase(history.upper_bound(pkg.step), history.end());
  }
  c.snapshots.erase(c.snapshots.upper_bound(pkg.step), c.snapshots.end());
  if (pkg.step == 0) {
    pkg.snapshot = c.baseline;
  } else {
    const auto it = c.snapshots.find(pkg.step);
    CGRAPH_CHECK_MSG(it != c.snapshots.end(),
                     "missing cluster snapshot at the complete cut");
    pkg.snapshot = it->second;
  }
  pkg.store = std::move(c);
  return pkg;
}

void Cluster::arm_resume(ClusterResumePackage pkg) {
  CGRAPH_CHECK_MSG(!halted_, "a dead replica cannot adopt work");
  CGRAPH_CHECK_MSG(recovery_enabled_,
                   "arm_resume requires recovery (the adopted blobs are "
                   "picked up via restore_checkpoint)");
  CGRAPH_CHECK_MSG(pkg.machines == num_machines(),
                   "resume package machine count mismatch");
  resume_pending_ = std::make_unique<ClusterResumePackage>(std::move(pkg));
}

void Cluster::begin_run() {
  barrier_count_ = 0;
  crash_pending_.store(false, std::memory_order_relaxed);
  crashed_machine_ = kInvalidPartition;
  crash_superstep_ = 0;
  {
    std::lock_guard<std::mutex> lk(crash_mu_);
    consumed_crashes_.clear();
  }
  telemetry_supersteps_at_run_start_ = telemetry_.supersteps.size();
  if (!recovery_enabled_) return;
  if (resume_pending_ != nullptr) {
    // Adoption: install the dead donor's store (partial tail already
    // discarded at export) and roll this cluster forward to the donor's
    // last complete cut. Machine bodies find the blobs via
    // restore_checkpoint() and resume mid-run; this replica's own FaultPlan
    // governs the remainder, which is safe because query answers are
    // fault-plan independent (the chaos invariant).
    ClusterResumePackage pkg = std::move(*resume_pending_);
    resume_pending_.reset();
    store_.import_contents(std::move(pkg.store));
    store_.set_dir(recovery_opts_.checkpoint_dir);
    if (!pkg.snapshot.clock_ns.empty()) {
      fabric_.restore_links(pkg.snapshot.links);
      for (std::size_t i = 0; i < clocks_.size(); ++i) {
        clocks_[i].set_nanos(pkg.snapshot.clock_ns[i]);
      }
      step_start_ns_ = pkg.snapshot.step_start_ns;
    }
    barrier_count_ = pkg.step;
    // Pre-cut supersteps ran on the donor; pad this run's telemetry so
    // per-level indices keep lining up with superstep numbers.
    telemetry_.supersteps.resize(telemetry_supersteps_at_run_start_ +
                                 pkg.step);
    return;
  }
  store_.reset(num_machines());
  store_.set_dir(recovery_opts_.checkpoint_dir);
  ClusterSnapshot base;
  base.links = fabric_.snapshot_links();
  base.clock_ns.reserve(clocks_.size());
  for (const SimClock& c : clocks_) base.clock_ns.push_back(c.nanos());
  base.step_start_ns = step_start_ns_;
  store_.set_baseline(std::move(base));
}

bool Cluster::run_once(const std::function<void(MachineContext&)>& body) {
  const PartitionId n = num_machines();
  if (n == 1) {
    set_thread_machine(0);
    MachineContext ctx(*this, 0);
    try {
      body(ctx);
    } catch (const MachineCrash&) {
    }
    set_thread_machine(-1);
    return crash_pending_.load(std::memory_order_acquire);
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (PartitionId i = 0; i < n; ++i) {
    threads.emplace_back([this, &body, i] {
      set_thread_machine(static_cast<int>(i));
      MachineContext ctx(*this, i);
      try {
        body(ctx);
      } catch (const MachineCrash&) {
        // The crash flag is already set; sibling machines unwind at their
        // own barrier / tick crash point and run() restores below.
      }
    });
  }
  for (auto& t : threads) t.join();
  return crash_pending_.load(std::memory_order_acquire);
}

void Cluster::restore_from_checkpoint(const RunHooks& hooks) {
  WallTimer timer;
  recovery_stats_.crashes += 1;
  if (hooks.link_replay) {
    // Staged (BSP) engines: symmetric rollback to the latest common
    // checkpointed superstep S. Restoring the link sequence/attempt
    // counters alongside the machines' blobs means the replay re-issues
    // identical sequence numbers and identical fault decisions — the
    // replay is bit-exact, so restoring every machine is observationally
    // equivalent to restoring only the dead one (see DESIGN.md).
    const std::uint64_t step = store_.latest_common_step();
    ClusterSnapshot snap;
    if (step == 0) {
      snap = store_.baseline();
    } else {
      auto stored = store_.cluster_snapshot(step);
      CGRAPH_CHECK_MSG(stored.has_value(),
                       "missing cluster snapshot for restore step");
      snap = std::move(*stored);
    }
    fabric_.restore_links(snap.links);
    for (std::size_t i = 0; i < clocks_.size(); ++i) {
      clocks_[i].set_nanos(snap.clock_ns[i]);
    }
    step_start_ns_ = snap.step_start_ns;
    barrier_count_ = step;
    // Keep per-superstep telemetry aligned with the re-executed steps
    // (replayed barriers re-push their entries).
    telemetry_.supersteps.resize(telemetry_supersteps_at_run_start_ + step);
    recovery_stats_.supersteps_replayed +=
        crash_superstep_ > step ? crash_superstep_ - step : 1;
  } else {
    // Async engine: poll ticks are wall-schedule dependent, so there is no
    // bit-exact replay. Start delivery state fresh (new sequence numbers
    // against empty dedup windows are trivially safe) and let each machine
    // restore its own blob independently; correctness comes from monotone
    // re-relaxation, not replay.
    fabric_.reset_delivery_state();
    const ClusterSnapshot base = store_.baseline();
    for (PartitionId i = 0; i < num_machines(); ++i) {
      const auto blob = store_.machine(i);
      clocks_[i].set_nanos(blob ? blob->clock_ns : base.clock_ns[i]);
    }
    step_start_ns_ = base.step_start_ns;
    barrier_count_ = 0;
    telemetry_.supersteps.resize(telemetry_supersteps_at_run_start_);
    recovery_stats_.supersteps_replayed += 1;
  }
  reset_protocol_state();
  crash_pending_.store(false, std::memory_order_release);
  if (hooks.on_restore) hooks.on_restore();
  recovery_stats_.restore_seconds += timer.seconds();
}

double Cluster::sim_seconds() const {
  double max_ns = 0;
  for (const SimClock& c : clocks_) max_ns = std::max(max_ns, c.nanos());
  return max_ns * 1e-9;
}

void Cluster::reset_telemetry() {
  for (auto& m : telemetry_.machines) m = obs::MachineTrace{};
  telemetry_.supersteps.clear();
}

std::vector<obs::MachineTrace> Cluster::machine_traces() const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::vector<obs::MachineTrace> traces = telemetry_.machines;
  for (PartitionId m = 0; m < traces.size(); ++m) {
    obs::MachineTrace& mt = traces[m];
    mt.machine = m;
    const TrafficCounters& tc = fabric_.sent_counters(m);
    mt.staged_packets = load(tc.staged_packets);
    mt.staged_bytes = load(tc.staged_bytes);
    mt.async_packets = load(tc.async_packets);
    mt.async_bytes = load(tc.async_bytes);
    mt.delivered_packets = load(tc.delivered_packets);
    mt.dropped_packets = load(tc.dropped_packets);
    mt.duplicated_packets = load(tc.duplicated_packets);
    mt.reordered_packets = load(tc.reordered_packets);
    mt.delayed_packets = load(tc.delayed_packets);
    mt.retried_packets = load(tc.retried_packets);
    mt.ack_packets = load(tc.ack_packets);
    mt.delivery_failed_packets = load(tc.delivery_failed_packets);
    mt.dedup_suppressed_packets = load(tc.dedup_suppressed_packets);
  }
  return traces;
}

void Cluster::publish_metrics(obs::MetricsRegistry& reg) const {
  obs::publish_machine_traces(reg, machine_traces());
  if (!telemetry_.supersteps.empty()) {
    reg.gauge("cgraph_straggler_ratio",
              "Mean max/mean machine step time of the latest run")
        .set(telemetry_.straggler_ratio());
  }
  publish_recovery_metrics(reg);
}

void Cluster::publish_recovery_metrics(obs::MetricsRegistry& reg) const {
  if (!recovery_enabled_) return;
  const RecoveryStats& r = recovery_stats_;
  reg.counter("cgraph_recovery_crashes_total",
              "Crash-stop machine failures injected by the fault plan")
      .inc(static_cast<double>(r.crashes));
  reg.counter("cgraph_recovery_supersteps_replayed_total",
              "Supersteps re-executed while recovering from crashes")
      .inc(static_cast<double>(r.supersteps_replayed));
  reg.counter("cgraph_recovery_checkpoints_total",
              "Machine checkpoints taken at superstep barriers")
      .inc(static_cast<double>(r.checkpoints_taken));
  reg.counter("cgraph_recovery_checkpoint_bytes_total",
              "Serialized machine state bytes checkpointed")
      .inc(static_cast<double>(r.checkpoint_bytes));
  reg.counter("cgraph_recovery_checkpoint_wall_seconds_total",
              "Host wall-clock spent serializing checkpoints")
      .inc(r.checkpoint_seconds);
  reg.counter("cgraph_recovery_restore_wall_seconds_total",
              "Host wall-clock spent restoring from checkpoints")
      .inc(r.restore_seconds);
  reg.counter("cgraph_recovery_queries_reexecuted_total",
              "Queries re-executed because a crash touched their batch")
      .inc(static_cast<double>(r.queries_reexecuted));
}

}  // namespace cgraph
