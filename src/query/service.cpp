#include "query/service.hpp"

#include <algorithm>
#include <cmath>

#include "obs/event_tracer.hpp"
#include "query/replica_router.hpp"
#include "util/assert.hpp"

namespace cgraph {

const char* to_string(ServiceOutcome outcome) {
  switch (outcome) {
    case ServiceOutcome::kShed:
      return "shed";
    case ServiceOutcome::kExpired:
      return "expired";
    case ServiceOutcome::kCompleted:
      return "completed";
    case ServiceOutcome::kIndexAnswered:
      return "index_answered";
  }
  return "unknown";
}

namespace {

struct PendingQuery {
  std::size_t submission = 0;  // index into the arrival stream
  double arrival = 0;
};

/// The admission/execution pipeline, run on the caller thread: a sealed
/// batch executes in place before admission consumes the next arrival.
/// Every decision is a pure function of arrival times and simulated batch
/// makespans, so executing in place changes nothing admission observes.
class ServicePipeline {
 public:
  ServicePipeline(Cluster& cluster, const std::vector<SubgraphShard>& shards,
                  const RangePartition& partition,
                  std::span<const TimedQuery> arrivals,
                  const ServiceOptions& opts, obs::MetricsRegistry& registry,
                  ServiceRunResult& result)
      : arrivals_(arrivals),
        shards_(shards),
        opts_(opts),
        executor_(cluster, shards, partition, opts.scheduler),
        result_(result),
        queue_depth_current_(registry.gauge(
            "cgraph_service_queue_depth",
            "Admitted-but-unstarted queries in the service queue",
            {{"stat", "current"}})),
        queue_depth_high_water_(registry.gauge(
            "cgraph_service_queue_depth",
            "Admitted-but-unstarted queries in the service queue",
            {{"stat", "high_water"}})) {
    result_.queries.resize(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      ServiceQueryRecord& r = result_.queries[i];
      r.id = arrivals[i].query.id;
      r.arrival_sim_seconds = arrivals[i].arrival_sim_seconds;
      r.outcome = ServiceOutcome::kShed;  // overwritten once admitted
      r.target = arrivals[i].query.target;
    }
    result_.telemetry.effective_policy = to_string(executor_.policy());
  }

  void run() {
    admit_all();
    finalize();
  }

 private:
  // ---- admission ----

  void admit_all() {
    double last_arrival = 0;
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const double t = arrivals_[i].arrival_sim_seconds;
      CGRAPH_CHECK_MSG(t >= last_arrival,
                       "arrival stream must be nondecreasing");
      last_arrival = t;

      // Max-linger seal: the pending batch closed before this arrival.
      if (!pending_.empty() && opts_.linger_seconds > 0 &&
          pending_.front().arrival + opts_.linger_seconds <= t) {
        seal(pending_.front().arrival + opts_.linger_seconds);
      }

      // Index bypass lane: a point query the index can conclude is
      // answered here — it never occupies a queue slot, so it can neither
      // be shed nor delay a batch seal. The probe is a pure function of
      // immutable index state, keeping the admission timeline
      // deterministic.
      const KHopQuery& arrival_query = arrivals_[i].query;
      if (opts_.index != nullptr && arrival_query.is_point()) {
        // Epoch handshake (DESIGN.md §15): tell the index how far the
        // shards have advanced before probing. A superseded index then
        // answers kUnknown for every conclusive verdict except s == t,
        // routing the query to the traversal fallback against live shards.
        opts_.index->observe_epoch(current_epoch(
            std::span<const SubgraphShard>(shards_.data(), shards_.size())));
        const IndexVerdict verdict = opts_.index->query(
            arrival_query.source, arrival_query.target, arrival_query.k);
        const double probe_sim = opts_.index->probe_sim_seconds();
        if (obs::tracing_enabled()) {
          obs::TraceEvent ev;
          ev.phase = obs::TraceEventPhase::kIndexProbe;
          ev.kind = obs::TraceEventKind::kInstant;
          ev.machine = obs::TraceEvent::kAdmissionTrack;
          ev.query = static_cast<std::int64_t>(arrival_query.id);
          ev.sim_seconds = t;
          ev.a = verdict == IndexVerdict::kUnreachable ? 0.0
                 : verdict == IndexVerdict::kReachable ? 1.0
                                                       : 2.0;
          ev.b = probe_sim;
          obs::trace(ev);
        }
        if (verdict != IndexVerdict::kUnknown) {
          ServiceQueryRecord& r = result_.queries[i];
          r.outcome = ServiceOutcome::kIndexAnswered;
          r.index_verdict = verdict;
          r.reachable = verdict == IndexVerdict::kReachable ? 1 : 0;
          r.queue_wait_sim_seconds = 0;
          r.execute_sim_seconds = probe_sim;
          r.response_sim_seconds = probe_sim;
          if (opts_.router != nullptr) {
            // Attribution only: the bypass lane reads shared immutable
            // index state, so routing the hit to a healthy replica never
            // touches the execution timeline (stays deterministic).
            const std::size_t pr = opts_.router->route_point(
                static_cast<std::uint64_t>(arrival_query.id));
            if (obs::tracing_enabled()) {
              obs::TraceEvent rev;
              rev.phase = obs::TraceEventPhase::kReplicaRoute;
              rev.kind = obs::TraceEventKind::kInstant;
              rev.machine = obs::TraceEvent::kAdmissionTrack;
              rev.query = static_cast<std::int64_t>(arrival_query.id);
              rev.sim_seconds = t;
              rev.a = static_cast<double>(pr);
              rev.b = static_cast<double>(
                  opts_.router->owner_partition(arrival_query.source));
              obs::trace(rev);
            }
          }
          continue;
        }
        ++result_.stats.index_misses;
      }

      // Backpressure: shed when the admitted-but-unstarted population at
      // time t has reached the cap.
      const std::size_t occupancy = pending_.size() + waiting_admitted_at(t);
      if (opts_.queue_cap > 0 && occupancy >= opts_.queue_cap) {
        queue_depth_current_.set(static_cast<double>(occupancy));
        if (obs::tracing_enabled()) {
          obs::TraceEvent ev;
          ev.phase = obs::TraceEventPhase::kQueryShed;
          ev.kind = obs::TraceEventKind::kInstant;
          ev.machine = obs::TraceEvent::kAdmissionTrack;
          ev.query = static_cast<std::int64_t>(arrivals_[i].query.id);
          ev.sim_seconds = t;
          ev.a = static_cast<double>(occupancy);
          obs::trace(ev);
        }
        continue;  // record already says kShed
      }
      pending_.push_back({i, t});
      result_.stats.peak_queue_depth =
          std::max(result_.stats.peak_queue_depth, occupancy + 1);
      queue_depth_current_.set(static_cast<double>(occupancy + 1));
      queue_depth_high_water_.set(
          static_cast<double>(result_.stats.peak_queue_depth));

      if (pending_.size() >= opts_.scheduler.batch_width ||
          opts_.linger_seconds <= 0) {
        seal(t);
      }
    }
    // Tail seal: a finite linger closes the window at oldest + linger;
    // an infinite one has no timer, so the end of the stream closes it.
    if (!pending_.empty()) {
      seal(std::isfinite(opts_.linger_seconds)
               ? pending_.front().arrival + opts_.linger_seconds
               : last_arrival);
    }
  }

  /// Close the pending window into the next batch and execute it in place.
  void seal(double seal_time) {
    const std::size_t index = result_.batches.size();
    std::vector<PendingQuery> members = std::move(pending_);
    pending_.clear();
    if (obs::tracing_enabled()) {
      obs::TraceEvent ev;
      ev.phase = obs::TraceEventPhase::kBatchSeal;
      ev.kind = obs::TraceEventKind::kInstant;
      ev.machine = obs::TraceEvent::kAdmissionTrack;
      ev.batch = static_cast<std::int64_t>(index);
      ev.sim_seconds = seal_time;
      ev.a = static_cast<double>(members.size());
      obs::trace(ev);
    }
    if (executor_.policy() == BatchPolicy::kDegreeSorted) {
      // Degree-sorted within the admitted window; stable so equal-degree
      // queries keep submission order, and a stream that is already sorted
      // (run_concurrent_queries) keeps its order.
      const auto& degree_of = opts_.scheduler.degree_of;
      std::stable_sort(members.begin(), members.end(),
                       [&](const PendingQuery& a, const PendingQuery& b) {
                         return degree_of(arrivals_[a.submission].query.source) >
                                degree_of(arrivals_[b.submission].query.source);
                       });
    }
    execute(index, seal_time, members);
  }

  /// Queries sealed into batches that have not started executing by sim
  /// time t. Every sealed batch has already run, and batch starts are
  /// monotone (start_b >= finish_{b-1}), so the started batches are a
  /// prefix that only grows as the arrival times do.
  [[nodiscard]] std::size_t waiting_admitted_at(double t) {
    const std::vector<ServiceBatchRecord>& batches = result_.batches;
    while (started_ < batches.size() &&
           batches[started_].start_sim_seconds <= t) {
      unstarted_ -= batches[started_].admitted;
      ++started_;
    }
    return unstarted_;
  }

  // ---- execution ----

  void execute(std::size_t index, double seal_time,
               std::span<const PendingQuery> members) {
    const double start = std::max(seal_time, server_free_);

    ServiceBatchRecord rec;
    rec.index = index;
    rec.seal_sim_seconds = seal_time;
    rec.start_sim_seconds = start;
    rec.admitted = members.size();

    // Deadline shedding at the head of the line: queries whose deadline
    // has already passed are dropped before the engine runs.
    std::vector<PendingQuery> live;
    live.reserve(members.size());
    for (const PendingQuery& pq : members) {
      const double wait = start - pq.arrival;
      if (opts_.deadline_seconds > 0 && wait > opts_.deadline_seconds) {
        ServiceQueryRecord& r = result_.queries[pq.submission];
        r.outcome = ServiceOutcome::kExpired;
        r.batch_index = index;
        r.queue_wait_sim_seconds = wait;
        if (obs::tracing_enabled()) {
          obs::TraceEvent ev;
          ev.phase = obs::TraceEventPhase::kQueryExpired;
          ev.kind = obs::TraceEventKind::kInstant;
          ev.machine = obs::TraceEvent::kExecutorTrack;
          ev.query = static_cast<std::int64_t>(r.id);
          ev.batch = static_cast<std::int64_t>(index);
          ev.sim_seconds = start;
          ev.a = wait;
          obs::trace(ev);
        }
      } else {
        live.push_back(pq);
      }
    }
    rec.expired = members.size() - live.size();

    double finish = start;
    if (!live.empty()) {
      ReplicaRouter* router = opts_.router;
      std::vector<KHopQuery> batch;
      // Point-query fallbacks (index probe returned unknown) are resolved
      // from the batch's final visited plane: target row, this query's bit
      // column. Only the bit-parallel engine exposes a plane.
      bool want_visited = false;
      const auto rebuild_batch = [&] {
        batch.clear();
        batch.reserve(live.size());
        for (const PendingQuery& pq : live) {
          batch.push_back(arrivals_[pq.submission].query);
        }
        want_visited = false;
        if (opts_.scheduler.use_bit_parallel) {
          for (const KHopQuery& q : batch) {
            if (q.is_point()) {
              want_visited = true;
              break;
            }
          }
        }
      };
      rebuild_batch();

      // Engine events carry batch-relative sim times; the batch context
      // re-bases them onto the service's absolute sim axis and stamps the
      // batch id. One batch executes at a time, on any replica, so one
      // global context is race-free.
      obs::EventTracer* tracer = obs::EventTracer::current();
      QueryBitRows visited_plane;
      BatchExecutor::Outcome out;
      // Failover penalty on the batch's sim timeline: sim time burnt on
      // attempts whose replica died, minus the prefix the survivor adopted
      // from the last complete checkpoint cut. An attempt's events map to
      // absolute time `start + wasted + <replica-relative sim>` — after an
      // adoption the survivor's clocks resume at the cut, so the mapping
      // stays continuous across the handoff.
      double wasted = 0;
      std::size_t last_dead = ServiceBatchRecord::kNoReplica;
      std::size_t last_survivor = ServiceBatchRecord::kNoReplica;

      if (router == nullptr) {
        if (tracer != nullptr) {
          tracer->set_batch_context(static_cast<std::int64_t>(index),
                                    start);
        }
        out = executor_.execute(batch,
                                want_visited ? &visited_plane : nullptr);
        if (tracer != nullptr) tracer->clear_batch_context();
      } else {
        const auto trace_route = [&](std::size_t replica) {
          if (!obs::tracing_enabled()) return;
          obs::TraceEvent ev;
          ev.phase = obs::TraceEventPhase::kReplicaRoute;
          ev.kind = obs::TraceEventKind::kInstant;
          ev.machine = obs::TraceEvent::kExecutorTrack;
          ev.batch = static_cast<std::int64_t>(index);
          ev.sim_seconds = start + wasted;
          ev.a = static_cast<double>(replica);
          ev.b = static_cast<double>(
              router->owner_partition(batch.front().source));
          obs::trace(ev);
        };
        // Failure-detector sweep at dispatch: a replica killed during an
        // earlier batch shows up as heartbeat misses here, before routing.
        for (const ReplicaRouter::HeartbeatMiss& miss :
             router->poll_heartbeats()) {
          if (!obs::tracing_enabled()) break;
          obs::TraceEvent ev;
          ev.phase = obs::TraceEventPhase::kHeartbeatMiss;
          ev.kind = obs::TraceEventKind::kInstant;
          ev.machine = obs::TraceEvent::kExecutorTrack;
          ev.batch = static_cast<std::int64_t>(index);
          ev.sim_seconds = start;
          ev.a = static_cast<double>(miss.replica);
          ev.b = static_cast<double>(miss.consecutive);
          obs::trace(ev);
        }
        std::size_t r = router->route_batch(
            static_cast<std::uint64_t>(index), batch.front().source);
        trace_route(r);
        for (;;) {
          if (tracer != nullptr) {
            tracer->set_batch_context(static_cast<std::int64_t>(index),
                                      start + wasted);
          }
          try {
            out = router->executor(r).execute(
                batch, want_visited ? &visited_plane : nullptr);
            if (tracer != nullptr) tracer->clear_batch_context();
            router->on_batch_success(r);
            rec.replica = r;
            break;
          } catch (const ReplicaDead&) {
            if (tracer != nullptr) tracer->clear_batch_context();
            ReplicaRouter::FailoverPlan plan = router->plan_failover(r);
            ++rec.failovers;
            last_dead = plan.dead;
            last_survivor = plan.survivor;
            const double t_fail = start + wasted + plan.dead_sim_seconds;
            if (obs::tracing_enabled()) {
              obs::TraceEvent ev;
              ev.phase = obs::TraceEventPhase::kReplicaFailover;
              ev.kind = obs::TraceEventKind::kInstant;
              ev.machine = obs::TraceEvent::kExecutorTrack;
              ev.batch = static_cast<std::int64_t>(index);
              ev.sim_seconds = t_fail;
              ev.a = static_cast<double>(plan.dead);
              ev.b = static_cast<double>(plan.survivor);
              obs::trace(ev);
            }
            // Re-dispatch gate: a member whose deadline has passed by the
            // failover instant, or whose failover budget is spent, is
            // never re-executed on another replica — it is counted shed
            // (batch_index set marks it a failover shed, not an admission
            // shed). Keeps retries bounded under cascading deaths.
            const std::uint32_t budget =
                opts_.failover_budget > 0
                    ? opts_.failover_budget
                    : static_cast<std::uint32_t>(router->num_replicas() - 1);
            std::vector<PendingQuery> keep;
            keep.reserve(live.size());
            for (const PendingQuery& pq : live) {
              ServiceQueryRecord& qr = result_.queries[pq.submission];
              const bool over_deadline =
                  opts_.deadline_seconds > 0 &&
                  t_fail - pq.arrival > opts_.deadline_seconds;
              if (over_deadline || qr.failover_attempts >= budget) {
                qr.outcome = ServiceOutcome::kShed;
                qr.batch_index = index;
                qr.queue_wait_sim_seconds = t_fail - pq.arrival;
                ++rec.failover_shed;
                if (obs::tracing_enabled()) {
                  obs::TraceEvent ev;
                  ev.phase = obs::TraceEventPhase::kQueryShed;
                  ev.kind = obs::TraceEventKind::kInstant;
                  ev.machine = obs::TraceEvent::kExecutorTrack;
                  ev.query = static_cast<std::int64_t>(qr.id);
                  ev.batch = static_cast<std::int64_t>(index);
                  ev.sim_seconds = t_fail;
                  ev.a = t_fail - pq.arrival;
                  obs::trace(ev);
                }
              } else {
                ++qr.failover_attempts;
                keep.push_back(pq);
              }
            }
            const bool membership_changed = keep.size() != live.size();
            live = std::move(keep);
            // Adoption requires the survivor to resume the *same* batch:
            // checkpoint blobs encode per-query planes for the sealed
            // membership, so a shrunk batch must re-execute from scratch.
            if (plan.can_adopt && !membership_changed && plan.cut_step > 0) {
              router->adopt(plan);
              wasted += plan.dead_sim_seconds - plan.cut_sim_seconds;
            } else {
              wasted += plan.dead_sim_seconds;
            }
            if (live.empty()) break;  // everything shed at failover
            if (membership_changed) rebuild_batch();
            r = plan.survivor;
            trace_route(r);
          }
        }
      }

      // live emptied mid-failover <=> nothing executed: the batch burnt
      // the dead attempts' time but produced no answers.
      const double makespan =
          live.empty() ? wasted
                       : out.result.sim_seconds * out.slowdown + wasted;
      finish = start + makespan;
      rec.makespan_sim_seconds = makespan;
      if (!live.empty()) rec.edges_scanned = out.result.edges_scanned;

      if (obs::tracing_enabled() && !live.empty()) {
        obs::TraceEvent ev;
        ev.phase = obs::TraceEventPhase::kBatchExecute;
        ev.kind = obs::TraceEventKind::kSpan;
        ev.machine = obs::TraceEvent::kExecutorTrack;
        ev.batch = static_cast<std::int64_t>(index);
        ev.sim_seconds = start;
        ev.sim_dur_seconds = makespan;
        ev.wall_dur_ns = static_cast<std::uint64_t>(
            out.result.wall_seconds * 1e9);
        ev.a = static_cast<double>(live.size());
        obs::trace(ev);
      }

      for (std::size_t i = 0; i < live.size(); ++i) {
        rec.executed.push_back(batch[i].id);
        ServiceQueryRecord& r = result_.queries[live[i].submission];
        r.outcome = ServiceOutcome::kCompleted;
        r.batch_index = index;
        r.queue_wait_sim_seconds = start - live[i].arrival;
        // Answers are released when the batch commits, so the failover
        // penalty is borne by every member — including queries that had
        // already completed on the dead replica before the adopted cut.
        r.execute_sim_seconds =
            out.result.completion_sim_seconds[i] * out.slowdown + wasted;
        r.response_sim_seconds =
            r.queue_wait_sim_seconds + r.execute_sim_seconds;
        r.execute_wall_seconds = out.result.completion_wall_seconds[i];
        r.visited = out.result.visited[i];
        r.levels = out.result.levels[i];
        if (batch[i].is_point() && want_visited) {
          r.reachable =
              visited_plane.test(batch[i].target, i) ? 1 : 0;
          if (opts_.index != nullptr) ++result_.stats.index_fallbacks;
        }

        obs::QueryTrace qt;
        qt.id = batch[i].id;
        qt.batch_index = index;
        qt.levels = r.levels;
        qt.visited = r.visited;
        qt.wait_sim_seconds = r.queue_wait_sim_seconds;
        qt.execute_sim_seconds = r.execute_sim_seconds;
        result_.telemetry.queries.push_back(qt);

        if (obs::tracing_enabled()) {
          const double arrival = live[i].arrival;
          obs::TraceEvent wait_ev;
          wait_ev.phase = obs::TraceEventPhase::kAdmissionWait;
          wait_ev.kind = obs::TraceEventKind::kSpan;
          wait_ev.machine = obs::TraceEvent::kAdmissionTrack;
          wait_ev.query = static_cast<std::int64_t>(r.id);
          wait_ev.batch = static_cast<std::int64_t>(index);
          wait_ev.sim_seconds = arrival;
          wait_ev.sim_dur_seconds = r.queue_wait_sim_seconds;
          obs::trace(wait_ev);
          obs::TraceEvent q_ev;
          q_ev.phase = obs::TraceEventPhase::kQuery;
          q_ev.kind = obs::TraceEventKind::kSpan;
          q_ev.machine = obs::TraceEvent::kExecutorTrack;
          q_ev.query = static_cast<std::int64_t>(r.id);
          q_ev.batch = static_cast<std::int64_t>(index);
          q_ev.sim_seconds = arrival;
          q_ev.sim_dur_seconds = r.response_sim_seconds;
          q_ev.a = static_cast<double>(r.visited);
          q_ev.b = static_cast<double>(r.levels);
          obs::trace(q_ev);
          obs::TraceEvent done_ev;
          done_ev.phase = obs::TraceEventPhase::kQueryComplete;
          done_ev.kind = obs::TraceEventKind::kInstant;
          done_ev.machine = obs::TraceEvent::kExecutorTrack;
          done_ev.query = static_cast<std::int64_t>(r.id);
          done_ev.batch = static_cast<std::int64_t>(index);
          done_ev.sim_seconds = arrival + r.response_sim_seconds;
          done_ev.a = static_cast<double>(r.visited);
          done_ev.b = static_cast<double>(r.levels);
          obs::trace(done_ev);
          if (out.reexecuted) {
            obs::TraceEvent rx;
            rx.phase = obs::TraceEventPhase::kQueryReexecuted;
            rx.kind = obs::TraceEventKind::kInstant;
            rx.machine = obs::TraceEvent::kExecutorTrack;
            rx.query = static_cast<std::int64_t>(r.id);
            rx.batch = static_cast<std::int64_t>(index);
            rx.sim_seconds = start;
            obs::trace(rx);
          }
          if (r.failover_attempts > 0) {
            obs::TraceEvent fo;
            fo.phase = obs::TraceEventPhase::kQueryFailedOver;
            fo.kind = obs::TraceEventKind::kInstant;
            fo.machine = obs::TraceEvent::kExecutorTrack;
            fo.query = static_cast<std::int64_t>(r.id);
            fo.batch = static_cast<std::int64_t>(index);
            fo.sim_seconds = live[i].arrival + r.response_sim_seconds;
            fo.a = static_cast<double>(last_dead);
            fo.b = static_cast<double>(last_survivor);
            obs::trace(fo);
          }
        }
      }

      if (!live.empty()) {
        obs::BatchTrace bt = std::move(out.trace);
        bt.index = index;
        bt.width = live.size();
        bt.wait_sim_seconds = start;
        result_.telemetry.batches.push_back(std::move(bt));
      }
    }

    server_free_ = finish;
    last_finish_ = std::max(last_finish_, finish);
    unstarted_ += rec.admitted;
    result_.batches.push_back(std::move(rec));
  }

  // ---- assembly ----

  void finalize() {
    ServiceStats& s = result_.stats;
    s.submitted = arrivals_.size();
    for (const ServiceQueryRecord& r : result_.queries) {
      switch (r.outcome) {
        case ServiceOutcome::kShed:
          ++s.shed;
          break;
        case ServiceOutcome::kExpired:
          ++s.expired;
          break;
        case ServiceOutcome::kCompleted:
          ++s.completed;
          break;
        case ServiceOutcome::kIndexAnswered:
          ++s.index_answered;
          break;
      }
    }
    s.admitted = s.completed + s.expired;
    s.batches = result_.batches.size();
    for (const ServiceBatchRecord& b : result_.batches) {
      s.failovers += b.failovers;
      s.failover_shed += b.failover_shed;
    }

    double last_arrival = arrivals_.empty()
                              ? 0
                              : arrivals_.back().arrival_sim_seconds;
    result_.makespan_sim_seconds = std::max(last_finish_, last_arrival);
    result_.peak_memory_bytes = opts_.router != nullptr
                                    ? opts_.router->peak_memory_bytes()
                                    : executor_.peak_memory_bytes();
  }

  std::span<const TimedQuery> arrivals_;
  const std::vector<SubgraphShard>& shards_;
  const ServiceOptions& opts_;
  BatchExecutor executor_;
  ServiceRunResult& result_;
  obs::Gauge& queue_depth_current_;
  obs::Gauge& queue_depth_high_water_;

  std::vector<PendingQuery> pending_;
  double server_free_ = 0;
  double last_finish_ = 0;
  // Batches [0, started_) have started by the latest arrival; unstarted_
  // counts the members of the rest.
  std::size_t started_ = 0;
  std::size_t unstarted_ = 0;
};

void publish_service_metrics(obs::MetricsRegistry& reg,
                             const ServiceRunResult& result, bool has_index) {
  const ServiceStats& s = result.stats;
  reg.counter("cgraph_service_submitted_total",
              "Queries that arrived at the service front end")
      .inc(static_cast<double>(s.submitted));
  reg.counter("cgraph_service_admitted_total",
              "Queries admitted past the bounded queue")
      .inc(static_cast<double>(s.admitted));
  reg.counter("cgraph_service_shed_total",
              "Arrivals rejected because the admission queue was full")
      .inc(static_cast<double>(s.shed));
  reg.counter("cgraph_service_expired_total",
              "Admitted queries dropped for missed deadlines")
      .inc(static_cast<double>(s.expired));
  reg.counter("cgraph_service_completed_total",
              "Queries executed and answered")
      .inc(static_cast<double>(s.completed));
  reg.counter("cgraph_service_batches_total",
              "Batches sealed by the adaptive batcher")
      .inc(static_cast<double>(s.batches));
  reg.gauge("cgraph_service_peak_queue_depth",
            "Peak admitted-but-unstarted queries of the latest run")
      .set(static_cast<double>(s.peak_queue_depth));
  if (s.failovers > 0 || s.failover_shed > 0) {
    reg.counter("cgraph_service_failover_shed_total",
                "Admitted queries dropped at failover re-dispatch "
                "(deadline passed or failover budget exhausted)")
        .inc(static_cast<double>(s.failover_shed));
  }
  if (has_index) {
    reg.counter("cgraph_index_hit_total",
                "Point queries answered conclusively by the reachability "
                "index bypass lane")
        .inc(static_cast<double>(s.index_answered));
    reg.counter("cgraph_index_miss_total",
                "Point-query index probes that returned unknown")
        .inc(static_cast<double>(s.index_misses));
    reg.counter("cgraph_index_fallback_total",
                "Point queries resolved by the traversal engine after an "
                "unknown index probe")
        .inc(static_cast<double>(s.index_fallbacks));
  }

  obs::LogHistogram& response = reg.histogram(
      "cgraph_query_response_sim_seconds",
      "Simulated latency from arrival to answer, answered queries");
  obs::LogHistogram& wait = reg.histogram(
      "cgraph_query_queue_wait_sim_seconds",
      "Simulated wait from arrival to batch execution start, admitted "
      "queries");
  obs::LogHistogram& execute = reg.histogram(
      "cgraph_query_execute_sim_seconds",
      "Simulated time from batch start to answer, completed queries");
  for (const ServiceQueryRecord& r : result.queries) {
    if (r.outcome == ServiceOutcome::kShed) continue;
    if (r.outcome == ServiceOutcome::kIndexAnswered) {
      // Index answers are end-to-end responses (the probe time) but never
      // waited in the queue nor executed on the cluster, so only the
      // response series sees them.
      response.observe(r.response_sim_seconds);
      continue;
    }
    wait.observe(r.queue_wait_sim_seconds);
    if (r.outcome == ServiceOutcome::kCompleted) {
      response.observe(r.response_sim_seconds);
      execute.observe(r.execute_sim_seconds);
    }
  }
}

}  // namespace

double ServiceRunResult::response_percentile(double p) const {
  CGRAPH_CHECK(p > 0 && p <= 100);
  std::vector<double> responses;
  responses.reserve(queries.size());
  for (const ServiceQueryRecord& r : queries) {
    if (r.outcome == ServiceOutcome::kCompleted ||
        r.outcome == ServiceOutcome::kIndexAnswered) {
      responses.push_back(r.response_sim_seconds);
    }
  }
  if (responses.empty()) return 0;
  std::sort(responses.begin(), responses.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(responses.size())));
  return responses[std::min(rank, responses.size()) - 1];
}

ServiceRunResult run_query_service(Cluster& cluster,
                                   const std::vector<SubgraphShard>& shards,
                                   const RangePartition& partition,
                                   std::span<const TimedQuery> arrivals,
                                   const ServiceOptions& opts) {
  obs::MetricsRegistry& registry = opts.scheduler.metrics != nullptr
                                       ? *opts.scheduler.metrics
                                       : obs::MetricsRegistry::global();
  ServiceRunResult result;
  ServicePipeline pipeline(cluster, shards, partition, arrivals, opts,
                           registry, result);
  pipeline.run();

  result.telemetry.publish(registry);
  publish_service_metrics(registry, result, opts.index != nullptr);
  if (opts.index != nullptr && opts.index->mode() != IndexMode::kOff) {
    publish_index_metrics(registry, *opts.index);
  }
  // Mutation-layer gauges (DESIGN.md §15), once any mutation landed: epoch
  // the shards have reached, uncompacted delta events awaiting the next
  // compaction, and the bytes those event sets hold.
  const Epoch epoch = current_epoch(
      std::span<const SubgraphShard>(shards.data(), shards.size()));
  if (epoch > 0) {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    for (const SubgraphShard& s : shards) {
      events += s.delta_out().num_events() + s.delta_in().num_events();
      bytes += s.delta_out().memory_bytes() + s.delta_in().memory_bytes();
    }
    registry
        .gauge("cgraph_mutation_epoch",
               "Highest mutation epoch applied to the serving shards")
        .set(static_cast<double>(epoch));
    registry
        .gauge("cgraph_mutation_delta_events",
               "Uncompacted delta edge events across all shards")
        .set(static_cast<double>(events));
    registry
        .gauge("cgraph_mutation_delta_bytes",
               "Resident bytes of the per-shard delta edge-sets")
        .set(static_cast<double>(bytes));
  }
  if (opts.router != nullptr) {
    opts.router->publish_metrics(registry);
  }
  return result;
}

}  // namespace cgraph
