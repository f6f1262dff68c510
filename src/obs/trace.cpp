#include "obs/trace.hpp"

#include <cstdio>

namespace cgraph::obs {

namespace {

/// One MachineTrace field and the per-machine series it is exported as.
template <typename T>
struct MachineSeries {
  T MachineTrace::*field;
  const char* name;
  const char* help;
};

constexpr MachineSeries<double> kMachineSeconds[] = {
    {&MachineTrace::barrier_wait_sim_seconds,
     "cgraph_machine_barrier_wait_sim_seconds_total",
     "Simulated idle time waiting at barriers per machine"},
    {&MachineTrace::barrier_wait_wall_seconds,
     "cgraph_machine_barrier_wait_wall_seconds_total",
     "Host wall-clock blocked at barriers per machine"},
};

constexpr MachineSeries<std::uint64_t> kMachineCounts[] = {
    {&MachineTrace::supersteps, "cgraph_machine_supersteps_total",
     "BSP supersteps executed per machine"},
    {&MachineTrace::staged_packets, "cgraph_fabric_staged_packets_total",
     "BSP (staged) packets sent per machine"},
    {&MachineTrace::staged_bytes, "cgraph_fabric_staged_bytes_total",
     "BSP (staged) bytes sent per machine"},
    {&MachineTrace::async_packets, "cgraph_fabric_async_packets_total",
     "Async packets sent per machine"},
    {&MachineTrace::async_bytes, "cgraph_fabric_async_bytes_total",
     "Async bytes sent per machine"},
    // Delivery outcomes: exact per-attempt accounting, non-zero once a
    // FaultPlan is installed on the fabric.
    {&MachineTrace::delivered_packets, "cgraph_fabric_delivered_packets_total",
     "Mailbox deposits (duplicates included) per sending machine"},
    {&MachineTrace::dropped_packets, "cgraph_fabric_dropped_packets_total",
     "Transmission attempts dropped by the fault layer"},
    {&MachineTrace::duplicated_packets,
     "cgraph_fabric_duplicated_packets_total",
     "Attempts delivered twice by the fault layer"},
    {&MachineTrace::reordered_packets, "cgraph_fabric_reordered_packets_total",
     "Attempts delivered ahead of earlier undrained traffic"},
    {&MachineTrace::delayed_packets, "cgraph_fabric_delayed_packets_total",
     "Attempts held in the receiver's limbo queue"},
    {&MachineTrace::retried_packets, "cgraph_fabric_retried_packets_total",
     "Retransmission attempts (staged retry loop + async ack timeouts)"},
    {&MachineTrace::ack_packets, "cgraph_fabric_ack_packets_total",
     "Acknowledgement frames sent by the reliable async protocol"},
    {&MachineTrace::delivery_failed_packets,
     "cgraph_fabric_delivery_failed_packets_total",
     "Packets abandoned after the bounded retry budget"},
    {&MachineTrace::dedup_suppressed_packets,
     "cgraph_fabric_dedup_suppressed_packets_total",
     "Duplicate deliveries suppressed by receiver dedup filters"},
};

}  // namespace

MachineTrace& MachineTrace::operator+=(const MachineTrace& o) {
  for (const auto& s : kMachineSeconds) this->*s.field += o.*s.field;
  for (const auto& s : kMachineCounts) this->*s.field += o.*s.field;
  return *this;
}

void publish_machine_traces(MetricsRegistry& reg,
                            const std::vector<MachineTrace>& traces) {
  for (const MachineTrace& m : traces) {
    const Labels ml{{"machine", std::to_string(m.machine)}};
    for (const auto& s : kMachineSeconds) {
      reg.counter(s.name, s.help, ml).inc(m.*s.field);
    }
    for (const auto& s : kMachineCounts) {
      reg.counter(s.name, s.help, ml).inc(static_cast<double>(m.*s.field));
    }
  }
}

std::uint64_t BatchTrace::edges_scanned() const {
  std::uint64_t total = 0;
  for (const LevelTrace& l : levels) total += l.edges_scanned;
  return total;
}

std::uint64_t BatchTrace::bit_ops() const {
  std::uint64_t total = 0;
  for (const LevelTrace& l : levels) total += l.bit_ops;
  return total;
}

std::uint64_t RunTelemetry::total_edges_scanned() const {
  std::uint64_t total = 0;
  for (const BatchTrace& b : batches) total += b.edges_scanned();
  return total;
}

void RunTelemetry::publish(MetricsRegistry& reg) const {
  reg.counter("cgraph_query_batches_total",
              "Bit-parallel batches executed by the scheduler")
      .inc(static_cast<double>(batches.size()));
  reg.counter("cgraph_query_edges_scanned_total",
              "Edges scanned by concurrent-query traversals")
      .inc(static_cast<double>(total_edges_scanned()));
  if (!effective_policy.empty()) {
    reg.counter("cgraph_scheduler_runs_total",
                "Scheduler runs by effective batching policy",
                {{"policy", effective_policy}})
        .inc();
  }

  std::uint64_t bitops = 0;
  for (const BatchTrace& b : batches) bitops += b.bit_ops();
  reg.counter("cgraph_query_bit_ops_total",
              "Bitmap words processed by concurrent-query traversals")
      .inc(static_cast<double>(bitops));

  LogHistogram& exec =
      reg.histogram("cgraph_batch_execute_sim_seconds",
                    "Per-batch simulated makespan");
  double straggler_sum = 0;
  std::size_t straggler_n = 0;
  std::vector<MachineTrace> machine_totals;
  for (const BatchTrace& b : batches) {
    exec.observe(b.execute_sim_seconds);
    if (b.straggler_ratio > 0) {
      straggler_sum += b.straggler_ratio;
      ++straggler_n;
    }

    for (const LevelTrace& l : b.levels) {
      const Labels lv{{"level", std::to_string(l.level)}};
      reg.counter("cgraph_superstep_edges_total",
                  "Edges scanned per traversal level", lv)
          .inc(static_cast<double>(l.edges_scanned));
      reg.counter("cgraph_superstep_frontier_vertices_total",
                  "Frontier entries expanded per traversal level", lv)
          .inc(static_cast<double>(l.frontier_vertices));
      reg.counter("cgraph_superstep_bit_ops_total",
                  "Bitmap words processed per traversal level", lv)
          .inc(static_cast<double>(l.bit_ops));
      reg.counter("cgraph_superstep_barrier_wait_sim_seconds_total",
                  "Simulated barrier idle time per traversal level "
                  "(summed over machines)",
                  lv)
          .inc(l.barrier_wait_sim_seconds);
      reg.counter("cgraph_superstep_parallel_tasks_total",
                  "Intra-machine pool chunks executed per traversal level",
                  lv)
          .inc(static_cast<double>(l.parallel_tasks));
      reg.counter("cgraph_superstep_steal_wait_wall_seconds_total",
                  "Host seconds machine threads spent joining their "
                  "compute pools per traversal level",
                  lv)
          .inc(l.steal_wait_seconds);
      if (l.push_machines > 0) {
        reg.counter("cgraph_msbfs_direction_total",
                    "Per-level per-partition traversal direction choices",
                    Labels{{"direction", "push"}})
            .inc(static_cast<double>(l.push_machines));
      }
      if (l.pull_machines > 0) {
        reg.counter("cgraph_msbfs_direction_total",
                    "Per-level per-partition traversal direction choices",
                    Labels{{"direction", "pull"}})
            .inc(static_cast<double>(l.pull_machines));
      }
      reg.gauge("cgraph_msbfs_scout_edges",
                "Scout count (frontier out-edges) entering the level, "
                "summed over machines — the direction heuristic's input",
                lv)
          .set(static_cast<double>(l.scout_edges));
    }

    // Counters are sums: fold the batches per machine, publish once.
    for (std::size_t i = 0; i < b.machines.size(); ++i) {
      if (i == machine_totals.size()) {
        machine_totals.push_back(b.machines[i]);
      } else {
        machine_totals[i] += b.machines[i];
      }
    }
  }
  publish_machine_traces(reg, machine_totals);
  if (straggler_n > 0) {
    reg.gauge("cgraph_straggler_ratio",
              "Mean max/mean machine step time of the latest run")
        .set(straggler_sum / static_cast<double>(straggler_n));
  }
}

std::string RunTelemetry::summary() const {
  std::string out;
  char buf[192];
  for (const BatchTrace& b : batches) {
    std::snprintf(buf, sizeof buf,
                  "batch %zu: width=%zu wait=%.6fs exec=%.6fs "
                  "edges=%llu straggler=%.2f\n",
                  b.index, b.width, b.wait_sim_seconds, b.execute_sim_seconds,
                  static_cast<unsigned long long>(b.edges_scanned()),
                  b.straggler_ratio);
    out += buf;
    for (const LevelTrace& l : b.levels) {
      std::snprintf(buf, sizeof buf,
                    "  level %u: frontier=%llu edges=%llu bitops=%llu "
                    "barrier_wait=%.6fs tasks=%llu steal_wait=%.6fs\n",
                    l.level,
                    static_cast<unsigned long long>(l.frontier_vertices),
                    static_cast<unsigned long long>(l.edges_scanned),
                    static_cast<unsigned long long>(l.bit_ops),
                    l.barrier_wait_sim_seconds,
                    static_cast<unsigned long long>(l.parallel_tasks),
                    l.steal_wait_seconds);
      out += buf;
    }
  }
  return out;
}

}  // namespace cgraph::obs
