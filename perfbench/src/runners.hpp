// Workload runners and the traced-run helpers they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cluster_sim.hpp"
#include "generators.hpp"
#include "svc/engine.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using pbc::ThreadPool;

/// Threads in every ThreadPool the harness hands the program. One thread
/// keeps parallel_for_index on its inline path: its fan-out path lets the
/// caller return, destroying the completion mutex on its stack, before
/// the last worker has locked it to notify (src/util/thread_pool.cpp), and
/// wire-mixed runs aborted on that race with two engine threads.
inline constexpr std::size_t kPoolThreads = 1;

/// wire-hot / wire-mixed: open-loop traffic against an in-process pbcd.
[[nodiscard]] RunResult run_wire(const RunArgs& args);

/// cluster-trace: core::simulate_cluster on the event path.
[[nodiscard]] RunResult run_cluster(const RunArgs& args);

/// Binary response payload (no frame header) for each request, from
/// execute() on a fresh single-shard engine: the bit-identity oracle.
/// Also checks the power-bound invariants of every response. Runs on the
/// calling thread.
struct Oracle {
  std::vector<std::vector<std::uint8_t>> payload;
  /// Mean simulated seconds per work unit (1/rate) of the `sample`
  /// answers: a seed-stable fingerprint of the simulator's results.
  double sim_seconds = 0.0;
};
[[nodiscard]] Oracle build_oracle(const std::vector<svc::Request>& requests,
                                  RunResult& result);

/// Per-layer numbers of the in-process traced replay.
struct TracedLayers {
  std::vector<Metric> metrics;
  /// Median of the whole in-process pipeline per request, µs (the wire
  /// p50 minus this is the transport share).
  double pipeline_p50_us = 0.0;
};

/// Replays requests[order[i]] for i < n through the daemon's layer calls
/// in daemon order (frame, decode, admission, route, execute, encode,
/// client decode) on an engine warmed with `warmup`, recording one span
/// per call; then runs a sample of distinct requests cold, both through
/// execute() and the direct core/sim/ctrl calls, for the svc overhead
/// and the solver-side layers. Responses are held to the oracle.
[[nodiscard]] TracedLayers trace_requests(
    const RequestInputs& in, const std::vector<std::uint32_t>& order,
    std::size_t n, const Oracle& oracle, ThreadPool& pool, SpanLog& spans,
    RunResult& result);

/// Node builds seen by a timed provider (summed across pool threads).
struct NodePrepStats {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> builds{0};
};

/// The cluster node provider the traced runs pass in: wraps
/// sim::make_prepared_*_node with a "sim.node_build" span per build under
/// `parent`, and counts builds into `stats` when non-null. The callbacks
/// may run on a pool; `spans` and `stats` must outlive the run.
[[nodiscard]] core::ClusterNodeProvider timed_node_provider(
    SpanLog& spans, std::int32_t parent, NodePrepStats* stats);

/// core.cluster.{us_per_event, events, node_prep_s, node_preps} from
/// `runs` cluster runs taking `run_us` in total and processing `events`.
void add_cluster_metrics(std::vector<Metric>& m,
                         const std::vector<double>& run_us, double events,
                         std::size_t runs, const NodePrepStats& prep);

}  // namespace perfbench
