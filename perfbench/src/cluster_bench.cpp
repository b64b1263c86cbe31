// cluster-trace: core::simulate_cluster on ClusterPath::kEvent over a
// uniform budget tree, with a facility-feed emergency and rack failures.
// The nominal trace is the full generated trace; the low-load trace keeps
// every 64th job on the same tree. The two interleave until the run's
// seconds are used, and every repetition must reproduce the first bit for
// bit. The latency metrics here are host time per trace run.
#include <cstdio>
#include <cstring>

#include "core/cluster_hier.hpp"
#include "runners.hpp"

namespace perfbench {

using namespace pbc;

namespace {

constexpr std::size_t kLightStride = 64;

[[nodiscard]] bool same_run(const core::ClusterRun& a,
                            const core::ClusterRun& b) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  return a.jobs.size() == b.jobs.size() &&
         bits(a.makespan.value()) == bits(b.makespan.value()) &&
         bits(a.total_energy.value()) == bits(b.total_energy.value()) &&
         bits(a.mean_wait.value()) == bits(b.mean_wait.value()) &&
         a.event_stats.events == b.event_stats.events &&
         a.event_stats.jobs_preempted == b.event_stats.jobs_preempted;
}

/// Timed runs of one trace, each checked against the first.
class Repeats {
 public:
  Repeats(const char* what, const ClusterInputs& in,
          const std::vector<core::SimJob>& jobs,
          const core::ClusterSimConfig& config, RunResult& result)
      : what_(what), in_(in), jobs_(jobs), config_(config), result_(result) {}

  void run_once() {
    std::vector<core::SimJob> copy = jobs_;  // the API consumes its input
    const std::int64_t t0 = now_ns();
    core::ClusterRun run =
        core::simulate_cluster(in_.cpu, in_.gpu, std::move(copy), config_);
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    wall_s.push_back(wall);
    events_per_s.push_back(static_cast<double>(run.event_stats.events) / wall);
    if (run.jobs.size() != jobs_.size() || !run.event_stats.caps_respected) {
      result_.fail(std::string(what_) + ": completed " +
                   std::to_string(run.jobs.size()) + " of " +
                   std::to_string(jobs_.size()) +
                   (run.event_stats.caps_respected ? "" : ", caps broken"));
    }
    if (wall_s.size() == 1) {
      first = std::move(run);
    } else if (!same_run(first, run)) {
      result_.fail(std::string(what_) + ": repeated run differs");
    }
  }

  [[nodiscard]] double total_s() const {
    double t = 0.0;
    for (const double w : wall_s) t += w;
    return t;
  }

  std::vector<double> wall_s;
  std::vector<double> events_per_s;
  core::ClusterRun first;

 private:
  const char* what_;
  const ClusterInputs& in_;
  const std::vector<core::SimJob>& jobs_;
  const core::ClusterSimConfig& config_;
  RunResult& result_;
};

[[nodiscard]] std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

}  // namespace

RunResult run_cluster(const RunArgs& args) {
  RunResult result;
  const ClusterParams params;
  if (const std::string st = generator_self_test(); !st.empty()) {
    result.fail("generator self-test: " + st);
  }
  const ClusterInputs in = make_cluster_inputs(args.seed, params);
  std::vector<core::SimJob> light;
  for (std::size_t j = 0; j < in.jobs.size(); j += kLightStride) {
    light.push_back(in.jobs[j]);
  }

  // Set-up: the budget tree and the scenario, built and validated.
  std::vector<double> setup_s;
  ClusterSetup setup;
  for (int k = 0; k < 21; ++k) {
    const std::int64_t t0 = now_ns();
    setup = make_cluster_setup(in, params);
    const Status h = core::validate_hierarchy(
        setup.hierarchy, in.config.nodes, in.config.gpu_nodes);
    const Status s = core::validate_scenario(setup.scenario, setup.hierarchy);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!h.ok() || !s.ok()) {
      result.fail("cluster set-up does not validate");
      return result;
    }
  }
  // Node preparation runs on this pool; the event loop is serial.
  ThreadPool pool(kPoolThreads);
  core::ClusterSimConfig config = in.config;
  config.hierarchy = &setup.hierarchy;
  config.scenario = &setup.scenario;
  config.pool = &pool;

  // One untimed low-load run first, so first-touch page faults and lazy
  // tables are not charged to the first timed run.
  (void)core::simulate_cluster(in.cpu, in.gpu, light, config);
  // Full and low-load runs interleave, keeping 70% / 30% of the time, so
  // both sample the host over the whole run.
  Repeats full("full trace", in, in.jobs, config, result);
  Repeats low("low-load trace", in, light, config, result);
  const std::int64_t start = now_ns();
  while (full.wall_s.size() < 3 || low.wall_s.size() < 10 ||
         static_cast<double>(now_ns() - start) * 1e-9 < args.seconds) {
    full.run_once();
    while (low.total_s() < full.total_s() * 0.3 / 0.7) low.run_once();
  }
  const Summary full_ms = summarize(scaled(full.wall_s, 1e3));
  const Summary low_ms = summarize(scaled(low.wall_s, 1e3));
  const double jobs = static_cast<double>(in.jobs.size());
  std::vector<double> jps;
  for (const double w : full.wall_s) jps.push_back(jobs / w);
  result.attempted = full.wall_s.size() * in.jobs.size() +
                     low.wall_s.size() * light.size();
  result.failed = 0;

  result.end_to_end = {
      {"p50_ms.nominal", full_ms.p50, "ms"},
      {"jobs_per_s", median(jps), "1/s"},
      {"sim_makespan_s", full.first.makespan.value(), "s"},
      {"setup_s", median(setup_s), "s"},
      {"rss_mb", peak_rss_mb(), "MB"},
  };
  result.per_layer = {
      {"p50_ms.low", low_ms.p50, "ms"},
      {"p99_ms.low", low_ms.p99, "ms"},
      {"p99_ms.nominal", full_ms.p99, "ms"},
      {"max_rps", median(full.events_per_s), "1/s"},
  };

  const auto& es = full.first.event_stats;
  std::printf(
      "cluster-trace (seed %llu): %zu CPU + %zu GPU nodes, %zu jobs; "
      "full %zu runs p50 %.1f ms, low-load (%zu jobs) %zu runs p50 %.2f ms\n"
      "  events %llu, preempted %llu, emergency sheds %llu, donations %llu, "
      "makespan %.3f s\n",
      static_cast<unsigned long long>(args.seed), in.config.nodes,
      in.config.gpu_nodes, in.jobs.size(), full_ms.n, full_ms.p50,
      light.size(), low_ms.n, low_ms.p50,
      static_cast<unsigned long long>(es.events),
      static_cast<unsigned long long>(es.jobs_preempted),
      static_cast<unsigned long long>(es.emergency_sheds),
      static_cast<unsigned long long>(es.donations),
      full.first.makespan.value());

  SpanLog spans;
  if (args.trace) {
    // One more full run with node preparation timed through a provider.
    NodePrepStats prep;
    std::vector<core::SimJob> copy = in.jobs;
    const std::int32_t root = spans.begin("core.cluster", -1, 0);
    const auto provider = timed_node_provider(spans, root, &prep);
    const core::ClusterRun run = core::simulate_cluster(
        in.cpu, in.gpu, std::move(copy), config, &provider);
    spans.end(root);
    if (!same_run(full.first, run)) {
      result.fail("traced run differs from the measured runs");
    }
    add_cluster_metrics(result.per_layer, spans.durations_us("core.cluster"),
                        static_cast<double>(run.event_stats.events), 1, prep);
    const Summary nb = summarize(spans.durations_us("sim.node_build"));
    result.per_layer.push_back({"sim.node_build.us", nb.mean, "us"});
    result.per_layer.push_back({"sim.node_build.us.p99", nb.p99, "us"});
    result.per_layer.push_back(
        {"sim.node_build.n", static_cast<double>(nb.n), "count"});
    if (!spans.write_chrome(args.out_dir + "/" + args.workload + "-seed" +
                                std::to_string(args.seed) + "-trace.json",
                            50000)) {
      result.fail("cannot write the trace file");
    }
    print_span_table(spans);
  }

  Json j;
  j.begin_object();
  j.key("params").begin_object()
      .field("cpu_nodes", static_cast<std::uint64_t>(params.cpu_nodes))
      .field("gpu_nodes", static_cast<std::uint64_t>(params.gpu_nodes))
      .field("jobs", static_cast<std::uint64_t>(params.jobs))
      .field("low_load_jobs", static_cast<std::uint64_t>(light.size()))
      .field("gpu_fraction", params.gpu_fraction)
      .field("cpu_variants", static_cast<std::uint64_t>(params.cpu_variants))
      .field("gpu_variants", static_cast<std::uint64_t>(params.gpu_variants))
      .field("rack_failures", static_cast<std::uint64_t>(params.rack_failures))
      .field("emergency_fraction", params.emergency_fraction)
      .field("arrival_span_s", in.span_s)
      .field("hierarchy", "uniform 32-node racks, 32-rack rows")
      .field("node_prep_pool_threads",
             static_cast<std::uint64_t>(pool.thread_count()))
      .end_object();
  j.key("full_runs_ms").begin_array();
  for (const double w : full.wall_s) j.value(w * 1e3);
  j.end_array();
  j.key("low_load_runs_ms").begin_array();
  for (const double w : low.wall_s) j.value(w * 1e3);
  j.end_array();
  j.key("setup_s").begin_array();
  for (const double s : setup_s) j.value(s);
  j.end_array();
  j.key("event_stats").begin_object()
      .field("events", es.events)
      .field("subtree_resolves", es.subtree_resolves)
      .field("donations", es.donations)
      .field("jobs_preempted", es.jobs_preempted)
      .field("emergency_sheds", es.emergency_sheds)
      .field("emergency_regrants", es.emergency_regrants)
      .field("caps_respected", es.caps_respected)
      .end_object();
  j.end_object();
  result.details_json = j.str();
  return result;
}

}  // namespace perfbench
