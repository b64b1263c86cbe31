// pbc_perfbench: the repository benchmark harness.
//
//   pbc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR]
//   pbc_perfbench --self-test      generator determinism check only
//   pbc_perfbench --list-metrics   the metric catalogue as JSON
//
// Prints the run's tables, then as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <malloc.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "common.hpp"
#include "generators.hpp"
#include "runners.hpp"
#include "sim/simd.hpp"

#ifndef PBC_PERFBENCH_BUILD_TYPE
#define PBC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;
};

/// The end-to-end catalogue; every workload reports all of it.
[[nodiscard]] std::vector<MetricDef> end_to_end_defs() {
  return {
      {"p50_ms.nominal", "ms", "lower"}, {"jobs_per_s", "1/s", "higher"},
      {"sim_makespan_s", "s", "lower"},  {"setup_s", "s", "lower"},
      {"rss_mb", "MB", "lower"},
  };
}

/// The per-layer catalogue. A layer a workload does not exercise reports
/// 0 (with a sample count of 0 for timings).
[[nodiscard]] std::vector<MetricDef> per_layer_defs() {
  // Measured every run, reported here because their spread on a shared
  // host exceeds any bound the benchmark may set (perfbench/README.md).
  std::vector<MetricDef> d{{"p50_ms.low", "ms", "lower"},
                           {"p99_ms.low", "ms", "lower"},
                           {"p99_ms.nominal", "ms", "lower"},
                           {"max_rps", "1/s", "higher"}};
  const auto timing = [&](const std::string& base) {
    d.push_back({base + ".us", "us", "lower"});
    d.push_back({base + ".us.p99", "us", "lower"});
    d.push_back({base + ".n", "count", "higher"});
  };
  for (const char* b : {"net.frame", "net.decode", "net.encode",
                        "net.admission", "net.route", "net.client"}) {
    timing(b);
  }
  d.push_back({"net.transport.us", "us", "lower"});
  d.push_back({"net.queue.us", "us", "lower"});
  d.push_back({"net.bytes_in", "bytes", "lower"});
  d.push_back({"net.bytes_out", "bytes", "lower"});
  d.push_back({"net.shed", "count", "lower"});
  d.push_back({"net.deadline_rejected", "count", "lower"});
  timing("svc.execute.hit");
  timing("svc.execute.miss");
  for (const char* k : {"query_cpu", "query_gpu", "sample", "frontier",
                        "replay", "shift", "cluster", "online"}) {
    timing(std::string("svc.execute.") + k);
  }
  for (const char* c : {"profile", "frontier", "sim", "replay"}) {
    d.push_back({std::string("svc.hit_ratio.") + c, "ratio", "higher"});
  }
  d.push_back({"svc.single_flight.joined", "count", "higher"});
  timing("svc.overhead");
  timing("core.coord");
  timing("core.profile");
  timing("core.frontier");
  timing("core.shift");
  d.push_back({"core.cluster.us_per_event", "us", "lower"});
  d.push_back({"core.cluster.events", "count", "lower"});
  d.push_back({"core.cluster.node_prep_s", "s", "lower"});
  d.push_back({"core.cluster.node_preps", "count", "lower"});
  timing("sim.node_build");
  d.push_back({"sim.sweep.budgets_per_s", "1/s", "higher"});
  timing("sim.steady_state");
  timing("sim.replay");
  timing("ctrl.closed_loop");
  timing("obs.scrape");
  return d;
}

void print_defs(Json& j, const std::vector<MetricDef>& defs) {
  j.begin_array();
  for (const auto& m : defs) {
    j.begin_object()
        .field("name", m.name)
        .field("unit", m.unit)
        .field("better", m.better)
        .end_object();
  }
  j.end_array();
}

/// Orders `got` by the catalogue, filling layers a workload does not
/// exercise with 0. Returns false (and names the metric) when a metric is
/// missing without a default or is not in the catalogue.
[[nodiscard]] bool conform(std::vector<Metric>& got,
                           const std::vector<MetricDef>& defs,
                           bool fill_missing, std::string& problem) {
  std::vector<Metric> out;
  std::set<std::string> known;
  for (const auto& d : defs) {
    known.insert(d.name);
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&](const Metric& m) { return m.name == d.name; });
    if (it != got.end()) {
      out.push_back(*it);
    } else if (fill_missing) {
      out.push_back({d.name, 0.0, d.unit});
    } else {
      problem = "metric " + d.name + " was not measured";
      return false;
    }
  }
  for (const auto& m : got) {
    if (!known.count(m.name)) {
      problem = "metric " + m.name + " is not in the catalogue";
      return false;
    }
  }
  got = std::move(out);
  return true;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

[[nodiscard]] std::string metadata_json(const RunArgs& args) {
  utsname u{};
  uname(&u);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  Json j;
  j.begin_object()
      .field("host", std::string(u.nodename))
      .field("kernel", std::string(u.release))
      .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("compiler", std::string(__VERSION__))
      .field("build_type", PBC_PERFBENCH_BUILD_TYPE)
      .field("simd_tier", pbc::sim::simd::to_string(pbc::sim::simd::active_tier()))
      .field("commit", std::string(commit ? commit : "unknown"))
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("seconds", args.seconds)
      .field("trace", args.trace)
      .end_object();
  return j.str();
}

[[nodiscard]] bool parse(int argc, char** argv, RunArgs& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread, set before any thread starts. With
  // glibc's per-thread arenas, which arena each new daemon thread picked
  // up from those of exited threads depended on timing, and the peak RSS
  // of wire-mixed moved by up to 100 MB from run to run.
  (void)mallopt(M_ARENA_MAX, 1);
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    const std::string st = generator_self_test();
    std::printf("generator self-test: %s\n", st.empty() ? "ok" : st.c_str());
    return st.empty() ? 0 : 1;
  }
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    Json j;
    j.begin_object().key("end_to_end");
    print_defs(j, end_to_end_defs());
    j.key("per_layer");
    print_defs(j, per_layer_defs());
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    return 0;
  }
  RunArgs args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pbc_perfbench --workload wire-hot|wire-mixed|"
                 "cluster-trace --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  const std::string meta = metadata_json(args);
  std::printf("perfbench %s\n", meta.c_str());
  std::fflush(stdout);

  RunResult r;
  if (args.workload == "wire-hot" || args.workload == "wire-mixed") {
    r = run_wire(args);
  } else if (args.workload == "cluster-trace") {
    r = run_cluster(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::string problem;
  if (!conform(r.end_to_end, end_to_end_defs(), false, problem) ||
      (args.trace && !conform(r.per_layer, per_layer_defs(), true, problem))) {
    r.fail(problem);
  }
  print_table("end-to-end", r.end_to_end);
  print_table(args.trace ? "per-layer (traced run)" : "latency, unbounded",
              r.per_layer);

  const auto metrics_json = [](const std::vector<Metric>& ms) {
    Json j;
    j.begin_object();
    for (const auto& m : ms) {
      j.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
    }
    j.end_object();
    return j.str();
  };
  {
    Json rep;
    rep.begin_object()
        .key("metadata")
        .raw(meta)
        .field("correct", r.correct)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .key("end_to_end")
        .raw(metrics_json(r.end_to_end))
        .key("per_layer")
        .raw(metrics_json(r.per_layer))
        .key("details")
        .raw(r.details_json)
        .key("problems")
        .begin_array();
    for (const auto& p : r.problems) rep.value(p);
    rep.end_array().end_object();
    std::ofstream f(args.out_dir + "/" + args.workload + "-seed" +
                    std::to_string(args.seed) + "-report.json");
    f << rep.str() << "\n";
  }
  for (const auto& p : r.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  Json line;
  line.begin_object()
      .field("correct", r.correct)
      .field("attempted", std::max<std::uint64_t>(1, r.attempted))
      .field("failed", r.failed)
      .key("metrics")
      .raw(metrics_json(args.trace ? r.per_layer : r.end_to_end))
      .end_object();
  std::printf("%s\n", line.str().c_str());
  return r.correct ? 0 : 1;
}
