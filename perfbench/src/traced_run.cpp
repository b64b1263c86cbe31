// The traced run: the same requests the wire phases sent, replayed
// in-process through each layer's public functions in the order the
// daemon calls them, with one span per call. Nothing inside src/ is
// instrumented; every span is taken here, around the call.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/coord.hpp"
#include "core/critical.hpp"
#include "core/dynamic.hpp"
#include "core/frontier.hpp"
#include "ctrl/closed_loop.hpp"
#include "net/admission.hpp"
#include "net/codec.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "runners.hpp"
#include "sim/cpu_node.hpp"
#include "sim/gpu_node.hpp"
#include "sim/phase_nodes.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_replay.hpp"

namespace perfbench {

using namespace pbc;

namespace {

/// Appends mean, p99 and count of a µs sample set as three metrics:
/// `<base>.us`, `<base>.us.p99`, `<base>.n`.
void add_timing(std::vector<Metric>& out, const std::string& base,
                const std::vector<double>& us) {
  const Summary s = summarize(us);
  out.push_back({base + ".us", s.mean, "us"});
  out.push_back({base + ".us.p99", s.p99, "us"});
  out.push_back({base + ".n", static_cast<double>(s.n), "count"});
}

[[nodiscard]] double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-3;
}

[[nodiscard]] std::vector<std::uint8_t> payload_of(const svc::Request& req,
                                                   svc::ResponseOp result) {
  std::vector<std::uint8_t> out;
  net::encode_response(svc::Response{req.id, std::move(result)},
                       net::Codec::kBinary, out);
  return out;
}

/// Runs one request's operation through the direct core/sim/ctrl calls
/// execute() maps it to, with a span per layer call under `parent`.
[[nodiscard]] svc::ResponseOp direct_call(const svc::Request& req,
                                          ThreadPool& pool, SpanLog& spans,
                                          std::int32_t parent,
                                          std::uint64_t rid,
                                          NodePrepStats& cluster_prep) {
  const svc::CallOptions& o = req.options;
  const auto span = [&](const char* name) {
    return std::make_unique<ScopedSpan>(spans, name, parent, rid);
  };
  const auto prepared = [&](const hw::CpuMachine& m,
                            const workload::Workload& wl) {
    auto s = span("sim.node_build");
    return sim::make_prepared_cpu_node(m, wl);
  };
  const auto phase_set = [&](const hw::CpuMachine& m,
                             const workload::Workload& wl) {
    auto node = prepared(m, wl);
    auto s = span("sim.phase_nodes");
    return sim::PhaseNodeSet(std::move(node));
  };
  return std::visit(
      [&](const auto& op) -> svc::ResponseOp {
        using T = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<T, svc::QueryCpuOp>) {
          std::unique_ptr<ScopedSpan> s = span("sim.node_ctor");
          const sim::CpuNodeSim node(op.machine, op.wl);
          s.reset();
          s = span("core.profile");
          const auto profile = core::profile_critical_powers(node);
          s.reset();
          s = span("core.coord");
          return core::coord_cpu(profile, op.budget, op.variant);
        } else if constexpr (std::is_same_v<T, svc::QueryGpuOp>) {
          std::unique_ptr<ScopedSpan> s = span("sim.node_ctor");
          const sim::GpuNodeSim node(op.machine, op.wl);
          s.reset();
          s = span("core.profile");
          const auto params = core::profile_gpu_params(node);
          s.reset();
          s = span("core.coord");
          return core::coord_gpu(params, node.gpu_model(), op.budget,
                                 op.gamma);
        } else if constexpr (std::is_same_v<T, svc::SampleOp>) {
          const auto node = prepared(op.machine, op.wl);
          auto s = span("sim.steady_state");
          return node->steady_state(op.cpu_cap, op.mem_cap);
        } else if constexpr (std::is_same_v<T, svc::FrontierOp>) {
          const auto node = prepared(op.machine, op.wl);
          const sim::CpuSweepOptions sweep{op.mem_lo, op.proc_lo, op.step,
                                           o.solver_path, o.budget_block};
          auto s = span("core.frontier");
          return core::perf_frontier_cpu(*node, op.budgets, sweep, &pool);
        } else if constexpr (std::is_same_v<T, svc::ReplayOp>) {
          const auto set = phase_set(op.machine, op.wl);
          auto s = span("sim.replay");
          return sim::replay_trace(set, op.trace, op.cpu_cap, op.mem_cap);
        } else if constexpr (std::is_same_v<T, svc::ShiftOp>) {
          const auto set = phase_set(op.machine, op.wl);
          core::ShiftingConfig cfg;
          cfg.step = op.step;
          cfg.max_steps_per_segment = op.max_steps_per_segment;
          cfg.cpu_min = op.cpu_min;
          cfg.mem_min = op.mem_min;
          cfg.path = o.replay_path;
          auto s = span("core.shift");
          return core::replay_with_shifting(set, op.trace, op.total_budget,
                                            cfg);
        } else if constexpr (std::is_same_v<T, svc::ClusterOp>) {
          core::ClusterSimConfig cfg;
          cfg.nodes = op.nodes;
          cfg.gpu_nodes = op.gpu_nodes;
          cfg.global_budget = op.global_budget;
          cfg.policy = op.policy;
          cfg.queue_policy = op.queue_policy;
          cfg.admission_control = op.admission_control;
          cfg.min_grant = op.min_grant;
          cfg.path = o.cluster_path;
          cfg.pool = &pool;
          auto s = span("core.cluster");
          const auto provider =
              timed_node_provider(spans, s->id(), &cluster_prep);
          if (op.gpu_type.has_value()) {
            return core::simulate_cluster(op.node_type, *op.gpu_type, op.jobs,
                                          cfg, &provider);
          }
          return core::simulate_cluster(op.node_type, op.jobs, cfg, &provider);
        } else {
          static_assert(std::is_same_v<T, svc::OnlineOp>);
          const auto set = phase_set(op.machine, op.wl);
          ctrl::ControllerConfig cfg;
          cfg.step = op.step;
          cfg.cpu_min = op.cpu_min;
          cfg.mem_min = op.mem_min;
          cfg.explore_rate = op.explore_rate;
          cfg.explore_decay = op.explore_decay;
          cfg.explore_floor = op.explore_floor;
          cfg.ema_alpha = op.ema_alpha;
          cfg.hysteresis_margin = op.hysteresis_margin;
          cfg.seed = o.seed;
          auto s = span("ctrl.closed_loop");
          return ctrl::run_closed_loop(set, op.trace, op.total_budget, cfg);
        }
      },
      req.op);
}

}  // namespace

core::ClusterNodeProvider timed_node_provider(SpanLog& spans,
                                              std::int32_t parent,
                                              NodePrepStats* stats) {
  // Times each build into `stats` and the span log; runs on pool threads.
  const auto timed = [&spans, parent, stats](auto&& build) {
    const std::int64_t t0 = now_ns();
    auto node = build();
    const std::int64_t t1 = now_ns();
    spans.add("sim.node_build", t0, t1, parent, 0);
    if (stats != nullptr) {
      stats->ns += t1 - t0;
      ++stats->builds;
    }
    return node;
  };
  core::ClusterNodeProvider p;
  p.cpu = [timed](const hw::CpuMachine& m, const workload::Workload& wl) {
    return timed([&] { return sim::make_prepared_cpu_node(m, wl); });
  };
  p.gpu = [timed](const hw::GpuMachine& m, const workload::Workload& wl) {
    return timed([&] { return sim::make_prepared_gpu_node(m, wl); });
  };
  return p;
}

TracedLayers trace_requests(const RequestInputs& in,
                            const std::vector<std::uint32_t>& order,
                            std::size_t n, const Oracle& oracle,
                            ThreadPool& pool, SpanLog& spans,
                            RunResult& result) {
  TracedLayers out;
  // An engine in the state the daemon's was in when the phases began.
  svc::EngineOptions eo;
  eo.pool = &pool;
  svc::QueryEngine engine(eo);
  for (const std::uint32_t idx : in.warmup) (void)engine.execute(in.requests[idx]);
  std::vector<obs::Counter*> misses;
  for (const char* cache : {"profile", "frontier", "sim", "replay", "online"}) {
    misses.push_back(&engine.metrics().counter(
        "pbc_svc_cache_misses_total", "Cache misses by cache",
        {{"cache", cache}}));
  }
  const auto miss_count = [&] {
    std::uint64_t m = 0;
    for (const auto* c : misses) m += c->value();
    return m;
  };

  // Cold misses first (their spans lead the trace file): a sample of
  // distinct requests per kind, each on a fresh engine through execute()
  // and through the direct layer calls.
  const std::size_t per_kind = 24;
  std::size_t taken[svc::kQueryKindCount] = {};
  std::vector<double> overhead_us;
  std::vector<double> overhead_by_kind[svc::kQueryKindCount];
  std::vector<double> sweep_s;
  double sweep_budgets = 0.0;
  double cluster_events = 0.0;
  std::size_t cluster_runs = 0;
  NodePrepStats cluster_prep;
  for (std::size_t idx = 0; idx < in.requests.size(); ++idx) {
    const svc::Request& req = in.requests[idx];
    const auto kind = static_cast<std::size_t>(svc::request_kind(req));
    if (taken[kind] >= per_kind) continue;
    ++taken[kind];
    svc::QueryEngine cold(eo);
    const std::uint64_t rid = 1000000000ULL + idx;
    const std::int32_t root = spans.begin("cold", -1, rid);
    // Alternate which path runs first, so warm-cache effects from the
    // first do not bias the difference one way.
    std::int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    Result<svc::Response> resp = invalid_argument("not run");
    svc::ResponseOp direct_op;
    const auto run_execute = [&] {
      c0 = now_ns();
      resp = cold.execute(req);
      c1 = now_ns();
      spans.add("svc.execute.cold", c0, c1, root, rid);
    };
    const auto run_direct = [&] {
      const std::int32_t direct = spans.begin("direct", root, rid);
      c2 = now_ns();
      direct_op = direct_call(req, pool, spans, direct, rid, cluster_prep);
      c3 = now_ns();
      spans.end(direct);
    };
    if (idx % 2 == 0) {
      run_execute();
      run_direct();
    } else {
      run_direct();
      run_execute();
    }
    spans.end(root);
    overhead_us.push_back(us_between(c0, c1) - us_between(c2, c3));
    overhead_by_kind[kind].push_back(overhead_us.back());
    if (const auto* run = std::get_if<core::ClusterRun>(&direct_op)) {
      cluster_events += static_cast<double>(run->event_stats.events);
      ++cluster_runs;
    }
    if (!resp.ok() ||
        payload_of(req, std::move(direct_op)) != oracle.payload[idx]) {
      result.fail("traced run: direct call for request id " +
                  std::to_string(req.id) + " differs from execute()");
    }
    if (const auto* f = std::get_if<svc::FrontierOp>(&req.op)) {
      // The blocked best-split sweep behind the frontier, on its own.
      const auto node = sim::make_prepared_cpu_node(f->machine, f->wl);
      const sim::CpuSweepOptions sweep{f->mem_lo, f->proc_lo, f->step,
                                       req.options.solver_path,
                                       req.options.budget_block};
      const std::int64_t s0 = now_ns();
      (void)sim::sweep_cpu_budgets_best(*node, f->budgets, sweep, &pool);
      const std::int64_t s1 = now_ns();
      spans.add("sim.sweep", s0, s1, -1, rid);
      sweep_s.push_back(static_cast<double>(s1 - s0) * 1e-9);
      sweep_budgets += static_cast<double>(f->budgets.size());
    }
  }
  std::printf("svc overhead on a cold miss (execute - direct calls), mean us:");
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    std::printf(" %s %.1f (n=%zu)", svc::to_string(static_cast<svc::QueryKind>(k)),
                summarize(overhead_by_kind[k]).mean, overhead_by_kind[k].size());
  }
  std::printf("\n");

  const net::DaemonOptions dopt;
  net::AdmissionController admission(dopt.admission);
  const net::ShardRouter router(dopt.shards, dopt.vnodes);
  net::FrameDecoder server_dec;
  net::FrameDecoder client_dec;
  std::vector<double> frame_us, decode_us, admit_us, route_us, encode_us,
      client_us, pipeline_us, hit_us, miss_us;
  std::vector<double> kind_us[svc::kQueryKindCount];
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t idx = order[i % order.size()];
    const svc::Request& req = in.requests[idx];
    const std::int64_t t0 = now_ns();
    const auto wire = net::frame_request(req, net::Codec::kBinary);
    const std::int64_t t1 = now_ns();
    server_dec.feed(wire);
    auto frame = server_dec.next();
    const std::int64_t t2 = now_ns();
    if (!frame.ok() || !frame.value().has_value()) {
      result.fail("traced run: frame decoder lost a frame");
      return out;
    }
    auto decoded = net::decode_request(frame.value()->payload,
                                       frame.value()->header.codec);
    const std::int64_t t3 = now_ns();
    const bool admitted = admission.try_admit(1, Clock::now());
    const std::int64_t t4 = now_ns();
    if (!decoded.ok()) {
      result.fail("traced run: decode_request failed");
      return out;
    }
    const std::size_t shard =
        router.route(svc::descriptor_hash(decoded.value()));
    const std::int64_t t5 = now_ns();
    const std::uint64_t m0 = miss_count();
    const std::int64_t t5b = now_ns();
    auto resp = engine.execute(decoded.value());
    const std::int64_t t6 = now_ns();
    const bool miss = miss_count() != m0;
    if (!resp.ok()) {
      result.fail("traced run: execute failed: " + resp.error().message);
      return out;
    }
    const auto framed = net::frame_response(resp.value(), net::Codec::kBinary);
    const std::int64_t t7 = now_ns();
    client_dec.feed(framed);
    auto rframe = client_dec.next();
    const bool client_ok =
        rframe.ok() && rframe.value().has_value() &&
        net::decode_response(rframe.value()->payload,
                             rframe.value()->header.codec)
            .ok();
    const std::int64_t t8 = now_ns();

    if (!admitted || shard >= router.shard_count() || !client_ok) {
      result.fail("traced run: admission, routing or client decode failed");
    }
    if (!std::equal(framed.begin() + net::kFrameHeaderSize, framed.end(),
                    oracle.payload[idx].begin(), oracle.payload[idx].end()) &&
        ++mismatches <= 5) {
      result.fail("traced run: request id " + std::to_string(req.id) +
                  " differs from the oracle");
    }
    const std::int32_t root = spans.add("request", t0, t8, -1, i);
    spans.add("client.frame", t0, t1, root, i);
    spans.add("net.frame", t1, t2, root, i);
    spans.add("net.decode", t2, t3, root, i);
    spans.add("net.admission", t3, t4, root, i);
    spans.add("net.route", t4, t5, root, i);
    spans.add("svc.execute", t5b, t6, root, i);
    spans.add("net.encode", t6, t7, root, i);
    spans.add("client.decode", t7, t8, root, i);
    frame_us.push_back(us_between(t1, t2));
    decode_us.push_back(us_between(t2, t3));
    admit_us.push_back(us_between(t3, t4));
    route_us.push_back(us_between(t4, t5));
    encode_us.push_back(us_between(t6, t7));
    client_us.push_back(us_between(t0, t1) + us_between(t7, t8));
    pipeline_us.push_back(us_between(t0, t8) - us_between(t5, t5b));
    const double exec = us_between(t5b, t6);
    (miss ? miss_us : hit_us).push_back(exec);
    kind_us[static_cast<std::size_t>(svc::request_kind(req))].push_back(exec);
    bytes_in += static_cast<double>(wire.size() - net::kFrameHeaderSize);
    bytes_out += static_cast<double>(framed.size() - net::kFrameHeaderSize);
  }
  out.pipeline_p50_us = summarize(pipeline_us).p50;

  auto& m = out.metrics;
  add_timing(m, "net.frame", frame_us);
  add_timing(m, "net.decode", decode_us);
  add_timing(m, "net.encode", encode_us);
  add_timing(m, "net.admission", admit_us);
  add_timing(m, "net.route", route_us);
  add_timing(m, "net.client", client_us);
  const double requests = static_cast<double>(std::max<std::size_t>(1, n));
  m.push_back({"net.bytes_in", bytes_in / requests, "bytes"});
  m.push_back({"net.bytes_out", bytes_out / requests, "bytes"});
  add_timing(m, "svc.execute.hit", hit_us);
  add_timing(m, "svc.execute.miss", miss_us);
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    add_timing(m,
               std::string("svc.execute.") +
                   svc::to_string(static_cast<svc::QueryKind>(k)),
               kind_us[k]);
  }
  add_timing(m, "svc.overhead", overhead_us);
  for (const char* layer :
       {"core.coord", "core.profile", "core.frontier", "core.shift",
        "sim.node_build", "sim.steady_state", "sim.replay",
        "ctrl.closed_loop"}) {
    add_timing(m, layer, spans.durations_us(layer));
  }
  const double sweep_total = std::accumulate(sweep_s.begin(), sweep_s.end(), 0.0);
  m.push_back({"sim.sweep.budgets_per_s",
               sweep_total > 0.0 ? sweep_budgets / sweep_total : 0.0, "1/s"});
  add_cluster_metrics(m, spans.durations_us("core.cluster"), cluster_events,
                      cluster_runs, cluster_prep);
  return out;
}

void add_cluster_metrics(std::vector<Metric>& m,
                         const std::vector<double>& run_us, double events,
                         std::size_t runs, const NodePrepStats& prep) {
  const double total_us = std::accumulate(run_us.begin(), run_us.end(), 0.0);
  const double r = static_cast<double>(std::max<std::size_t>(1, runs));
  m.push_back({"core.cluster.us_per_event",
               events > 0.0 ? total_us / events : 0.0, "us"});
  m.push_back({"core.cluster.events", runs ? events / r : 0.0, "count"});
  m.push_back({"core.cluster.node_prep_s",
               runs ? static_cast<double>(prep.ns.load()) * 1e-9 / r : 0.0,
               "s"});
  m.push_back({"core.cluster.node_preps",
               runs ? static_cast<double>(prep.builds.load()) / r : 0.0,
               "count"});
}

}  // namespace perfbench
