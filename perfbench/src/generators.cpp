#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hw/platforms.hpp"
#include "net/codec.hpp"
#include "sim/cpu_node.hpp"
#include "sim/gpu_node.hpp"
#include "util/rng.hpp"
#include "workload/cpu_suite.hpp"
#include "workload/gpu_suite.hpp"
#include "workload/serialize.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace pbc;

namespace {

// Distinct RNG streams per generator part, so changing one part's draws
// never shifts another's.
enum Stream : std::uint64_t {
  kHotBudgets = 101,
  kHotOrder,
  kMixedDescriptors,
  kMixedItems,
  kMixedOrder,
  kMixedWarmup,
  kClusterVariants,
  kClusterJobs,
};

/// A suite workload with every phase's numeric knobs nudged by up to
/// `amount` (relative; efficiencies by half that): a distinct application
/// (hence a distinct cache key) that still validates.
[[nodiscard]] workload::Workload perturb(const workload::Workload& base,
                                         Xoshiro256& rng, std::size_t tag,
                                         double amount) {
  workload::Workload w = base;
  w.name += '~';
  w.name += std::to_string(tag);
  const auto nudge = [&](double a) { return rng.uniform(1.0 - a, 1.0 + a); };
  for (auto& ph : w.phases) {
    ph.flops_per_unit *= nudge(amount);
    ph.bytes_per_unit *= nudge(amount);
    ph.compute_eff = std::clamp(ph.compute_eff * nudge(amount / 2), 0.05, 1.0);
    ph.overlap = std::clamp(ph.overlap * nudge(amount / 2), 0.0, 1.0);
    ph.max_bw_frac = std::clamp(ph.max_bw_frac * nudge(amount / 2), 0.1, 1.0);
    ph.activity = std::clamp(ph.activity * nudge(amount / 2), 0.1, 1.0);
  }
  return w;
}

struct CpuDescriptor {
  hw::CpuMachine machine;
  workload::Workload wl;
};

struct GpuDescriptor {
  hw::GpuMachine machine;
  workload::Workload wl;
};

[[nodiscard]] svc::Request make_request(std::uint64_t id,
                                        svc::RequestOp op) {
  svc::Request req;
  req.id = id;
  req.op = std::move(op);
  return req;
}

[[nodiscard]] workload::PhaseTrace short_trace(const workload::Workload& wl,
                                               Xoshiro256& rng) {
  workload::TraceOptions opt;
  opt.total_units = rng.uniform(8.0, 16.0);
  opt.segment_units = 1.0;
  opt.irregularity = rng.uniform(0.0, 1.0);
  opt.seed = rng();
  return workload::generate_trace(wl, opt);
}

/// Inverse-CDF Zipf sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  [[nodiscard]] std::uint32_t draw(Xoshiro256& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

template <class T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv(h, &v, sizeof(v));
}

}  // namespace

RequestInputs make_hot_inputs(std::uint64_t seed, std::size_t stream_len) {
  Xoshiro256 rng(seed, kHotBudgets);
  RequestInputs in;
  std::vector<std::uint32_t> by_kind[3];
  const auto add = [&](int kind, svc::RequestOp op) {
    by_kind[kind].push_back(static_cast<std::uint32_t>(in.requests.size()));
    in.requests.push_back(make_request(in.requests.size() + 1, std::move(op)));
  };
  const std::vector<hw::CpuMachine> cpus{hw::ivybridge_node(),
                                         hw::haswell_node()};
  const std::vector<hw::GpuMachine> gpus{hw::titan_xp(), hw::titan_v()};
  for (const auto& m : cpus) {
    for (const auto& wl : workload::cpu_suite()) {
      for (const double b : {150.0, 190.0, 230.0, 270.0}) {
        add(0, svc::QueryCpuOp{m, wl, Watts{b + rng.uniform(-4.0, 4.0)},
                               core::CpuCoordVariant::kProportional});
      }
      for (const double cap : {80.0, 120.0}) {
        add(2, svc::SampleOp{m, wl, Watts{cap + rng.uniform(-2.0, 2.0)},
                             Watts{0.6 * cap + rng.uniform(-2.0, 2.0)}});
      }
    }
  }
  for (const auto& g : gpus) {
    for (const auto& wl : workload::gpu_suite()) {
      for (const double b : {120.0, 160.0, 200.0}) {
        add(1, svc::QueryGpuOp{g, wl, Watts{b + rng.uniform(-4.0, 4.0)},
                               0.5});
      }
    }
  }
  const auto draw_order = [&](Xoshiro256& r, std::size_t n) {
    std::vector<std::uint32_t> order(n);
    for (auto& o : order) {
      const double u = r.uniform();
      const int kind = u < 0.80 ? 0 : u < 0.92 ? 1 : 2;
      const auto& pool = by_kind[kind];
      o = pool[r.below(pool.size())];
    }
    return order;
  };
  Xoshiro256 order_rng(seed, kHotOrder);
  in.stream = draw_order(order_rng, stream_len);
  // Warm-up primes every entry once, in population order.
  in.warmup.resize(in.requests.size());
  for (std::size_t i = 0; i < in.warmup.size(); ++i) {
    in.warmup[i] = static_cast<std::uint32_t>(i);
  }
  return in;
}

RequestInputs make_mixed_inputs(std::uint64_t seed, std::size_t stream_len,
                                std::size_t warmup_len, const MixedParams& p) {
  Xoshiro256 drng(seed, kMixedDescriptors);
  const auto cpu_suite = workload::cpu_suite();
  const auto gpu_suite = workload::gpu_suite();
  std::vector<CpuDescriptor> cpu_desc;
  cpu_desc.reserve(p.cpu_descriptors);
  for (std::size_t d = 0; d < p.cpu_descriptors; ++d) {
    hw::CpuMachine m =
        drng.below(2) == 0 ? hw::ivybridge_node() : hw::haswell_node();
    cpu_desc.push_back(
        {std::move(m), perturb(cpu_suite[drng.below(cpu_suite.size())], drng,
                               d, 0.15)});
  }
  std::vector<GpuDescriptor> gpu_desc;
  gpu_desc.reserve(p.gpu_descriptors);
  for (std::size_t d = 0; d < p.gpu_descriptors; ++d) {
    hw::GpuMachine m = drng.below(2) == 0 ? hw::titan_xp() : hw::titan_v();
    gpu_desc.push_back(
        {std::move(m), perturb(gpu_suite[drng.below(gpu_suite.size())], drng,
                               d, 0.15)});
  }

  // Each kind has its own Zipf-ranked population (share x items), so
  // every kind's share of the traffic is the same for every seed; item j
  // of any kind uses descriptor j mod D, so the hot descriptors are shared
  // across kinds.
  Xoshiro256 rng(seed, kMixedItems);
  RequestInputs in;
  in.requests.reserve(p.items);
  std::vector<std::vector<std::uint32_t>> by_kind(svc::kQueryKindCount);
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    const auto kind = static_cast<svc::QueryKind>(k);
    const auto count = static_cast<std::size_t>(
        std::llround(p.kind_shares[k] * static_cast<double>(p.items)));
    for (std::size_t j = 0; j < count; ++j) {
      const CpuDescriptor& c = cpu_desc[j % cpu_desc.size()];
      const GpuDescriptor& g = gpu_desc[j % gpu_desc.size()];
      svc::Request req;
      req.id = in.requests.size() + 1;
      switch (kind) {
        case svc::QueryKind::kQueryCpu:
          req.op = svc::QueryCpuOp{c.machine, c.wl,
                                   Watts{rng.uniform(110.0, 280.0)},
                                   core::CpuCoordVariant::kProportional};
          break;
        case svc::QueryKind::kQueryGpu:
          req.op = svc::QueryGpuOp{g.machine, g.wl,
                                   Watts{rng.uniform(90.0, 250.0)}, 0.5};
          break;
        case svc::QueryKind::kSample:
          req.op = svc::SampleOp{c.machine, c.wl, Watts{rng.uniform(60.0, 150.0)},
                                 Watts{rng.uniform(30.0, 110.0)}};
          break;
        case svc::QueryKind::kFrontier: {
          svc::FrontierOp op;
          op.machine = c.machine;
          op.wl = c.wl;
          const double lo = rng.uniform(110.0, 140.0);
          const std::size_t n = 3 + rng.below(3);
          for (std::size_t b = 0; b < n; ++b) {
            op.budgets.push_back(Watts{lo + 30.0 * static_cast<double>(b)});
          }
          req.op = std::move(op);
          break;
        }
        case svc::QueryKind::kReplay: {
          svc::ReplayOp op;
          op.machine = c.machine;
          op.wl = c.wl;
          op.trace = short_trace(c.wl, rng);
          op.cpu_cap = Watts{rng.uniform(60.0, 150.0)};
          op.mem_cap = Watts{rng.uniform(30.0, 110.0)};
          req.op = std::move(op);
          break;
        }
        case svc::QueryKind::kShift: {
          svc::ShiftOp op;
          op.machine = c.machine;
          op.wl = c.wl;
          op.trace = short_trace(c.wl, rng);
          op.total_budget = Watts{rng.uniform(140.0, 260.0)};
          req.op = std::move(op);
          break;
        }
        case svc::QueryKind::kCluster: {
          svc::ClusterOp op;
          op.node_type = c.machine;
          op.gpu_type = g.machine;
          op.nodes = p.cluster_nodes;
          op.gpu_nodes = p.cluster_gpu_nodes;
          // Jobs run the unperturbed suites: every one of them can start on
          // this fleet, so a run completes all it is given.
          for (std::size_t j = 0; j < p.cluster_jobs; ++j) {
            core::SimJob job;
            const bool gpu = rng.uniform() < 0.15;
            job.wl = gpu ? gpu_suite[rng.below(gpu_suite.size())]
                         : cpu_suite[rng.below(cpu_suite.size())];
            job.name = 'j' + std::to_string(j);
            job.arrival = Seconds{rng.uniform(0.0, 600.0)};
            job.work_gunits = rng.uniform(50.0, 500.0);
            op.jobs.push_back(std::move(job));
          }
          op.global_budget =
              Watts{0.7 * (static_cast<double>(p.cluster_nodes) * 220.0 +
                           static_cast<double>(p.cluster_gpu_nodes) * 230.0)};
          op.queue_policy = core::QueuePolicy::kBackfill;
          req.options.cluster_path = core::ClusterPath::kEvent;
          req.op = std::move(op);
          break;
        }
        case svc::QueryKind::kOnline: {
          svc::OnlineOp op;
          op.machine = c.machine;
          op.wl = c.wl;
          op.trace = short_trace(c.wl, rng);
          op.total_budget = Watts{rng.uniform(140.0, 260.0)};
          req.options.seed = rng();
          req.op = std::move(op);
          break;
        }
      }
      by_kind[k].push_back(static_cast<std::uint32_t>(in.requests.size()));
      in.requests.push_back(std::move(req));
    }
  }

  std::vector<Zipf> zipf;
  std::vector<double> cum;
  double acc = 0.0;
  for (std::size_t k = 0; k < svc::kQueryKindCount; ++k) {
    zipf.emplace_back(std::max<std::size_t>(1, by_kind[k].size()), p.zipf_s);
    cum.push_back(acc += by_kind[k].empty() ? 0.0 : p.kind_shares[k]);
  }
  const auto draw = [&](Xoshiro256& r) {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cum.begin(), cum.end(), r.uniform() * acc) -
        cum.begin());
    return by_kind[k][zipf[k].draw(r)];
  };
  Xoshiro256 orng(seed, kMixedOrder);
  in.stream.resize(stream_len);
  for (auto& o : in.stream) o = draw(orng);
  Xoshiro256 wrng(seed, kMixedWarmup);
  in.warmup.resize(warmup_len);
  for (auto& o : in.warmup) o = draw(wrng);
  return in;
}

ClusterInputs make_cluster_inputs(std::uint64_t seed, const ClusterParams& p) {
  ClusterInputs in;
  in.seed = seed;
  in.cpu = hw::ivybridge_node();
  in.gpu = hw::titan_xp();

  Xoshiro256 vrng(seed, kClusterVariants);
  const auto cpu_suite = workload::cpu_suite();
  const auto gpu_suite = workload::gpu_suite();
  std::vector<workload::Workload> cpu_wls;
  std::vector<workload::Workload> gpu_wls;
  std::vector<double> cpu_rate;
  std::vector<double> gpu_rate;
  for (std::size_t v = 0; v < p.cpu_variants; ++v) {
    cpu_wls.push_back(
        perturb(cpu_suite[v % cpu_suite.size()], vrng, v, p.perturbation));
    cpu_rate.push_back(
        sim::CpuNodeSim(in.cpu, cpu_wls.back()).uncapped().rate_gunits);
  }
  for (std::size_t v = 0; v < p.gpu_variants; ++v) {
    gpu_wls.push_back(
        perturb(gpu_suite[v % gpu_suite.size()], vrng, v, p.perturbation));
    gpu_rate.push_back(sim::GpuNodeSim(in.gpu, gpu_wls.back())
                           .default_policy(in.gpu.gpu.board_max_cap)
                           .rate_gunits);
  }

  // Arrivals span half the zero-wait makespan, so the cluster runs
  // saturated (queues form, backfill matters) for most of the trace.
  const double mean_duration = 110.0;
  in.span_s = 0.5 * mean_duration * static_cast<double>(p.jobs) /
              static_cast<double>(p.cpu_nodes);
  const auto arrivals =
      core::diurnal_arrivals(p.jobs, Seconds{in.span_s}, Seconds{in.span_s / 2},
                             p.peak_to_trough, seed);
  Xoshiro256 rng(seed, kClusterJobs);
  in.jobs.reserve(p.jobs);
  for (std::size_t j = 0; j < p.jobs; ++j) {
    core::SimJob job;
    const bool gpu = rng.uniform() < p.gpu_fraction;
    if (gpu) {
      const std::size_t w = rng.below(gpu_wls.size());
      job.wl = gpu_wls[w];
      job.work_gunits = gpu_rate[w] * rng.uniform(20.0, 200.0);
    } else {
      const std::size_t w = rng.below(cpu_wls.size());
      job.wl = cpu_wls[w];
      job.work_gunits = cpu_rate[w] * rng.uniform(20.0, 200.0);
    }
    job.name = (gpu ? 'g' : 'c') + std::to_string(j);
    job.arrival = arrivals[j];
    in.jobs.push_back(std::move(job));
  }

  // Saturating but feasible: ~70% of every node drawing a typical full
  // demand at once, so power (not node count) is the contended resource.
  in.config.nodes = p.cpu_nodes;
  in.config.gpu_nodes = p.gpu_nodes;
  in.config.global_budget =
      Watts{0.7 * (static_cast<double>(p.cpu_nodes) * 220.0 +
                   static_cast<double>(p.gpu_nodes) * 230.0)};
  in.config.queue_policy = core::QueuePolicy::kBackfill;
  in.config.admission_control = true;
  in.config.path = core::ClusterPath::kEvent;
  return in;
}

ClusterSetup make_cluster_setup(const ClusterInputs& in,
                                const ClusterParams& p) {
  ClusterSetup s;
  s.hierarchy = core::uniform_hierarchy(in.config.nodes, in.config.gpu_nodes,
                                        in.config.global_budget, {32, 32});
  s.scenario = core::make_emergency_scenario(
      in.config.global_budget, Seconds{0.3 * in.span_s}, p.emergency_fraction,
      Seconds{0.1 * in.span_s});
  const core::ClusterScenario failures = core::make_failure_scenario(
      s.hierarchy, p.rack_failures, Seconds{in.span_s}, in.seed);
  s.scenario.failures = failures.failures;
  return s;
}

std::uint64_t fingerprint(const RequestInputs& in) {
  std::uint64_t h = 1469598103934665603ULL;
  std::vector<std::uint8_t> bytes;
  for (const auto& req : in.requests) {
    bytes.clear();
    net::encode_request(req, net::Codec::kBinary, bytes);
    fnv(h, bytes.data(), bytes.size());
  }
  fnv(h, in.stream.data(), in.stream.size() * sizeof(std::uint32_t));
  fnv(h, in.warmup.data(), in.warmup.size() * sizeof(std::uint32_t));
  return h;
}

std::uint64_t fingerprint(const std::vector<core::SimJob>& jobs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& j : jobs) {
    fnv(h, j.name.data(), j.name.size());
    const std::string text = workload::to_text(j.wl);
    fnv(h, text.data(), text.size());
    fnv_value(h, j.arrival.value());
    fnv_value(h, j.work_gunits);
  }
  return h;
}

std::string generator_self_test() {
  std::string failures;
  const auto check = [&](const char* what, std::uint64_t a, std::uint64_t b,
                         std::uint64_t other) {
    if (a != b) failures += std::string(what) + ": same seed differs; ";
    if (a == other) failures += std::string(what) + ": seed ignored; ";
  };
  check("hot", fingerprint(make_hot_inputs(7, 4096)),
        fingerprint(make_hot_inputs(7, 4096)),
        fingerprint(make_hot_inputs(8, 4096)));
  MixedParams mp;
  mp.items = 512;
  mp.cpu_descriptors = 96;
  mp.gpu_descriptors = 24;
  check("mixed", fingerprint(make_mixed_inputs(7, 4096, 1024, mp)),
        fingerprint(make_mixed_inputs(7, 4096, 1024, mp)),
        fingerprint(make_mixed_inputs(8, 4096, 1024, mp)));
  ClusterParams cp;
  cp.cpu_nodes = 256;
  cp.gpu_nodes = 32;
  cp.jobs = 2000;
  cp.cpu_variants = 8;
  cp.gpu_variants = 4;
  check("cluster", fingerprint(make_cluster_inputs(7, cp).jobs),
        fingerprint(make_cluster_inputs(7, cp).jobs),
        fingerprint(make_cluster_inputs(8, cp).jobs));
  return failures;
}

}  // namespace perfbench
