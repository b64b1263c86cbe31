// Seeded input generators, one per workload. Each is a pure function of
// its seed (and the sizes below): the program under test only ever sees
// the svc::Request values, stream orders and job traces built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_hier.hpp"
#include "core/cluster_sim.hpp"
#include "hw/machine.hpp"
#include "svc/request.hpp"

namespace perfbench {

namespace core = pbc::core;
namespace hw = pbc::hw;
namespace svc = pbc::svc;

/// A request population plus the order the generator sends it in:
/// stream[k] indexes `requests`. Streams are long enough for the largest
/// phase plan the workload runs.
struct RequestInputs {
  std::vector<svc::Request> requests;
  std::vector<std::uint32_t> stream;
  /// A separate order of the same population for warm-up, so the
  /// measured stream does not start on entries warm-up just touched.
  std::vector<std::uint32_t> warmup;
};

/// wire-hot: warm closed-form point queries. Every CPU suite workload on
/// both CPU platforms at four seed-jittered budgets (query_cpu), the GPU
/// suite on both cards at three budgets (query_gpu), and two seed-jittered
/// cap pairs per CPU descriptor (sample). Stream mix: 80% query_cpu, 12%
/// query_gpu, 8% sample, uniform within a kind.
[[nodiscard]] RequestInputs make_hot_inputs(std::uint64_t seed,
                                            std::size_t stream_len);

/// wire-mixed: `items` requests over perturbed suite descriptors, split
/// into one population per kind by the kind shares. The stream draws a
/// kind by its share, then an item of that kind by Zipf(s) rank; item j of
/// every kind uses descriptor j mod D of its domain, so descriptor
/// popularity is Zipf-shaped too. Cluster items run 64 unperturbed suite
/// jobs on 16 CPU + 2 GPU nodes.
struct MixedParams {
  std::size_t items = 24576;
  std::size_t cpu_descriptors = 3072;
  std::size_t gpu_descriptors = 768;
  double zipf_s = 1.0;
  /// Kind shares in svc::QueryKind order (query_cpu, query_gpu, sample,
  /// frontier, replay, shift, cluster, online).
  std::vector<double> kind_shares{0.45, 0.10, 0.10, 0.10,
                                  0.09, 0.08, 0.02, 0.06};
  std::size_t cluster_nodes = 16;
  std::size_t cluster_gpu_nodes = 2;
  std::size_t cluster_jobs = 64;
};
[[nodiscard]] RequestInputs make_mixed_inputs(std::uint64_t seed,
                                              std::size_t stream_len,
                                              std::size_t warmup_len,
                                              const MixedParams& p = {});

/// cluster-trace: a diurnal CPU+GPU job trace over a uniform budget tree
/// (32-node racks, 32-rack rows) under a facility-feed emergency plus rack
/// failures, for ClusterPath::kEvent.
struct ClusterParams {
  std::size_t cpu_nodes = 16384;
  std::size_t gpu_nodes = 2048;
  std::size_t jobs = 200000;
  double gpu_fraction = 0.15;
  std::size_t cpu_variants = 48;  ///< perturbed CPU suite workloads
  std::size_t gpu_variants = 16;  ///< perturbed GPU suite workloads
  /// Relative nudge of the variants' phase knobs: small, so the variants
  /// are distinct nodes to prepare but the fleet's power demand, and so
  /// the makespan, barely depends on the seed.
  double perturbation = 0.03;
  double peak_to_trough = 3.0;
  std::size_t rack_failures = 8;
  double emergency_fraction = 0.8;
};

struct ClusterInputs {
  hw::CpuMachine cpu;
  hw::GpuMachine gpu;
  std::vector<core::SimJob> jobs;
  /// Wire-safe config; hierarchy/scenario/pool pointers are set by the
  /// runner once it has built them (that construction is set-up time).
  core::ClusterSimConfig config;
  double span_s = 0.0;
  std::uint64_t seed = 0;
};
[[nodiscard]] ClusterInputs make_cluster_inputs(std::uint64_t seed,
                                                const ClusterParams& p = {});

/// The set-up the cluster runner times: the budget tree and the scripted
/// emergency + failure scenario for a trace.
struct ClusterSetup {
  core::HierarchySpec hierarchy;
  core::ClusterScenario scenario;
};
[[nodiscard]] ClusterSetup make_cluster_setup(const ClusterInputs& in,
                                              const ClusterParams& p = {});

/// FNV-1a digests for the generator self-test: requests via their binary
/// encoding plus the stream orders; jobs via name, workload text, arrival
/// and work bits.
[[nodiscard]] std::uint64_t fingerprint(const RequestInputs& in);
[[nodiscard]] std::uint64_t fingerprint(const std::vector<core::SimJob>& jobs);

/// Same seed -> identical encoded requests and job trace; a different
/// seed -> different ones. Runs every generator at reduced size; returns
/// an empty string on success, else what failed.
[[nodiscard]] std::string generator_self_test();

}  // namespace perfbench
