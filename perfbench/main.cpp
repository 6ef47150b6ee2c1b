// The repository benchmark program (see README.md).
//
//   perfbench --workload inproc-dense|socket-small|sim-paper --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// One client, closed loop: each cycle runs a real LU, a real Cholesky, a
// simulated LU and a simulated Cholesky, one at a time, and checks every
// result.  --trace 0 prints the end-to-end metrics; --trace 1 is a separate
// run that adds spans around every layer call, layer probes and traced
// operations, and prints the per-layer metrics.  The last stdout line is
// one JSON object {correct, attempted, failed, metrics}.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "core/pattern_search.hpp"
#include "core/recommend.hpp"
#include "harness.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/kernels.hpp"
#include "util/rng.hpp"
#include "util/sysinfo.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using anyblock::Rng;

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 7;

/// Real factorizations always run on P = 3 ranks: the paper's "any number
/// of nodes" case, and few enough threads for a 4-core host that the host's
/// scheduling noise stays small (23 or 31 rank threads doubled their run
/// time whenever the host got busy).
constexpr std::int64_t kRealNodes = 3;

struct WorkloadSpec {
  const char* name;
  std::int64_t tiles;        ///< real factorization: t x t tiles ...
  std::int64_t tile_size;    ///< ... of nb x nb doubles
  bool sockets;              ///< real ranks over the loopback socket mesh
  std::int64_t lu_nodes;     ///< P of the simulated LU
  std::int64_t chol_nodes;   ///< P of the simulated Cholesky
  std::int64_t sim_tiles;    ///< t of the simulated factorizations
};

// Why each workload exists: README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"inproc-dense", 32, 64, false, 3, 3, 32},
    {"socket-small", 128, 8, true, 3, 3, 128},
    {"sim-paper", 16, 64, false, 23, 31, 160},
};

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

/// One factorization kernel of the workload: its pattern, distributions,
/// input, reference and samples.
struct KernelState {
  const char* name = "";  ///< "lu" | "chol"
  bool symmetric = false;
  std::int64_t nodes = 0;        ///< P of the simulation
  core::Recommendation rec;      ///< for the real runs (kRealNodes)
  core::Recommendation sim_rec;  ///< for the simulation (nodes)
  std::shared_ptr<core::PatternDistribution> dist;      ///< real grid
  std::shared_ptr<core::PatternDistribution> sim_dist;  ///< simulated grid
  linalg::TiledMatrix input;
  linalg::TiledMatrix reference;
  std::int64_t gather = 0;
  std::int64_t expected_messages = 0;
  std::int64_t sim_expected_messages = 0;
  std::optional<sim::SimReport> first_sim;

  std::vector<double> factorize_s, simulate_s;                ///< untraced
  std::vector<double> traced_factorize_s, traced_simulate_s;  ///< traced
  std::vector<double> events_per_s;
  dist::DistRunResult last_result;  ///< of the latest traced factorization
};

struct Run {
  Options options;
  const WorkloadSpec& spec;
  Tracer* tracer = nullptr;
  KernelState kernels[2];
  std::unique_ptr<SocketMesh> mesh;
  Tally tally;
  std::int64_t next_op = 0;

  explicit Run(const Options& o) : options(o), spec(*o.workload) {
    kernels[0].name = "lu";
    kernels[0].nodes = spec.lu_nodes;
    kernels[1].name = "chol";
    kernels[1].symmetric = true;
    kernels[1].nodes = spec.chol_nodes;
  }
};

// ---------------------------------------------------------------------------
// Set-up, reference, operations
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total = 0.0, recommend = 0.0, generate = 0.0, mesh = 0.0;
};

/// Pattern choice, distribution build, input generation and (socket
/// workloads) mesh bring-up.  Deterministic in the seed, so repeating it
/// rebuilds identical state.
SetupTimes setup(Run& run) {
  ScopedSpan top(run.tracer, "setup", "bench");
  SetupTimes times;
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < 2; ++k) {
    KernelState& ks = run.kernels[k];
    Clock::time_point phase = Clock::now();
    {
      ScopedSpan span(run.tracer, "core.recommend_pattern", "core");
      const core::Kernel kernel =
          ks.symmetric ? core::Kernel::kCholesky : core::Kernel::kLu;
      ks.rec = core::recommend_pattern(kRealNodes, kernel);
      ks.sim_rec = ks.nodes == kRealNodes
                       ? ks.rec
                       : core::recommend_pattern(ks.nodes, kernel);
    }
    times.recommend += seconds_since(phase);
    {
      ScopedSpan span(run.tracer, "core.PatternDistribution", "core");
      ks.dist = std::make_shared<core::PatternDistribution>(
          ks.rec.pattern, run.spec.tiles, ks.symmetric, ks.rec.scheme);
      ks.sim_dist = std::make_shared<core::PatternDistribution>(
          ks.sim_rec.pattern, run.spec.sim_tiles, ks.symmetric,
          ks.sim_rec.scheme);
    }
    phase = Clock::now();
    {
      ScopedSpan span(run.tracer, "linalg.generate", "linalg");
      Rng rng =
          Rng::for_stream(run.options.seed, static_cast<std::uint64_t>(k));
      ks.input = ks.symmetric ? linalg::tiled_spd(run.spec.tiles,
                                                  run.spec.tile_size, rng)
                              : linalg::tiled_diag_dominant(
                                    run.spec.tiles, run.spec.tile_size, rng);
    }
    times.generate += seconds_since(phase);
  }
  if (run.spec.sockets) {
    const Clock::time_point phase = Clock::now();
    ScopedSpan span(run.tracer, "net.mesh_setup", "net");
    run.mesh.reset();
    run.mesh = std::make_unique<SocketMesh>(static_cast<int>(kRealNodes),
                                            run.options.work_dir);
    times.mesh = seconds_since(phase);
  }
  times.total = seconds_since(start);
  return times;
}

/// Sequential references and closed forms, computed once per run outside
/// setup_s.  Returns the sequential seconds per kernel.
std::pair<double, double> prepare_references(Run& run) {
  ScopedSpan top(run.tracer, "reference", "bench");
  double seq[2] = {0.0, 0.0};
  for (int k = 0; k < 2; ++k) {
    KernelState& ks = run.kernels[k];
    {
      ScopedSpan span(run.tracer, "core.exact_messages", "core");
      ks.gather = gather_messages(*ks.dist, run.spec.tiles, ks.symmetric);
      ks.expected_messages =
          ks.symmetric
              ? core::exact_cholesky_messages(*ks.dist, run.spec.tiles, {})
              : core::exact_lu_messages(*ks.dist, run.spec.tiles, {});
      ks.sim_expected_messages =
          ks.symmetric ? core::exact_cholesky_messages(*ks.sim_dist,
                                                       run.spec.sim_tiles, {})
                       : core::exact_lu_messages(*ks.sim_dist,
                                                 run.spec.sim_tiles, {});
    }
    ks.reference = ks.input;
    ScopedSpan span(run.tracer,
                    ks.symmetric ? "linalg.tiled_cholesky"
                                 : "linalg.tiled_lu_nopiv",
                    "linalg");
    const Clock::time_point start = Clock::now();
    const bool ok = ks.symmetric ? linalg::tiled_cholesky(ks.reference)
                                 : linalg::tiled_lu_nopiv(ks.reference);
    seq[k] = seconds_since(start);
    if (!ok)
      throw std::runtime_error(std::string("sequential reference of ") +
                               ks.name + " failed");
  }
  return {seq[0], seq[1]};
}

dist::DistRunResult call_factorization(const KernelState& ks,
                                       obs::Recorder* recorder) {
  return ks.symmetric
             ? dist::distributed_cholesky(ks.input, *ks.dist, {}, recorder)
             : dist::distributed_lu(ks.input, *ks.dist, {}, recorder);
}

/// One real factorization; returns its wall seconds (the dist call only).
double factorize(Run& run, KernelState& ks, obs::Recorder* recorder,
                 bool timed_net, SocketMesh* mesh) {
  const std::int64_t op = run.next_op++;
  ScopedSpan top(run.tracer, ks.symmetric ? "op.chol.factorize"
                                          : "op.lu.factorize",
                 "bench", op);
  dist::DistRunResult result;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(run.tracer,
                    ks.symmetric ? "dist.distributed_cholesky"
                                 : "dist.distributed_lu",
                    "dist", op);
    if (mesh != nullptr)
      result = mesh->run([&] { return call_factorization(ks, recorder); },
                         timed_net);
    else
      result = call_factorization(ks, recorder);
  }
  const double seconds = seconds_since(start);
  {
    ScopedSpan span(run.tracer, "verify", "bench", op);
    run.tally.record(check_factorization(result, ks.reference, ks.symmetric,
                                         ks.gather, ks.expected_messages),
                     ks.symmetric ? "chol factorize" : "lu factorize");
  }
  if (recorder != nullptr) ks.last_result = std::move(result);
  return seconds;
}

/// One simulation on the default PlaFRIM machine model, implicit DAG.
double simulate(Run& run, KernelState& ks, sim::SimReport* out) {
  const std::int64_t op = run.next_op++;
  ScopedSpan top(run.tracer, ks.symmetric ? "op.chol.simulate"
                                          : "op.lu.simulate",
                 "bench", op);
  sim::MachineConfig machine;
  machine.nodes = ks.nodes;
  machine.workload_mode = sim::WorkloadMode::kImplicit;
  sim::SimReport report;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(run.tracer,
                    ks.symmetric ? "sim.simulate_cholesky" : "sim.simulate_lu",
                    "sim", op);
    report = ks.symmetric
                 ? sim::simulate_cholesky(run.spec.sim_tiles, *ks.sim_dist,
                                          machine)
                 : sim::simulate_lu(run.spec.sim_tiles, *ks.sim_dist, machine);
  }
  const double seconds = seconds_since(start);
  {
    ScopedSpan span(run.tracer, "verify", "bench", op);
    run.tally.record(check_simulation(report, ks.sim_expected_messages,
                                      ks.first_sim ? &*ks.first_sim : nullptr),
                     ks.symmetric ? "chol simulate" : "lu simulate");
  }
  if (!ks.first_sim) ks.first_sim = report;
  if (out != nullptr) *out = std::move(report);
  return seconds;
}

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += run.tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.tally.attempted);
  json += ", \"failed\": " + std::to_string(run.tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_host(const Run& run) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double n = static_cast<double>(run.spec.tiles * run.spec.tile_size);
  std::printf(
      "host: nproc=%u l2_bytes=%ld l3_bytes=%ld compiler=\"g++ %s\" "
      "build_type=%s workload=%s seed=%llu seconds=%g trace=%d\n",
      std::thread::hardware_concurrency(), l2, l3, __VERSION__,
      PERFBENCH_BUILD_TYPE, run.spec.name,
      static_cast<unsigned long long>(run.options.seed), run.options.seconds,
      run.options.trace ? 1 : 0);
  std::printf(
      "working set: n=%lld, %.1f MB per matrix (input, factor and reference "
      "each) against a %.1f MB L3\n",
      static_cast<long long>(n), n * n * 8.0 / 1e6,
      static_cast<double>(l3) / 1e6);
}

std::string tail_note(const char* name, const std::vector<double>& samples) {
  const Tail t = tail(samples);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s: n=%lld p50=%.6g tail=p%.1f %.6g\n",
                name, static_cast<long long>(t.samples), median(samples),
                t.percentile, t.value);
  return line;
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)
// ---------------------------------------------------------------------------

std::vector<Metric> run_end_to_end(Run& run) {
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) setup_s.push_back(setup(run).total);
  prepare_references(run);
  SocketMesh* mesh = run.mesh.get();

  const auto cycle = [&](bool keep) {
    for (KernelState& ks : run.kernels) {
      const double s = factorize(run, ks, nullptr, false, mesh);
      if (keep) ks.factorize_s.push_back(s);
    }
    for (KernelState& ks : run.kernels) {
      const double s = simulate(run, ks, nullptr);
      if (keep) ks.simulate_s.push_back(s);
    }
  };
  cycle(false);  // warm-up: checked, not timed
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < run.options.seconds) cycle(true);

  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", median(setup_s), "s"});
  for (const KernelState& ks : run.kernels) {
    const std::string k = ks.name;
    const std::int64_t n = run.spec.tiles * run.spec.tile_size;
    const double flops = ks.symmetric ? linalg::cholesky_total_flops(n)
                                      : linalg::lu_total_flops(n);
    const double p50 = median(ks.factorize_s);
    metrics.push_back({k + ".factorize_s.p50", p50, "s"});
    metrics.push_back(
        {k + ".factorize_s.tail", tail(ks.factorize_s).value, "s"});
    metrics.push_back({k + ".gflops", flops / p50 / 1e9, "GFlop/s"});
    std::fputs(tail_note((k + ".factorize_s").c_str(), ks.factorize_s).c_str(),
               stdout);
  }
  for (const KernelState& ks : run.kernels) {
    const std::string k = ks.name;
    metrics.push_back({k + ".simulate_s.p50", median(ks.simulate_s), "s"});
    metrics.push_back(
        {k + ".simulate_s.tail", tail(ks.simulate_s).value, "s"});
    std::fputs(tail_note((k + ".simulate_s").c_str(), ks.simulate_s).c_str(),
               stdout);
  }
  std::printf("error_rate: %lld failed of %lld attempted\n",
              static_cast<long long>(run.tally.failed),
              static_cast<long long>(run.tally.attempted));
  metrics.push_back({"success_rate",
                     1.0 - static_cast<double>(run.tally.failed) /
                               static_cast<double>(run.tally.attempted),
                     "frac"});
  metrics.push_back({"peak_rss_mb",
                     static_cast<double>(anyblock::peak_rss_bytes()) / 1e6,
                     "MB"});
  return metrics;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------------

/// GFlop/s of one tile kernel at nb on this thread: a batch of fresh tiles
/// is restored untimed before every timed pass, so in-place kernels always
/// see well-conditioned inputs.
template <typename Kernel>
double kernel_gflops(const std::vector<double>& pristine, std::int64_t nb,
                     double flops_per_call, Kernel&& kernel) {
  const auto elems = static_cast<std::size_t>(nb * nb);
  const std::size_t batch = std::max<std::size_t>(1, (std::size_t{2} << 20) /
                                                         (elems * 8));
  std::vector<double> tiles(batch * elems);
  double timed = 0.0;
  std::int64_t calls = 0;
  while (timed < 0.05) {
    for (std::size_t b = 0; b < batch; ++b)
      std::copy(pristine.begin(), pristine.end(),
                tiles.begin() + static_cast<std::ptrdiff_t>(b * elems));
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; b < batch; ++b)
      kernel(std::span<double>(tiles.data() + b * elems, elems));
    timed += seconds_since(start);
    calls += static_cast<std::int64_t>(batch);
  }
  return flops_per_call * static_cast<double>(calls) / timed / 1e9;
}

void kernel_probes(Run& run, std::vector<Metric>& metrics) {
  ScopedSpan top(run.tracer, "probe.kernels", "bench");
  const std::int64_t nb = run.spec.tile_size;
  Rng rng(anyblock::split_seed(run.options.seed, 99));
  const linalg::DenseMatrix dd = linalg::diag_dominant_matrix(nb, rng);
  const linalg::DenseMatrix spd = linalg::spd_matrix(nb, rng);
  const linalg::TiledMatrix dd_tile = linalg::TiledMatrix::from_dense(dd, nb);
  const linalg::TiledMatrix spd_tile = linalg::TiledMatrix::from_dense(spd, nb);
  const std::vector<double> general(dd_tile.tile(0, 0).begin(),
                                    dd_tile.tile(0, 0).end());
  const std::vector<double> spd_v(spd_tile.tile(0, 0).begin(),
                                  spd_tile.tile(0, 0).end());
  std::vector<double> lu = general;
  linalg::getrf_nopiv(lu, nb);
  const auto rate = [&](const char* span, const char* metric, auto&& body) {
    ScopedSpan s(run.tracer, span, "linalg");
    metrics.push_back({metric, body(), "GFlop/s"});
  };
  rate("linalg.gemm_update", "linalg.gemm_gflops", [&] {
    return kernel_gflops(general, nb, linalg::gemm_flops(nb),
                         [&](std::span<double> c) {
                           linalg::gemm_update(general, spd_v, c, nb);
                         });
  });
  rate("linalg.syrk_update_lower", "linalg.syrk_gflops", [&] {
    return kernel_gflops(spd_v, nb, linalg::syrk_flops(nb),
                         [&](std::span<double> c) {
                           linalg::syrk_update_lower(general, c, nb);
                         });
  });
  rate("linalg.trsm_right_upper", "linalg.trsm_gflops", [&] {
    return kernel_gflops(general, nb, linalg::trsm_flops(nb),
                         [&](std::span<double> b) {
                           linalg::trsm_right_upper(lu, b, nb);
                         });
  });
  rate("linalg.getrf_nopiv", "linalg.getrf_gflops", [&] {
    return kernel_gflops(general, nb, linalg::getrf_flops(nb),
                         [&](std::span<double> a) {
                           if (!linalg::getrf_nopiv(a, nb))
                             throw std::runtime_error("getrf probe failed");
                         });
  });
  rate("linalg.potrf_lower", "linalg.potrf_gflops", [&] {
    return kernel_gflops(spd_v, nb, linalg::potrf_flops(nb),
                         [&](std::span<double> a) {
                           if (!linalg::potrf_lower(a, nb))
                             throw std::runtime_error("potrf probe failed");
                         });
  });
}

void gcrm_probe(Run& run, std::vector<Metric>& metrics) {
  ScopedSpan span(run.tracer, "core.gcrm_search", "core");
  core::GcrmSweepProfile profile;
  (void)core::gcrm_search(run.kernels[1].nodes, core::GcrmSearchOptions{},
                          false, &profile);
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  metrics.push_back(
      {"core.gcrm.attempts_built", count(profile.attempts_built), "count"});
  metrics.push_back({"core.gcrm.attempts_abandoned",
                     count(profile.attempts_abandoned), "count"});
  metrics.push_back(
      {"core.gcrm.attempts_skipped", count(profile.attempts_skipped), "count"});
  const std::int64_t attempted =
      profile.attempts_built + profile.attempts_abandoned;
  metrics.push_back({"core.gcrm.useful_frac",
                     attempted > 0 ? count(profile.attempts_built) /
                                         count(attempted)
                                   : 0.0,
                     "frac"});
  metrics.push_back(
      {"core.gcrm.phase1_s", profile.timings.phase1_seconds, "s"});
  metrics.push_back({"core.gcrm.match_s", profile.timings.match_seconds, "s"});
}

/// Net metrics from one batch of decorated socket factorizations.
struct NetSample {
  NetCounters counters;
  std::vector<double> delivery_us;
  double wall_seconds = 0.0;
  std::int64_t pairs = 0;  ///< LU + Cholesky pairs the counters cover

  void add(SocketMesh& mesh, double wall) {
    counters.merge(mesh.take_counters());
    std::vector<double> d = mesh.take_delivery_us();
    delivery_us.insert(delivery_us.end(), d.begin(), d.end());
    wall_seconds += wall;
  }
};

std::vector<Metric> run_traced(Run& run, Tracer& tracer) {
  run.tracer = &tracer;
  std::vector<Metric> metrics;
  std::vector<double> recommend_s, generate_s, mesh_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const SetupTimes t = setup(run);
    recommend_s.push_back(t.recommend);
    generate_s.push_back(t.generate);
    mesh_s.push_back(t.mesh);
  }
  const auto [lu_seq, chol_seq] = prepare_references(run);
  metrics.push_back({"linalg.generate_s", median(generate_s), "s"});
  metrics.push_back({"core.recommend_s", median(recommend_s), "s"});
  kernel_probes(run, metrics);
  metrics.push_back({"linalg.lu.seq_s", lu_seq, "s"});
  metrics.push_back({"linalg.chol.seq_s", chol_seq, "s"});

  metrics.push_back({"core.lu.pattern_cost",
                     core::lu_cost(run.kernels[0].sim_rec.pattern), "cost"});
  metrics.push_back({"core.chol.pattern_cost",
                     core::cholesky_cost(run.kernels[1].sim_rec.pattern),
                     "cost"});
  gcrm_probe(run, metrics);

  // Net: the workload's own factorizations through the timing decorator —
  // every traced cycle on socket workloads, one probe pair elsewhere.
  NetSample net_sample;
  if (!run.spec.sockets) {
    ScopedSpan span(run.tracer, "probe.net", "bench");
    const Clock::time_point start = Clock::now();
    std::unique_ptr<SocketMesh> probe_mesh;
    {
      ScopedSpan setup_span(run.tracer, "net.mesh_setup", "net");
      probe_mesh = std::make_unique<SocketMesh>(static_cast<int>(kRealNodes),
                                                run.options.work_dir);
    }
    mesh_s.assign(1, seconds_since(start));  // set-up built no mesh here
    const Clock::time_point wall = Clock::now();
    for (KernelState& ks : run.kernels)
      (void)factorize(run, ks, nullptr, true, probe_mesh.get());
    net_sample.add(*probe_mesh, seconds_since(wall));
    net_sample.pairs = 1;
  }

  // Alternate traced and untraced cycles.
  obs::Recorder recorder;
  std::vector<double> recv_events, tile_age_us, gather_s, sim_build_s;
  std::int64_t traced_cycles = 0;
  const auto cycle = [&](bool traced, bool keep) {
    Tracer* saved = run.tracer;
    if (!traced) run.tracer = nullptr;
    double cycle_recv = 0.0, cycle_gather = 0.0;
    const Clock::time_point wall = Clock::now();
    for (KernelState& ks : run.kernels) {
      const double s = factorize(run, ks, traced ? &recorder : nullptr, traced,
                                 run.mesh.get());
      if (keep) (traced ? ks.traced_factorize_s : ks.factorize_s).push_back(s);
      if (!traced) continue;
      ScopedSpan span(run.tracer, "obs.flow_stats", "obs");
      const FlowStats fs =
          flow_stats(recorder.take(), run.spec.tiles * run.spec.tiles);
      cycle_recv += static_cast<double>(fs.recv_events);
      cycle_gather += fs.gather_seconds;
      tile_age_us.insert(tile_age_us.end(), fs.tile_age_us.begin(),
                         fs.tile_age_us.end());
    }
    const double real_wall = seconds_since(wall);
    sim::SimReport reports[2];
    for (int k = 0; k < 2; ++k) {
      KernelState& ks = run.kernels[k];
      const double s = simulate(run, ks, &reports[k]);
      if (!keep) continue;
      (traced ? ks.traced_simulate_s : ks.simulate_s).push_back(s);
      if (traced && reports[k].run_seconds > 0.0)
        ks.events_per_s.push_back(static_cast<double>(reports[k].events) /
                                  reports[k].run_seconds);
    }
    run.tracer = saved;
    if (!traced || !keep) return;
    ++traced_cycles;
    recv_events.push_back(cycle_recv);
    gather_s.push_back(cycle_gather);
    sim_build_s.push_back(reports[0].build_seconds + reports[1].build_seconds);
    if (run.spec.sockets) {
      net_sample.add(*run.mesh, real_wall);
      ++net_sample.pairs;
    }
  };
  cycle(true, false);  // warm-up
  if (run.spec.sockets) {  // drop the warm-up's net counters
    (void)run.mesh->take_counters();
    (void)run.mesh->take_delivery_us();
  }
  const Clock::time_point start = Clock::now();
  // At least one traced and one untraced cycle, whatever --seconds says.
  for (bool traced = true; seconds_since(start) < run.options.seconds ||
                           run.kernels[0].factorize_s.empty();
       traced = !traced)
    cycle(traced, true);

  // dist
  double traced_sum = 0.0, untraced_sum = 0.0;
  for (KernelState& ks : run.kernels) {
    const std::string k = ks.name;
    const vmpi::RunReport& report = ks.last_result.report;
    metrics.push_back({"dist." + k + ".messages",
                       static_cast<double>(report.total_messages()), "count"});
    metrics.push_back(
        {"dist." + k + ".mb",
         static_cast<double>(report.total_doubles()) * 8.0 / 1e6, "MB"});
    metrics.push_back({"dist." + k + ".flop_imbalance",
                       flop_imbalance(*ks.dist, run.spec.tiles,
                                      run.spec.tile_size, ks.symmetric),
                       "ratio"});
    const double untraced = median(ks.factorize_s);
    metrics.push_back({"dist." + k + ".speedup_vs_seq",
                       (ks.symmetric ? chol_seq : lu_seq) / untraced, "ratio"});
    traced_sum += median(ks.traced_factorize_s) + median(ks.traced_simulate_s);
    untraced_sum += untraced + median(ks.simulate_s);
  }
  metrics.push_back({"dist.gather_s", median(gather_s), "s"});

  // vmpi / obs
  metrics.push_back({"vmpi.recv_events", median(recv_events), "count"});
  metrics.push_back(
      {"vmpi.tile_age_us.p50", percentile(tile_age_us, 50), "us"});
  metrics.push_back(
      {"vmpi.tile_age_us.p99", percentile(tile_age_us, 99), "us"});
  metrics.push_back({"obs.trace_overhead_frac",
                     untraced_sum > 0 ? traced_sum / untraced_sum : 0.0,
                     "ratio"});

  // net
  const NetCounters& nc = net_sample.counters;
  const double pairs = static_cast<double>(std::max<std::int64_t>(
      net_sample.pairs, 1));
  const double mb = static_cast<double>(nc.payload_bytes) / 1e6;
  metrics.push_back({"net.mesh_setup_s", median(mesh_s), "s"});
  metrics.push_back(
      {"net.frames", static_cast<double>(nc.frames) / pairs, "count"});
  metrics.push_back({"net.mb", mb / pairs, "MB"});
  metrics.push_back({"net.send_us.p50", percentile(nc.send_us, 50), "us"});
  metrics.push_back({"net.send_us.p99", percentile(nc.send_us, 99), "us"});
  metrics.push_back(
      {"net.delivery_us.p50", percentile(net_sample.delivery_us, 50), "us"});
  metrics.push_back(
      {"net.delivery_us.p99", percentile(net_sample.delivery_us, 99), "us"});
  metrics.push_back({"net.mb_per_s",
                     net_sample.wall_seconds > 0
                         ? mb / net_sample.wall_seconds
                         : 0.0,
                     "MB/s"});
  metrics.push_back({"net.barrier_s", nc.barrier_seconds / pairs, "s"});

  // sim
  for (KernelState& ks : run.kernels) {
    const std::string k = ks.name;
    const sim::SimReport& r = *ks.first_sim;
    metrics.push_back(
        {"sim." + k + ".events", static_cast<double>(r.events), "count"});
    metrics.push_back(
        {"sim." + k + ".events_per_s", median(ks.events_per_s), "1/s"});
    metrics.push_back({"sim." + k + ".frontier_peak",
                       static_cast<double>(r.frontier_peak), "count"});
    metrics.push_back({"sim." + k + ".makespan_s", r.makespan_seconds,
                       "virtual_s"});
  }
  metrics.push_back({"sim.build_s", median(sim_build_s), "s"});

  // Self time per layer over the whole traced run.
  const std::map<std::string, double> self = tracer.self_seconds();
  for (const char* layer :
       {"bench", "linalg", "core", "dist", "sim", "net", "obs"}) {
    const auto it = self.find(layer);
    metrics.push_back({std::string(layer) + ".self_s",
                       it != self.end() ? it->second : 0.0, "s"});
  }
  std::printf("traced cycles: %lld\n", static_cast<long long>(traced_cycles));
  return metrics;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload inproc-dense|socket-small|"
               "sim-paper --seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads)
        if (value == w.name) o.workload = &w;
      if (o.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (o.workload == nullptr || !have_seed || !have_seconds || !have_trace)
    return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse(argc, argv);
  if (!options) {
    usage();
    return 2;
  }
  try {
    Run run(*options);
    print_host(run);
    std::vector<Metric> metrics;
    if (options->trace) {
      Tracer tracer;
      metrics = run_traced(run, tracer);
      std::filesystem::create_directories(options->work_dir);
      const std::string path = options->work_dir + "/spans-" +
                               options->workload->name + "-" +
                               std::to_string(options->seed) + ".json";
      if (!tracer.write_json(path))
        throw std::runtime_error("cannot write " + path);
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
    } else {
      metrics = run_end_to_end(run);
    }
    run.mesh.reset();
    print_result(run, metrics);
    return run.tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
