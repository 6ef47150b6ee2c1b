// Tests for the benchmark's own pieces: statistics, spans, the timing
// Transport decorator, and the per-operation checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/recommend.hpp"
#include "harness.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

std::vector<double> shuffled_range(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(Stats, TailIsTheRankWithTenSamplesBeyond) {
  const Tail t100 = tail(shuffled_range(100));
  EXPECT_EQ(t100.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.samples, 100);

  const Tail t25 = tail(shuffled_range(25));
  EXPECT_EQ(t25.value, 15.0);
  EXPECT_DOUBLE_EQ(t25.percentile, 60.0);

  const Tail t11 = tail(shuffled_range(11));
  EXPECT_EQ(t11.value, 1.0);
  EXPECT_GT(t11.percentile, 0.0);
}

TEST(Stats, ShortRunsClaimNoTail) {
  const Tail t = tail(shuffled_range(10));
  EXPECT_EQ(t.value, 1.0);
  EXPECT_EQ(t.percentile, 0.0);
  EXPECT_EQ(tail({}).samples, 0);
}

TEST(Stats, MedianAndNearestRankPercentile) {
  EXPECT_EQ(median(shuffled_range(5)), 3.0);
  EXPECT_EQ(median(shuffled_range(4)), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(percentile(shuffled_range(100), 50), 50.0);
  EXPECT_EQ(percentile(shuffled_range(100), 99), 99.0);
  EXPECT_EQ(percentile(shuffled_range(100), 100), 100.0);
  EXPECT_EQ(percentile(shuffled_range(3), 1), 1.0);
}

TEST(Spans, SelfTimesPartitionTheRootSpan) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "op", "bench", 0);
    {
      ScopedSpan child(&tracer, "call", "dist", 0);
      ScopedSpan grandchild(&tracer, "inner", "net", 0);
    }
    ScopedSpan sibling(&tracer, "check", "core", 0);
  }
  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 1);
  EXPECT_EQ(tracer.spans()[3].parent, 0);
  double total = 0.0;
  for (const auto& [layer, seconds] : tracer.self_seconds()) {
    EXPECT_GE(seconds, 0.0) << layer;
    total += seconds;
  }
  const Span& root = tracer.spans()[0];
  EXPECT_NEAR(total, root.end - root.start, 1e-9);
}

TEST(Spans, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, "op", "bench");  // must not crash
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Decorator transparency and checks on real factorizations
// ---------------------------------------------------------------------------

constexpr std::int64_t kNodes = 3;
constexpr std::int64_t kTiles = 8;
constexpr std::int64_t kTileSize = 4;

struct Problem {
  bool symmetric;
  std::shared_ptr<core::PatternDistribution> dist;
  linalg::TiledMatrix input;
  linalg::TiledMatrix reference;
  std::int64_t gather = 0;
  std::int64_t expected = 0;

  explicit Problem(bool sym) : symmetric(sym) {
    const core::Recommendation rec = core::recommend_pattern(
        kNodes, sym ? core::Kernel::kCholesky : core::Kernel::kLu);
    dist = std::make_shared<core::PatternDistribution>(rec.pattern, kTiles,
                                                       sym, rec.scheme);
    anyblock::Rng rng(11);
    input = sym ? linalg::tiled_spd(kTiles, kTileSize, rng)
                : linalg::tiled_diag_dominant(kTiles, kTileSize, rng);
    reference = input;
    EXPECT_TRUE(sym ? linalg::tiled_cholesky(reference)
                    : linalg::tiled_lu_nopiv(reference));
    gather = gather_messages(*dist, kTiles, sym);
    expected = sym ? core::exact_cholesky_messages(*dist, kTiles, {})
                   : core::exact_lu_messages(*dist, kTiles, {});
  }

  [[nodiscard]] dist::DistRunResult run() const {
    return symmetric ? dist::distributed_cholesky(input, *this->dist)
                     : dist::distributed_lu(input, *this->dist);
  }
};

std::string work_dir() {
  return (std::filesystem::temp_directory_path() / "perfbench-tests").string();
}

void expect_identical(const dist::DistRunResult& a,
                      const dist::DistRunResult& b) {
  const linalg::TiledMatrix& x = a.factored;
  ASSERT_EQ(x.tiles(), b.factored.tiles());
  for (std::int64_t i = 0; i < x.tiles(); ++i)
    for (std::int64_t j = 0; j < x.tiles(); ++j)
      EXPECT_EQ(std::memcmp(x.tile(i, j).data(), b.factored.tile(i, j).data(),
                            static_cast<std::size_t>(x.tile_elems()) *
                                sizeof(double)),
                0)
          << "tile (" << i << ", " << j << ")";
  ASSERT_EQ(a.report.per_rank.size(), b.report.per_rank.size());
  for (std::size_t r = 0; r < a.report.per_rank.size(); ++r) {
    EXPECT_EQ(a.report.per_rank[r].messages_sent,
              b.report.per_rank[r].messages_sent);
    EXPECT_EQ(a.report.per_rank[r].messages_received,
              b.report.per_rank[r].messages_received);
    EXPECT_EQ(a.report.per_rank[r].doubles_sent,
              b.report.per_rank[r].doubles_sent);
    EXPECT_EQ(a.report.per_rank[r].doubles_received,
              b.report.per_rank[r].doubles_received);
  }
}

class DecoratorTransparency : public ::testing::TestWithParam<bool> {};

TEST_P(DecoratorTransparency, FactorsAndPerRankCountsAreBitIdentical) {
  const Problem problem(GetParam());
  SocketMesh mesh(static_cast<int>(kNodes), work_dir());
  const auto call = [&] { return problem.run(); };
  const dist::DistRunResult plain = mesh.run(call, /*timed=*/false);
  const dist::DistRunResult timed = mesh.run(call, /*timed=*/true);
  const dist::DistRunResult inproc = problem.run();
  expect_identical(plain, timed);
  expect_identical(timed, inproc);
  EXPECT_EQ(check_factorization(timed, problem.reference, problem.symmetric,
                                problem.gather, problem.expected),
            "");

  // The decorator saw the cross-process traffic, and only in the timed run.
  const NetCounters counters = mesh.take_counters();
  const std::vector<double> delivery = mesh.take_delivery_us();
  EXPECT_GT(counters.frames, 0);
  EXPECT_EQ(static_cast<std::int64_t>(counters.send_us.size()),
            counters.frames);
  EXPECT_EQ(static_cast<std::int64_t>(delivery.size()), counters.frames);
  EXPECT_GT(counters.barrier_seconds, 0.0);
  EXPECT_LE(counters.frames, timed.report.total_messages());
}

INSTANTIATE_TEST_SUITE_P(Kernels, DecoratorTransparency,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& kernel) {
                           return kernel.param ? std::string("cholesky")
                                               : std::string("lu");
                         });

TEST(Checks, CorrectFactorizationPasses) {
  const Problem problem(false);
  const dist::DistRunResult result = problem.run();
  EXPECT_EQ(check_factorization(result, problem.reference, false,
                                problem.gather, problem.expected),
            "");
}

TEST(Checks, CorruptedFactorCountsAsAFailure) {
  const Problem problem(true);
  dist::DistRunResult result = problem.run();
  // Flip the lowest mantissa bit of one element below the diagonal.
  double& x = result.factored.tile(kTiles - 1, 0)[1];
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1u;
  std::memcpy(&x, &bits, sizeof bits);
  Tally tally;
  tally.record(check_factorization(result, problem.reference, true,
                                   problem.gather, problem.expected),
               "corrupted");
  EXPECT_EQ(tally.attempted, 1);
  EXPECT_EQ(tally.failed, 1);
}

TEST(Checks, WrongMessageCountCountsAsAFailure) {
  const Problem problem(false);
  const dist::DistRunResult result = problem.run();
  Tally tally;
  tally.record(check_factorization(result, problem.reference, false,
                                   problem.gather, problem.expected + 1),
               "miscounted");
  tally.record(check_factorization(result, problem.reference, false,
                                   problem.gather + 1, problem.expected),
               "miscounted gather");
  EXPECT_EQ(tally.attempted, 2);
  EXPECT_EQ(tally.failed, 2);
}

TEST(Checks, NumericalFailureCountsAsAFailure) {
  const Problem problem(false);
  dist::DistRunResult result = problem.run();
  result.ok = false;
  EXPECT_NE(check_factorization(result, problem.reference, false,
                                problem.gather, problem.expected),
            "");
}

TEST(Checks, SimulationMustMatchClosedFormAndRepeatExactly) {
  const Problem problem(true);
  sim::MachineConfig machine;
  machine.nodes = kNodes;
  machine.workload_mode = sim::WorkloadMode::kImplicit;
  const sim::SimReport first =
      sim::simulate_cholesky(kTiles, *problem.dist, machine);
  const sim::SimReport again =
      sim::simulate_cholesky(kTiles, *problem.dist, machine);
  EXPECT_EQ(check_simulation(first, problem.expected, nullptr), "");
  EXPECT_EQ(check_simulation(again, problem.expected, &first), "");
  EXPECT_NE(check_simulation(again, problem.expected + 1, &first), "");
  sim::SimReport drifted = again;
  drifted.makespan_seconds *= 1.0 + 1e-12;
  EXPECT_NE(check_simulation(drifted, problem.expected, &first), "");
  drifted = again;
  ++drifted.events;
  EXPECT_NE(check_simulation(drifted, problem.expected, &first), "");
}

TEST(Layers, FlopImbalanceOfOneNodeIsOne) {
  const Problem problem(false);
  const core::PatternDistribution one(
      core::recommend_pattern(1, core::Kernel::kLu).pattern, kTiles, false);
  EXPECT_DOUBLE_EQ(flop_imbalance(one, kTiles, kTileSize, false), 1.0);
  EXPECT_GE(flop_imbalance(*problem.dist, kTiles, kTileSize, false), 1.0);
}

TEST(Layers, FlowStatsPairsSendsWithReceives) {
  obs::Trace trace;
  obs::Track rank0{"rank 0", {}};
  obs::Track rank1{"rank 1", {}};
  obs::Event send;
  send.kind = obs::EventKind::kSend;
  send.start_seconds = send.end_seconds = 1.0;
  send.dest = 1;
  send.flow = 5;
  send.tag = 3;
  rank0.events.push_back(send);
  obs::Event recv = send;
  recv.kind = obs::EventKind::kRecv;
  recv.start_seconds = recv.end_seconds = 1.5;
  rank1.events.push_back(recv);
  obs::Event gather_send = send;  // gather band: tag >= floor
  gather_send.flow = 6;
  gather_send.tag = 100;
  gather_send.start_seconds = gather_send.end_seconds = 2.0;
  rank1.events.push_back(gather_send);
  obs::Event gather_recv = gather_send;
  gather_recv.kind = obs::EventKind::kRecv;
  gather_recv.start_seconds = gather_recv.end_seconds = 2.25;
  rank0.events.push_back(gather_recv);
  trace.tracks = {rank0, rank1};

  const FlowStats stats = flow_stats(trace, /*gather_tag_floor=*/64);
  EXPECT_EQ(stats.recv_events, 2);
  ASSERT_EQ(stats.tile_age_us.size(), 2u);
  std::vector<double> ages = stats.tile_age_us;
  std::sort(ages.begin(), ages.end());
  EXPECT_NEAR(ages[0], 0.25e6, 1e-3);
  EXPECT_NEAR(ages[1], 0.5e6, 1e-3);
  EXPECT_NEAR(stats.gather_seconds, 0.25, 1e-12);
}

}  // namespace
}  // namespace perfbench
