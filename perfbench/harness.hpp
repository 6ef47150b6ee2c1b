// Building blocks of the repository benchmark (see README.md): sample
// statistics, the in-memory span tracer, the timing Transport decorator,
// the loopback socket mesh, and the per-operation correctness checks.
// Everything here calls the anyblock libraries through their public
// headers only; nothing is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/distribution.hpp"
#include "dist/dist_factorization.hpp"
#include "linalg/tiled_matrix.hpp"
#include "net/socket_transport.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "vmpi/transport.hpp"

namespace perfbench {

namespace core = anyblock::core;
namespace dist = anyblock::dist;
namespace linalg = anyblock::linalg;
namespace net = anyblock::net;
namespace obs = anyblock::obs;
namespace sim = anyblock::sim;
namespace vmpi = anyblock::vmpi;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  p in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The tail reported beside a median: the highest percentile that still
/// has at least `beyond` samples strictly above its rank.  With n sorted
/// samples that is the sample at 1-based rank n - beyond, reported as the
/// percentile 100 (n - beyond) / n.  Fewer than beyond + 1 samples give
/// the minimum with percentile 0, so a short run never claims a tail.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::int64_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> samples, std::int64_t beyond = 10);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call from the benchmark into a layer.  `parent` indexes the
/// enclosing span on the main thread (-1 at the root); `op` is the
/// operation id the span belongs to (-1 outside the operation loop).
struct Span {
  const char* name = "";
  const char* layer = "";
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  std::int32_t parent = -1;
  std::int64_t op = -1;
};

/// Main-thread span recorder: spans nest through an explicit stack, are
/// kept in memory, and are written out once at the end.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] std::int32_t open(const char* name, const char* layer,
                                  std::int64_t op);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part of it its
  /// direct children cover (children never overlap on one thread).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes the spans as a JSON array; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer records nothing, so untraced code paths pay
/// one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::int64_t op = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, layer, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------------

/// Shared between the decorators of every endpoint of one mesh: matches a
/// message's send() entry to its invocation of the peer's sink.  Per
/// (source, dest, tag) stream the transport is FIFO, so a per-stream queue
/// of send instants pairs them exactly.
class DeliveryClock {
 public:
  void sent(int source, int dest, std::int64_t tag, Clock::time_point when);
  /// Records the microseconds since the matching send().
  void delivered(int source, int dest, std::int64_t tag,
                   Clock::time_point when);
  std::vector<double> take_delivery_us();

 private:
  using Stream = std::tuple<int, int, std::int64_t>;
  std::mutex mutex_;
  std::map<Stream, std::deque<Clock::time_point>> pending_;
  std::vector<double> delivery_us_;
};

/// What a TimingTransport saw; reset by take().
struct NetCounters {
  std::int64_t frames = 0;
  std::int64_t payload_bytes = 0;
  double barrier_seconds = 0.0;  ///< in barrier() and gather_blobs()
  std::vector<double> send_us;  ///< time inside send(), backpressure included

  void merge(const NetCounters& other);
};

/// A vmpi::Transport that forwards every call to `inner` unchanged and
/// records frame counts, payload bytes, send() latency, sink delivery
/// latency (through the shared DeliveryClock) and time in the synchronizing
/// collectives (vmpi ends every run with a gather_blobs rendezvous).
class TimingTransport final : public vmpi::Transport {
 public:
  TimingTransport(vmpi::Transport& inner, DeliveryClock& clock)
      : inner_(inner), clock_(clock) {}
  TimingTransport(const TimingTransport&) = delete;
  TimingTransport& operator=(const TimingTransport&) = delete;

  [[nodiscard]] int world_size() const override { return inner_.world_size(); }
  [[nodiscard]] int process_index() const override {
    return inner_.process_index();
  }
  [[nodiscard]] int process_count() const override {
    return inner_.process_count();
  }
  [[nodiscard]] const std::vector<int>& local_ranks() const override {
    return inner_.local_ranks();
  }
  [[nodiscard]] bool is_local(int rank) const override {
    return inner_.is_local(rank);
  }

  void send(vmpi::WireMessage message) override;
  void attach(Sink sink) override;
  void detach() override { inner_.detach(); }
  void barrier() override;
  std::vector<std::string> gather_blobs(const std::string& local) override;

  NetCounters take();

 private:
  vmpi::Transport& inner_;
  DeliveryClock& clock_;
  std::mutex mutex_;  ///< guards counters_ (send() runs on many threads)
  NetCounters counters_;
};

// ---------------------------------------------------------------------------
// Loopback socket mesh
// ---------------------------------------------------------------------------

/// Both endpoints of a 2-process loopback net::SocketTransport mesh hosted
/// in this process; each endpoint's thread scopes its own ambient
/// transport, so an unmodified dist:: call runs across the mesh.
class SocketMesh {
 public:
  /// `work_dir` hosts the rendezvous directory (removed on destruction).
  SocketMesh(int world_size, const std::string& work_dir);
  ~SocketMesh();
  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  using Call = std::function<dist::DistRunResult()>;
  /// Runs `call` on both endpoints concurrently (through the timing
  /// decorators when `timed`) and returns endpoint 0's result, which hosts
  /// rank 0 and therefore holds the gathered factor.  Both endpoints get
  /// the same globally merged RunReport.
  dist::DistRunResult run(const Call& call, bool timed);

  /// Counters of both decorators since the last take(), merged.
  NetCounters take_counters();
  std::vector<double> take_delivery_us() { return clock_.take_delivery_us(); }

 private:
  std::string rendezvous_;
  std::unique_ptr<net::SocketTransport> endpoints_[2];
  DeliveryClock clock_;
  std::unique_ptr<TimingTransport> timed_[2];
};

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Attempted and failed operations; a failure is reported on stderr.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Counts one operation; a non-empty `error` (a check's verdict) fails it.
  void record(const std::string& error, const char* what);
};

/// Messages of the final gather to rank 0: one per served tile rank 0 does
/// not own.
[[nodiscard]] std::int64_t gather_messages(const core::Distribution& dist,
                                           std::int64_t t, bool symmetric);

/// Checks one real factorization: `ok` set, factor bit-identical to
/// `reference` over the served tiles, and factorization-proper messages
/// (sent and consumed) equal to `expected_messages`.  Returns an empty
/// string on success, else what failed.
[[nodiscard]] std::string check_factorization(
    const dist::DistRunResult& result, const linalg::TiledMatrix& reference,
    bool symmetric, std::int64_t gather, std::int64_t expected_messages);

/// Checks one simulation: messages equal the closed form, and makespan and
/// event count repeat exactly those of the first run (`first` null means
/// this is the first run).  Empty string on success.
[[nodiscard]] std::string check_simulation(const sim::SimReport& report,
                                           std::int64_t expected_messages,
                                           const sim::SimReport* first);

/// Largest per-rank flop count over the mean, exact from the owner map
/// (owner computes every task writing its tile).
[[nodiscard]] double flop_imbalance(const core::Distribution& dist,
                                    std::int64_t t, std::int64_t nb,
                                    bool symmetric);

/// Send→recv latency of every matched flow in a vmpi trace, microseconds,
/// plus the gather phase (tags >= gather_tag_floor): first gather send to
/// last gather recv, seconds.
struct FlowStats {
  std::vector<double> tile_age_us;
  std::int64_t recv_events = 0;
  double gather_seconds = 0.0;
};
[[nodiscard]] FlowStats flow_stats(const obs::Trace& trace,
                                   std::int64_t gather_tag_floor);

}  // namespace perfbench
