#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "linalg/kernels.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

Tail tail(std::vector<double> samples, std::int64_t beyond) {
  Tail result;
  result.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const std::int64_t rank = std::max<std::int64_t>(result.samples - beyond, 1);
  result.value = samples[static_cast<std::size_t>(rank - 1)];
  result.percentile = result.samples > beyond
                          ? 100.0 * static_cast<double>(rank) /
                                static_cast<double>(result.samples)
                          : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::int32_t Tracer::open(const char* name, const char* layer,
                          std::int64_t op) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start = seconds_since(epoch_);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end = seconds_since(epoch_);
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      covered[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer] += spans_[i].end - spans_[i].start - covered[i];
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start\":%.9f,"
                  "\"end\":%.9f,\"parent\":%d,\"op\":%lld}%s\n",
                  i, s.name, s.layer, s.start, s.end, s.parent,
                  static_cast<long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------------

void DeliveryClock::sent(int source, int dest, std::int64_t tag,
                         Clock::time_point when) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_[{source, dest, tag}].push_back(when);
}

void DeliveryClock::delivered(int source, int dest, std::int64_t tag,
                                Clock::time_point when) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pending_.find({source, dest, tag});
  if (it == pending_.end()) return;
  const double us =
      std::chrono::duration<double, std::micro>(when - it->second.front())
          .count();
  it->second.pop_front();
  if (it->second.empty()) pending_.erase(it);
  delivery_us_.push_back(us);
}

std::vector<double> DeliveryClock::take_delivery_us() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(delivery_us_, {});
}

void NetCounters::merge(const NetCounters& other) {
  frames += other.frames;
  payload_bytes += other.payload_bytes;
  barrier_seconds += other.barrier_seconds;
  send_us.insert(send_us.end(), other.send_us.begin(), other.send_us.end());
}

void TimingTransport::send(vmpi::WireMessage message) {
  const auto bytes = static_cast<std::int64_t>(message.data.size() *
                                               sizeof(double));
  const Clock::time_point start = Clock::now();
  clock_.sent(message.source, message.dest, message.tag, start);
  inner_.send(std::move(message));
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.frames;
  counters_.payload_bytes += bytes;
  counters_.send_us.push_back(us);
}

void TimingTransport::attach(Sink sink) {
  inner_.attach([this, sink = std::move(sink)](vmpi::WireMessage&& message) {
    clock_.delivered(message.source, message.dest, message.tag, Clock::now());
    sink(std::move(message));
  });
}

void TimingTransport::barrier() {
  const Clock::time_point start = Clock::now();
  inner_.barrier();
  const double seconds = seconds_since(start);
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.barrier_seconds += seconds;
}

std::vector<std::string> TimingTransport::gather_blobs(
    const std::string& local) {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> blobs = inner_.gather_blobs(local);
  const double seconds = seconds_since(start);
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.barrier_seconds += seconds;
  return blobs;
}

NetCounters TimingTransport::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(counters_, {});
}

// ---------------------------------------------------------------------------
// Loopback socket mesh
// ---------------------------------------------------------------------------

SocketMesh::SocketMesh(int world_size, const std::string& work_dir) {
  std::filesystem::create_directories(work_dir);
  std::string pattern = work_dir + "/rdv-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr)
    throw std::runtime_error("cannot create a rendezvous directory in " +
                             work_dir);
  rendezvous_ = pattern;

  net::SocketTransportConfig config;
  config.world_size = world_size;
  config.process_count = 2;
  config.rendezvous_dir = rendezvous_;
  net::SocketTransportConfig other = config;
  other.process_index = 1;
  std::exception_ptr errors[2];  // one per thread: no shared writes
  std::thread dialer([&, other] {
    try {
      endpoints_[1] = std::make_unique<net::SocketTransport>(other);
    } catch (...) {
      errors[1] = std::current_exception();
    }
  });
  try {
    endpoints_[0] = std::make_unique<net::SocketTransport>(config);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  dialer.join();
  for (const std::exception_ptr& error : errors)
    if (error) {
      endpoints_[0].reset();
      endpoints_[1].reset();
      std::filesystem::remove_all(rendezvous_);
      std::rethrow_exception(error);
    }
  for (int e = 0; e < 2; ++e)
    timed_[e] = std::make_unique<TimingTransport>(*endpoints_[e], clock_);
}

SocketMesh::~SocketMesh() {
  for (auto& t : timed_) t.reset();
  for (auto& e : endpoints_) e.reset();
  std::error_code ignored;
  std::filesystem::remove_all(rendezvous_, ignored);
}

dist::DistRunResult SocketMesh::run(const Call& call, bool timed) {
  vmpi::Transport* transports[2];
  for (int e = 0; e < 2; ++e)
    transports[e] = timed ? static_cast<vmpi::Transport*>(timed_[e].get())
                          : endpoints_[e].get();
  std::exception_ptr side_error;
  std::thread side([&] {
    try {
      const vmpi::ScopedTransport scope(transports[1]);
      (void)call();
    } catch (...) {
      side_error = std::current_exception();
    }
  });
  dist::DistRunResult result;
  std::exception_ptr main_error;
  try {
    const vmpi::ScopedTransport scope(transports[0]);
    result = call();
  } catch (...) {
    main_error = std::current_exception();
  }
  side.join();
  if (main_error) std::rethrow_exception(main_error);
  if (side_error) std::rethrow_exception(side_error);
  return result;
}

NetCounters SocketMesh::take_counters() {
  NetCounters merged = timed_[0]->take();
  merged.merge(timed_[1]->take());
  return merged;
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

void Tally::record(const std::string& error, const char* what) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  std::fprintf(stderr, "perfbench: %s failed its check: %s\n", what,
               error.c_str());
}

std::int64_t gather_messages(const core::Distribution& dist, std::int64_t t,
                             bool symmetric) {
  std::int64_t messages = 0;
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < (symmetric ? i + 1 : t); ++j)
      if (dist.owner(i, j) != 0) ++messages;
  return messages;
}

std::string check_factorization(const dist::DistRunResult& result,
                                const linalg::TiledMatrix& reference,
                                bool symmetric, std::int64_t gather,
                                std::int64_t expected_messages) {
  if (!result.ok) return "a tile factorization failed";
  const std::int64_t t = reference.tiles();
  if (result.factored.tiles() != t ||
      result.factored.tile_size() != reference.tile_size())
    return "gathered factor has the wrong shape";
  const std::size_t tile_bytes =
      static_cast<std::size_t>(reference.tile_elems()) * sizeof(double);
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < (symmetric ? i + 1 : t); ++j)
      if (std::memcmp(result.factored.tile(i, j).data(),
                      reference.tile(i, j).data(), tile_bytes) != 0)
        return "factor tile (" + std::to_string(i) + ", " + std::to_string(j) +
               ") differs from the sequential reference";
  const std::int64_t sent = result.report.total_messages() - gather;
  const std::int64_t consumed =
      result.report.total_messages_received() - gather;
  if (sent != expected_messages || consumed != expected_messages)
    return "messages sent " + std::to_string(sent) + ", consumed " +
           std::to_string(consumed) + ", closed form " +
           std::to_string(expected_messages);
  return {};
}

std::string check_simulation(const sim::SimReport& report,
                             std::int64_t expected_messages,
                             const sim::SimReport* first) {
  if (report.messages != expected_messages)
    return "simulated messages " + std::to_string(report.messages) +
           ", closed form " + std::to_string(expected_messages);
  if (first != nullptr && (report.makespan_seconds != first->makespan_seconds ||
                           report.events != first->events))
    return "makespan or event count differs from the first simulation";
  return {};
}

double flop_imbalance(const core::Distribution& dist, std::int64_t t,
                      std::int64_t nb, bool symmetric) {
  std::vector<double> flops(static_cast<std::size_t>(dist.num_nodes()), 0.0);
  const auto add = [&](std::int64_t i, std::int64_t j, double f) {
    flops[static_cast<std::size_t>(dist.owner(i, j))] += f;
  };
  const double gemm = linalg::gemm_flops(nb);
  const double trsm = linalg::trsm_flops(nb);
  for (std::int64_t k = 0; k < t; ++k) {
    if (symmetric) {
      add(k, k, linalg::potrf_flops(nb));
      for (std::int64_t i = k + 1; i < t; ++i) {
        add(i, k, trsm);
        add(i, i, linalg::syrk_flops(nb));
        for (std::int64_t j = k + 1; j < i; ++j) add(i, j, gemm);
      }
    } else {
      add(k, k, linalg::getrf_flops(nb));
      for (std::int64_t i = k + 1; i < t; ++i) {
        add(i, k, trsm);
        add(k, i, trsm);
        for (std::int64_t j = k + 1; j < t; ++j) add(i, j, gemm);
      }
    }
  }
  double total = 0.0;
  for (const double f : flops) total += f;
  const double mean = total / static_cast<double>(flops.size());
  return *std::max_element(flops.begin(), flops.end()) / mean;
}

FlowStats flow_stats(const obs::Trace& trace, std::int64_t gather_tag_floor) {
  FlowStats stats;
  struct Key {
    std::uint64_t flow;
    int dest;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.flow * 1000003u +
                                        static_cast<std::uint64_t>(k.dest));
    }
  };
  std::unordered_map<Key, double, KeyHash> sends;
  double gather_start = INFINITY;
  double gather_end = -INFINITY;
  for (const obs::Track& track : trace.tracks)
    for (const obs::Event& e : track.events) {
      if (e.kind == obs::EventKind::kSend) {
        sends[{e.flow, e.dest}] = e.start_seconds;
        if (e.tag >= gather_tag_floor)
          gather_start = std::min(gather_start, e.start_seconds);
      } else if (e.kind == obs::EventKind::kRecv) {
        ++stats.recv_events;
        if (e.tag >= gather_tag_floor)
          gather_end = std::max(gather_end, e.start_seconds);
      }
    }
  for (const obs::Track& track : trace.tracks)
    for (const obs::Event& e : track.events) {
      if (e.kind != obs::EventKind::kRecv) continue;
      const auto it = sends.find({e.flow, e.dest});
      if (it != sends.end())
        stats.tile_age_us.push_back((e.start_seconds - it->second) * 1e6);
    }
  if (gather_end >= gather_start)
    stats.gather_seconds = gather_end - gather_start;
  return stats;
}

}  // namespace perfbench
