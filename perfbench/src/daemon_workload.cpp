#include "daemon_workload.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "daemon/protocol.hpp"
#include "support/telemetry/metrics.hpp"

extern char** environ;

namespace perfbench {

namespace {

using grbd::Frame;
using grbd::MsgType;
using grbd::PayloadReader;
using grbd::PayloadWriter;
namespace telemetry = grbsm::telemetry;

/// One client connection; every call is one request/response exchange.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Frame call(MsgType type, const std::vector<std::uint8_t>& payload) {
    if (!grbd::write_frame(fd_, type, payload)) {
      throw grbd::ProtocolError("daemon closed the connection");
    }
    std::optional<Frame> f = grbd::read_frame(fd_);
    if (!f) throw grbd::ProtocolError("EOF while awaiting a response");
    return std::move(*f);
  }

  /// kQuery; returns (epoch, answer) or throws on an error response.
  std::pair<std::uint64_t, std::string> query(std::uint8_t which,
                                              std::uint64_t pin) {
    PayloadWriter req;
    req.u8(which);
    req.u64(pin);
    const Frame resp = call(MsgType::kQuery, req.data());
    PayloadReader in(resp.payload);
    if (resp.type != MsgType::kAnswer) {
      throw grbd::ProtocolError("query for epoch " + std::to_string(pin) +
                                " refused (error " +
                                std::to_string(in.u32()) + ")");
    }
    const std::uint64_t epoch = in.u64();
    return {epoch, in.rest()};
  }

  std::uint64_t apply(const sm::ChangeSet& cs) {
    const Frame resp =
        call(MsgType::kApply, grbd::encode_change_set(cs));
    if (resp.type != MsgType::kApplied) {
      throw grbd::ProtocolError("kApply refused");
    }
    PayloadReader in(resp.payload);
    return in.u64();
  }

  telemetry::RegistrySnapshot metrics() {
    const Frame resp = call(MsgType::kMetrics, {});
    if (resp.type != MsgType::kMetricsOk) {
      throw grbd::ProtocolError("kMetrics refused");
    }
    return telemetry::parse_snapshot(resp.payload.data(),
                                     resp.payload.size());
  }

 private:
  int fd_;
};

/// Connects, retrying every millisecond until `deadline_ns` or until
/// `keep_trying` says no; -1 then.
template <typename KeepTrying>
int connect_unix(const std::string& path, std::int64_t deadline_ns,
                 KeepTrying&& keep_trying) {
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      ::close(fd);
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (now_ns() >= deadline_ns || !keep_trying()) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int connect_unix(const std::string& path, std::int64_t deadline_ns) {
  return connect_unix(path, deadline_ns, [] { return true; });
}

void sleep_until_ns(std::int64_t t_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

/// The spawned daemon; the destructor makes sure it has ended.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::vector<std::string>& argv) {
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    if (::posix_spawn(&pid_, args[0], nullptr, nullptr, args.data(),
                      environ) != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + argv[0]);
    }
  }
  /// A daemon still running here was not shut down over the protocol (an
  /// error path): kill it, then reap it.
  ~DaemonProcess() {
    if (alive()) {
      ::kill(pid_, SIGKILL);
      (void)wait_exit(std::chrono::seconds(20));
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] long pid() const { return pid_; }
  [[nodiscard]] bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      exit_status_ = status;
      return false;
    }
    return true;
  }
  /// Waits for the daemon to exit; true when it did (status in status()).
  bool wait_exit(std::chrono::seconds limit) {
    const std::int64_t deadline =
        now_ns() + std::chrono::nanoseconds(limit).count();
    while (alive()) {
      if (now_ns() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }
  [[nodiscard]] int status() const { return exit_status_; }

 private:
  pid_t pid_ = -1;
  int exit_status_ = -1;
};

// The serving phase's shape (README "What one run does"). One shard and
// depth 2 give the daemon 2 shard workers (one pipeline per query) plus its
// writer, so its busy threads and the client's busy one (the burst writer)
// fit in 4 cores; the paced rate is about a fifth of the burst rate, so
// each paced epoch is published long before the next is due, even when the
// host runs a few times slower than usual (at 50/s, one run's whole
// serving phase queued up to a 23 ms p50). kDaemons daemons serve
// the same stream one after another, between the engine phase's rounds,
// and each paced change set's publication time is the least over them: a
// slow host stretch or a slow daemon instance has to hit every one of them
// to move the publish metrics (README "Quiet windows").
constexpr int kShards = 1;
constexpr int kDepth = 2;
constexpr int kRetain = 128;         // snapshots kept for pinned reads
constexpr std::size_t kDaemons = 3;
/// Also the daemon's warm-up: its first 200-400 epochs often run at about
/// 110-140 change sets/s, later ones at 150-190/s.
constexpr std::size_t kBurstSets = 300;
constexpr std::size_t kPacedSets = 150;  // p90 has 15 samples beyond it
constexpr double kPacedRate = 30.0;      // change sets/s
constexpr std::size_t kReaders = 2;
constexpr double kReadRate = 200.0;   // reads/s per reader
constexpr std::size_t kMaxTrail = 16;  // pinned reads trail by 1..this
/// Epochs per burst throughput sample (daemon.burst_cs_per_s).
constexpr std::size_t kBurstChunk = 100;
/// The daemon's own histograms whose deltas give per-layer metrics.
constexpr const char* kHistograms[] = {"epoch.route_us", "epoch.apply_us",
                                       "epoch.merge_us", "epoch.publish_us",
                                       "epoch.answer_us"};

struct Read {
  std::int64_t due_ns = 0;
  double latency_ms = 0.0;
  double lag_ms = 0.0;  // send time - due time
  std::uint8_t which = 0;
  std::uint64_t epoch = 0;
  std::string answer;
};

struct ReaderState {
  std::vector<Read> reads;
  std::uint64_t failed = 0;
  std::string error;
};

void reader_main(std::stop_token stop, const std::string& socket_path,
                 std::uint64_t seed, std::int64_t first_due_ns, double rate,
                 std::size_t max_trail, ReaderState& out) {
  const int fd = connect_unix(socket_path, now_ns() + 10'000'000'000);
  if (fd < 0) {
    out.failed++;
    out.error = "reader could not connect";
    return;
  }
  Conn conn(fd);
  std::mt19937_64 rng(seed);
  std::uint64_t seen_max = 0;
  const auto interval_ns = static_cast<std::int64_t>(1e9 / rate);
  for (std::int64_t due = first_due_ns; !stop.stop_requested();
       due += interval_ns) {
    sleep_until_ns(due);
    if (stop.stop_requested()) break;
    Read rd;
    rd.due_ns = due;
    rd.which = (rng() & 1) != 0 ? grbd::kQueryQ2 : grbd::kQueryQ1;
    std::uint64_t pin = grbd::kLatestEpoch;
    if ((rng() & 2) != 0) {
      const std::uint64_t back = 1 + rng() % max_trail;
      pin = seen_max > back ? seen_max - back : 0;
    }
    const std::int64_t sent = now_ns();
    rd.lag_ms = ms_between(due, sent);
    try {
      auto [epoch, answer] = conn.query(rd.which, pin);
      rd.latency_ms = ms_between(due, now_ns());
      rd.epoch = epoch;
      rd.answer = std::move(answer);
      if (epoch > seen_max) seen_max = epoch;
      out.reads.push_back(std::move(rd));
    } catch (const std::exception& e) {
      out.failed++;
      if (out.error.empty()) out.error = e.what();
      return;  // the connection is unusable after a framing error
    }
  }
}

telemetry::HistogramSnapshot hist_delta(const telemetry::RegistrySnapshot& a,
                                        const telemetry::RegistrySnapshot& b,
                                        const char* name) {
  const telemetry::HistogramSnapshot* after = a.histogram(name);
  if (after == nullptr) return {};
  const telemetry::HistogramSnapshot* before = b.histogram(name);
  return before != nullptr ? after->delta_since(*before) : *after;
}

}  // namespace

struct ServingPhase::State {
  State(const Workload& w_, std::uint64_t seed_, const datagen::Dataset& ds_,
        std::string daemon_path_, std::string socket_path_, Result& r_)
      : w(w_),
        seed(seed_),
        ds(ds_),
        daemon_path(std::move(daemon_path_)),
        socket_path(std::move(socket_path_)),
        r(r_) {}

  const Workload& w;
  std::uint64_t seed;
  const datagen::Dataset& ds;
  std::string daemon_path;
  std::string socket_path;
  Result& r;

  std::size_t daemons_run = 0;
  std::vector<Served> served;
  /// publish_ms[d][i]: daemon d's time for paced change set i.
  std::vector<double> publish_ms[kDaemons];
  std::vector<double> burst_rates;
  std::vector<double> send_lag_ms;
  std::vector<double> read_ms;  // reads due in the paced segments
  std::size_t reads_all = 0;
  std::vector<double> setup_s;
  double rss_mb = 0.0;
  telemetry::HistogramSnapshot hist[std::size(kHistograms)];

  void keep(std::uint8_t which, std::uint64_t epoch, std::string answer,
            const char* what) {
    served.push_back({which, epoch, std::move(answer), what});
  }

  /// Daemon d: spawn → snapshot 0 served, the burst, the paced segment,
  /// kShutdown. Readers run from the burst to the end of the segment.
  void run_daemon(std::size_t d) {
    ::unlink(socket_path.c_str());
    const std::int64_t t_spawn = now_ns();
    DaemonProcess daemon({daemon_path, "--socket=" + socket_path,
                          "--sf=" + std::to_string(w.scale_factor),
                          "--seed=" + std::to_string(seed),
                          "--shards=" + std::to_string(kShards),
                          "--depth=" + std::to_string(kDepth),
                          "--retain=" + std::to_string(kRetain),
                          "--query-wait-ms=60000"});
    const int wfd = connect_unix(socket_path, t_spawn + 60'000'000'000,
                                 [&] { return daemon.alive(); });
    if (wfd < 0) {
      throw std::runtime_error("grb_daemon did not come up on " +
                               socket_path);
    }
    Conn writer(wfd);
    {
      auto [epoch, answer] = writer.query(grbd::kQueryQ1, 0);
      r.attempted++;
      keep(grbd::kQueryQ1, epoch, std::move(answer), "snapshot 0");
    }
    const int watch_fd = connect_unix(socket_path, now_ns() + 10'000'000'000);
    if (watch_fd < 0) throw std::runtime_error("watcher could not connect");
    Conn watcher(watch_fd);
    const telemetry::RegistrySnapshot before = writer.metrics();

    std::vector<ReaderState> readers(kReaders);
    std::int64_t paced_start = 0;
    std::int64_t paced_end = 0;
    {
      // The jthreads stop and join on every way out of this scope.
      std::vector<std::jthread> reader_threads;
      const std::int64_t readers_start = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < kReaders; ++i) {
        const auto stagger = static_cast<std::int64_t>(
            1e9 / kReadRate * static_cast<double>(i) /
            static_cast<double>(kReaders));
        reader_threads.emplace_back(
            reader_main, socket_path,
            (seed * 1000003 + i + 1) * kDaemons + d, readers_start + stagger,
            kReadRate, kMaxTrail, std::ref(readers[i]));
      }

      // Burst: back-to-back from a writer thread, while the watcher times
      // every kBurstChunk-th epoch becoming readable.
      std::string writer_error;
      const std::int64_t burst_start = now_ns();
      setup_s.push_back(ms_between(t_spawn, burst_start) * 1e-3);
      {
        std::jthread burst_writer([&] {
          try {
            for (std::size_t k = 0; k < kBurstSets; ++k) {
              if (writer.apply(ds.changes[k]) != k + 1) {
                throw std::runtime_error(
                    "kApply returned an unexpected epoch");
              }
            }
          } catch (const std::exception& e) {
            writer_error = e.what();
          }
        });
        std::int64_t last = burst_start;
        for (std::size_t k = kBurstChunk; k <= kBurstSets; k += kBurstChunk) {
          auto [epoch, answer] = watcher.query(grbd::kQueryQ1, k);
          const std::int64_t now = now_ns();
          burst_rates.push_back(static_cast<double>(kBurstChunk) /
                                (ms_between(last, now) * 1e-3));
          last = now;
          r.attempted++;
          keep(grbd::kQueryQ1, epoch, std::move(answer), "burst");
        }
      }
      r.attempted += kBurstSets;
      if (!writer_error.empty()) throw std::runtime_error(writer_error);

      // Paced: open loop at kPacedRate; the watcher waits on every epoch.
      const auto interval_ns = static_cast<std::int64_t>(1e9 / kPacedRate);
      paced_start = now_ns() + 2'000'000;
      const auto due_of = [&](std::size_t k) {
        return paced_start +
               static_cast<std::int64_t>(k - kBurstSets) * interval_ns;
      };
      const std::size_t end = kBurstSets + kPacedSets;
      {
        std::jthread paced_writer([&] {
          try {
            for (std::size_t k = kBurstSets; k < end; ++k) {
              sleep_until_ns(due_of(k));
              send_lag_ms.push_back(ms_between(due_of(k), now_ns()));
              (void)writer.apply(ds.changes[k]);
            }
          } catch (const std::exception& e) {
            writer_error = e.what();
          }
        });
        for (std::size_t k = kBurstSets; k < end; ++k) {
          const std::uint8_t which =
              (k & 1) != 0 ? grbd::kQueryQ2 : grbd::kQueryQ1;
          auto [epoch, answer] = watcher.query(which, k + 1);
          publish_ms[d].push_back(ms_between(due_of(k), now_ns()));
          r.attempted += 2;  // the write and its watch
          keep(which, epoch, std::move(answer), "paced");
        }
        paced_end = now_ns();
      }
      if (!writer_error.empty()) throw std::runtime_error(writer_error);
    }

    const telemetry::RegistrySnapshot after = writer.metrics();
    for (std::size_t h = 0; h < std::size(kHistograms); ++h) {
      hist[h] += hist_delta(after, before, kHistograms[h]);
    }
    rss_mb = std::max(rss_mb, peak_rss_mb(daemon.pid()));
    (void)writer.call(MsgType::kShutdown, {});
    if (!daemon.wait_exit(std::chrono::seconds(30)) || daemon.status() != 0) {
      r.fail("grb_daemon did not exit cleanly after kShutdown");
    }
    ::unlink(socket_path.c_str());

    for (ReaderState& rs : readers) {
      r.attempted += rs.reads.size() + rs.failed;
      r.failed += rs.failed;
      if (!rs.error.empty()) {
        std::fprintf(stderr, "perfbench: reader error: %s\n",
                     rs.error.c_str());
      }
      reads_all += rs.reads.size();
      for (Read& rd : rs.reads) {
        keep(rd.which, rd.epoch, std::move(rd.answer), "read");
        send_lag_ms.push_back(rd.lag_ms);
        if (rd.due_ns >= paced_start && rd.due_ns < paced_end) {
          read_ms.push_back(rd.latency_ms);
        }
      }
    }
  }
};

ServingPhase::ServingPhase(const Workload& w, std::uint64_t seed,
                           const datagen::Dataset& ds,
                           const std::string& daemon_path,
                           const std::string& socket_path, Result& r)
    : s_(std::make_unique<State>(w, seed, ds, daemon_path, socket_path, r)) {
  if (ds.changes.size() < kBurstSets + kPacedSets) {
    throw std::runtime_error("the serving phase needs " +
                             std::to_string(kBurstSets + kPacedSets) +
                             " change sets");
  }
}

ServingPhase::~ServingPhase() = default;

void ServingPhase::next_stretch() {
  if (s_->daemons_run < kDaemons) s_->run_daemon(s_->daemons_run++);
}

std::vector<Served> ServingPhase::finish() {
  while (s_->daemons_run < kDaemons) next_stretch();
  State& st = *s_;
  Result& r = st.r;
  // Each paced change set's time is the least over the daemons.
  std::vector<double> best(kPacedSets);
  std::vector<double> all_publish;
  std::string per_daemon;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    const std::vector<double>& xs = st.publish_ms[d];
    for (std::size_t i = 0; i < kPacedSets; ++i) {
      best[i] = d == 0 ? xs[i] : std::min(best[i], xs[i]);
    }
    all_publish.insert(all_publish.end(), xs.begin(), xs.end());
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.2f/%.2f", quantile(xs, 0.50),
                  quantile(xs, 0.90));
    per_daemon += buf;
  }
  std::string chunks;
  for (const double x : st.burst_rates) {
    chunks += ' ';
    chunks += std::to_string(std::lround(x));
  }
  std::fprintf(stderr, "perfbench: burst rates per %zu change sets:%s\n",
               kBurstChunk, chunks.c_str());
  std::fprintf(stderr, "perfbench: publish p50/p90 ms per daemon:%s\n",
               per_daemon.c_str());
  r.metric("daemon.publish_p50_ms", quantile(best, 0.50), "ms");
  r.metric("daemon.publish_p90_ms", quantile(best, 0.90), "ms");
  r.metric("daemon_rss_mb", st.rss_mb, "MB");
  r.metric("daemon.burst_cs_per_s", median(st.burst_rates), "1/s");
  r.metric("daemon.publish_p99_ms", quantile(all_publish, 0.99), "ms");
  r.metric("daemon.read_p50_ms", quantile(st.read_ms, 0.50), "ms");
  r.metric("daemon.read_p99_ms", quantile(st.read_ms, 0.99), "ms");
  r.metric("client.send_lag_ms", quantile(st.send_lag_ms, 0.99), "ms");
  r.metric("daemon.setup_s", median(st.setup_s), "s");
  r.metric("shard.route_us", st.hist[0].p50(), "us");
  r.metric("shard.apply_us", st.hist[1].p50(), "us");
  r.metric("shard.merge_us", st.hist[2].p50(), "us");
  r.metric("daemon.publish_us", st.hist[3].p50(), "us");
  const double answer_us = st.hist[4].p50();
  r.metric("daemon.answer_us", answer_us, "us");
  r.metric("daemon.read_gap_us",
           quantile(st.read_ms, 0.50) * 1e3 - answer_us, "us");
  std::fprintf(stderr,
               "perfbench: serving phase: %zu daemons x (%zu burst + %zu "
               "paced change sets), %zu paced reads (%zu in all)\n",
               kDaemons, kBurstSets, kPacedSets, st.read_ms.size(),
               st.reads_all);
  return std::move(st.served);
}

void check_served(const std::vector<Served>& served, const Answers& want,
                  Result& r) {
  for (const Served& s : served) {
    const std::vector<std::string>& ref =
        want[s.which == grbd::kQueryQ1 ? 0 : 1];
    if (s.epoch >= ref.size() || s.answer != ref[s.epoch]) {
      r.fail(std::string(s.what) +
             (s.which == grbd::kQueryQ1 ? " Q1" : " Q2") + " epoch " +
             std::to_string(s.epoch) + ": daemon answered \"" + s.answer +
             "\", reference \"" + (s.epoch < ref.size() ? ref[s.epoch] : "?") +
             "\"");
    }
  }
}

}  // namespace perfbench
